(* Clocks, order statistics and process gauges shared by the workloads. *)

let now = Unix.gettimeofday

(* first thing the program does: the origin of the set-up time *)
let process_start = now ()
let ms seconds = seconds *. 1000.

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* nearest-rank percentile, [p] in [0, 1] *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs = percentile 0.5 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* per-op input seeds: a splitmix64 step over (workload seed, op index),
   folded to a positive 30-bit int so every consumer accepts it *)
let op_seed ~seed i =
  let open Int64 in
  let z = add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (i + 1)) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  1 + (to_int (logand z 0x3FFFFFFFL) mod 1_000_000_000)

(* VmHWM of this process, in MB (0. where /proc is unavailable) *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* allocation and collection deltas around [f] *)
type gc_delta = { minor_mwords : float; major_collections : int }

let with_gc f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor_mwords = (b.Gc.minor_words -. a.Gc.minor_words) /. 1e6;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

(* --- the result line ---------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* A closed-loop run's tally: every op attempted, the ones that failed,
   and the reasons (first few kept).  A failed op is [incorrect] when the
   program's output was wrong — a reference not reproduced, a result
   missing or differing from its in-process twin; the one failure class
   that is not is a campaign whose report records crashed jobs, which
   the program isolates by design (see README.md). *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable incorrect : int;
  mutable errors : string list;
}

let tally () = { attempted = 0; failed = 0; incorrect = 0; errors = [] }

let fail t ~incorrect msg =
  t.failed <- t.failed + 1;
  if incorrect then t.incorrect <- t.incorrect + 1;
  if List.length t.errors < 8 then t.errors <- t.errors @ [ msg ]

(* one op's check: [None] passed, [Some reason] wrong output *)
let record t verdict =
  t.attempted <- t.attempted + 1;
  Option.iter (fail t ~incorrect:true) verdict

(* a further check on an op already recorded *)
let check t verdict = Option.iter (fail t ~incorrect:true) verdict

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %f" v)

let metric_line m = Printf.sprintf "%-32s %16.6f %s\n" m.m_name m.m_value m.m_unit

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Hlcs_json.Json.escape_string m.m_name)
              (json_number m.m_value)
              (Hlcs_json.Json.escape_string m.m_unit))
          metrics))
