(* In-memory spans recorded around calls into each layer's public
   functions, written out once at the end of a traced run as Chrome
   trace-event JSON plus a per-span-name table.  Spans of one op share its
   [op] index: the op is the span's cause. *)

type span = { sp_op : int; sp_name : string; sp_start : float; sp_dur : float }

type t = { mutable spans : span list;  (** newest first *) origin : float }

let create () = { spans = []; origin = Measure.now () }

(* [with_span t ~op name f] runs [f], records its span and returns the
   result with the span's duration in seconds *)
let with_span t ~op name f =
  let t0 = Measure.now () in
  let r = f () in
  let dur = Measure.now () -. t0 in
  t.spans <- { sp_op = op; sp_name = name; sp_start = t0; sp_dur = dur } :: t.spans;
  (r, dur)

let table t =
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, total = Option.value ~default:(0, 0.) (Hashtbl.find_opt rows s.sp_name) in
      Hashtbl.replace rows s.sp_name (n + 1, total +. s.sp_dur))
    t.spans;
  let rows =
    Hashtbl.fold (fun name (n, total) acc -> (name, n, total) :: acc) rows []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  String.concat ""
    (Printf.sprintf "%-28s %8s %12s %10s\n" "span" "count" "total_ms" "mean_ms"
    :: List.map
         (fun (name, n, total) ->
           Printf.sprintf "%-28s %8d %12.3f %10.4f\n" name n (Measure.ms total)
             (Measure.ms total /. float_of_int n))
         rows)

let chrome_json t =
  let us x = Printf.sprintf "%.3f" (x *. 1e6) in
  let event s =
    Printf.sprintf
      "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %s, \"dur\": %s, \"pid\": 1, \
       \"tid\": 1, \"args\": {\"op\": %d}}"
      (Hlcs_json.Json.escape_string s.sp_name)
      (Hlcs_json.Json.escape_string
         (match String.index_opt s.sp_name '.' with
         | Some i -> String.sub s.sp_name 0 i
         | None -> s.sp_name))
      (us (s.sp_start -. t.origin))
      (us s.sp_dur) s.sp_op
  in
  "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
  ^ String.concat ",\n" (List.rev_map event t.spans)
  ^ "\n]}\n"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* write [<prefix>.trace.json] and [<prefix>.layers.txt]; returns the
   trace path *)
let write t ~prefix ~header =
  let trace = prefix ^ ".trace.json" in
  write_file trace (chrome_json t);
  write_file (prefix ^ ".layers.txt") (header ^ "\n" ^ table t);
  trace
