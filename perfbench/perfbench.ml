(* The end-to-end benchmark program.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload in this (fresh) process, checks its outputs, prints a
   human-readable summary and, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   declared in BENCHMARK.json when --trace is 0, its per-layer metrics when
   --trace is 1.  The traced run also writes its spans as Chrome
   trace-event JSON, with the per-layer table beside it, under .bench_out/.
   Exit status 0 iff every check passed. *)

module Json = Hlcs_json.Json

let workloads =
  [
    ("flow_revisions", Flow_revisions.run);
    ("swarm_pin", Swarm_pin.run);
    ("serve_mixed", Serve_mixed.run);
  ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload (" ^ String.concat "|" (List.map fst workloads)
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let args () =
  let rec go acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let a = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k a with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seconds = match float_of_string_opt (get "seconds") with Some s when s > 0. -> s | _ -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  match List.assoc_opt workload workloads with
  | None -> usage ()
  | Some run -> (workload, run, int "seed", seconds, trace)

let read_json path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.parse s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let member path k j =
  match Json.member k j with Some v -> v | None -> failwith (path ^ ": missing " ^ k)

(* (name, unit) of one metric list of BENCHMARK.json *)
let declared spec key =
  match member "BENCHMARK.json" key spec with
  | Json.List l ->
      List.map
        (fun m ->
          match (Json.string_field "name" m, Json.string_field "unit" m) with
          | Ok n, Ok u -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ key ^ " entry"))
        l
  | _ -> failwith ("BENCHMARK.json: " ^ key ^ " is not a list")

let main () =
  let workload, run, seed, seconds, trace = args () in
  let spec = read_json "BENCHMARK.json" in
  let golden =
    read_json "perfbench/baseline.json"
    |> member "baseline.json" "golden"
    |> member "baseline.json" workload
  in
  let spans = if trace then Some (Spans.create ()) else None in
  let ctx =
    { Workload.seed; seconds; spans; golden; process_start = Measure.process_start }
  in
  let r = run ctx in
  let produced = if trace then r.Workload.per_layer else r.Workload.end_to_end in
  let wanted = declared spec (if trace then "per_layer" else "end_to_end") in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n wanted) then failwith ("metric not declared in BENCHMARK.json: " ^ n))
    produced;
  let metrics =
    List.map
      (fun (n, u) ->
        match List.assoc_opt n produced with
        | Some v -> Measure.metric n u v
        | None when trace -> Measure.metric n u 0. (* layer not exercised *)
        | None -> failwith ("workload produced no " ^ n))
      wanted
  in
  let t = r.Workload.tally in
  List.iter print_endline r.Workload.report;
  List.iter (fun e -> print_endline ("check failed: " ^ e)) t.Measure.errors;
  let table = String.concat "" (List.map Measure.metric_line metrics) in
  print_string table;
  Option.iter
    (fun spans ->
      Out_dir.ensure ();
      let prefix = Filename.concat Out_dir.path (Printf.sprintf "%s-seed%d" workload seed) in
      let file =
        Spans.write spans ~prefix
          ~header:(Printf.sprintf "%s seed %d, %.0f s traced run\n\n%s" workload seed seconds table)
      in
      Printf.printf "trace written to %s (per-layer table beside it)\n" file)
    spans;
  let correct = t.Measure.incorrect = 0 && t.Measure.attempted > 0 in
  print_endline
    (Measure.result_line ~correct ~attempted:t.Measure.attempted ~failed:t.Measure.failed metrics);
  exit (if correct then 0 else 1)

let () =
  try main () with
  | Failure e | Sys_error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
