(* What every workload receives and returns, plus the closed loop that runs the ops. *)

module Json = Hlcs_json.Json

type ctx = {
  seed : int;  (** the workload seed: every op input derives from it *)
  seconds : float;  (** measurement window of the closed loop *)
  spans : Spans.t option;  (** [Some] iff this is the traced run *)
  golden : Json.t;  (** this workload's recorded reference values *)
  process_start : float;
}

type result = {
  tally : Measure.tally;
  end_to_end : (string * float) list;  (** untraced run *)
  per_layer : (string * float) list;  (** traced run; absent = 0 *)
  report : string list;  (** human-readable lines, printed before the result *)
}

(* ops between setup and the RSS reading: a fixed amount of work, so a
   faster program is not charged for the memory of the extra ops it fits
   into the same window *)
let rss_after_ops = 100

let golden conv ctx path =
  let rec walk j = function
    | [] -> conv j
    | k :: rest -> (
        match Json.member k j with
        | Some v -> walk v rest
        | None -> Error ("baseline.json: missing golden " ^ String.concat "." path))
  in
  match walk ctx.golden path with
  | Ok v -> v
  | Error e -> failwith e

let golden_int = golden Json.to_int
let golden_string = golden Json.to_string_val

(* [expect tally what ~recorded actual]: a reference value that must
   repeat exactly *)
let expect tally what ~recorded actual =
  Measure.check tally
    (if recorded = actual then None
     else Some (Printf.sprintf "%s: recorded %d, got %d" what recorded actual))

let expect_string tally what ~recorded actual =
  Measure.check tally
    (if recorded = actual then None
     else Some (Printf.sprintf "%s: recorded %S, got %S" what recorded actual))

(* Set the workload up [setup_reps] times and report the median set-up
   time, plus the process initialisation before the first repetition.
   [f ~last] returns the state the loop starts from; the last
   repetition's state is kept. *)
let setup_reps = 5

let setup ctx f =
  let t_first = Measure.now () in
  let times = ref [] and state = ref None in
  for i = 1 to setup_reps do
    let s, dt = Measure.timed (fun () -> f ~last:(i = setup_reps)) in
    times := dt :: !times;
    state := Some s
  done;
  (Option.get !state, (t_first -. ctx.process_start) +. Measure.median !times)

(* The closed loop: op [i] starts only after op [i - 1] finished, until
   the window closes.  Returns the loop's wall seconds and the RSS
   high-water mark read after [rss_after_ops] ops (or at the end). *)
let closed_loop ctx op =
  let t0 = Measure.now () in
  let t_end = t0 +. ctx.seconds in
  let i = ref 0 and rss = ref None in
  while Measure.now () < t_end do
    op !i;
    incr i;
    if !i = rss_after_ops then rss := Some (Measure.peak_rss_mb ())
  done;
  let wall = Measure.now () -. t0 in
  (wall, match !rss with Some r -> r | None -> Measure.peak_rss_mb ())

let latency_metrics ~setup_s ~latencies ~ops ~wall ~rss =
  [
    ("setup_s", setup_s);
    ("latency_p50_ms", Measure.ms (Measure.median latencies));
    ("latency_p90_ms", Measure.ms (Measure.percentile 0.9 latencies));
    ("ops_per_s", float_of_int ops /. wall);
    ("peak_rss_mb", rss);
  ]

(* --- per-layer counters -------------------------------------------------- *)

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* add one profiled kernel run's engine counters and phase times, and the
   RTL evaluator's settle counters when it carries them *)
let add_snapshot tbl (sn : Hlcs_obs.Obs.snapshot) =
  let module K = Hlcs_engine.Kernel in
  let k = sn.Hlcs_obs.Obs.sn_counters in
  bump tbl "engine.deltas" (float_of_int k.K.Counters.deltas);
  bump tbl "engine.activations" (float_of_int k.K.Counters.activations);
  bump tbl "engine.signal_writes" (float_of_int k.K.Counters.signal_writes);
  bump tbl "engine.net_drives" (float_of_int k.K.Counters.net_drives);
  Option.iter
    (fun p ->
      bump tbl "engine.evaluate_ms" (Measure.ms p.K.pt_evaluate);
      bump tbl "engine.update_ms" (Measure.ms p.K.pt_update);
      bump tbl "engine.notify_ms" (Measure.ms p.K.pt_notify))
    sn.Hlcs_obs.Obs.sn_phases;
  List.iter
    (fun (name, v) ->
      match name with
      | "rtl_settles" -> bump tbl "rtl.settles" (float_of_int v)
      | "rtl_nodes_evaluated" -> bump tbl "rtl.nodes_evaluated" (float_of_int v)
      | _ -> ())
    sn.Hlcs_obs.Obs.sn_extras

let sample_line name xs =
  Printf.sprintf "%-24s n=%-5d p50=%.3f ms  p90=%.3f ms  max=%.3f ms" name (List.length xs)
    (Measure.ms (Measure.median xs))
    (Measure.ms (Measure.percentile 0.9 xs))
    (Measure.ms (List.fold_left max 0. xs))
