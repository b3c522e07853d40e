(* swarm_pin: the verification engineer's loop.  Back-to-back guided swarm
   campaigns, each one Job.Swarm job in pin mode, each with a fresh base
   stimulus seed.  The pool runs one domain: with two, every batch spawns
   two domains and waits for the slower CPU, and on a shared two-CPU host
   run medians drifted by a quarter between sets of runs.  Pin-level fabric, HLIR
   interpreter, monitors, coverage and the pool; no synthesis, no RTL, no
   SAT.

   The watchdog is fixed, not left at the 100 ms default: some glitch
   draws (e.g. draw #2 of fault seed 1, "trdy_n stuck-1 @26+3", stimulus
   seed 2023) never complete, and at the default watchdog one such job
   costs 30-38 s of host time.  20 us of simulated time is 2000 bus
   cycles, about 4.3 times the longest completing job seen when sizing
   the workload (462 cycles over 3200 jobs).  Expiries are counted in the
   traced run, not hidden.

   Some glitch draws crash the pin-level target: a stuck trdy_n lets a
   burst run past the end of the 1024-byte window, Pci_memory raises and
   the pci_target process dies with it.  The pool isolates the crash and
   the campaign records it.  That one known crash is counted, as
   fault.target_crashes, instead of failing the campaign; any other crash
   fails it.  The workload is not re-seeded or resized to avoid it.

   Traced ops replay the campaign's drawn jobs one by one through
   System.pin with the same plans, scripts and monitors — a re-statement
   of Sweep.swarm's pin-mode job, checked by requiring the replayed
   campaign to reproduce the real one's report. *)

module Job = Hlcs.Job
module Sweep = Hlcs.Sweep
module RC = Hlcs_interface.Run_config
module System = Hlcs_interface.System
module Swarm = Hlcs_verify.Swarm
module Coverage = Hlcs_verify.Coverage
module Pci_coverage = Hlcs_verify.Pci_coverage
module Monitor = Hlcs_verify.Monitor
module Fault = Hlcs_fault.Fault
module Pci_stim = Hlcs_pci.Pci_stim
module Pci_target = Hlcs_pci.Pci_target
module Policy = Hlcs_osss.Policy
module Time = Hlcs_engine.Time
module Kernel = Hlcs_engine.Kernel
module Obs = Hlcs_obs.Obs

let budget = 64
let batch = 4
let fault_seed = 1
let count = 12
let mem_bytes = 1024
let domains = 1
let watchdog = Time.us 20
let reference_seed = 2004

let job seed =
  {
    Job.default with
    Job.j_kind =
      Job.Swarm
        {
          budget;
          batch;
          epsilon = Swarm.default_config.Swarm.sw_epsilon;
          guided = true;
          target_ratio = None;
          mode = `Pin;
          fault_seed;
        };
    j_seed = seed;
    j_count = count;
    j_jobs = Some domains;
    j_config = RC.default |> RC.with_mem_bytes mem_bytes |> RC.with_max_time watchdog;
  }

let campaign seed =
  let j = job seed in
  match Job.run j with
  | Ok (Job.Swarm_result (r, _) as o) ->
      ignore (Job.render_json j o : string);
      r
  | Ok _ -> failwith "swarm job returned a non-swarm outcome"
  | Error e -> failwith e

let tallies l = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) l)

(* The known target crash (see the header): a glitch job whose
   pci_target process died.  Job labels are "<seq>-<family>#<index>",
   failure texts the pool's [Printexc.to_string] of the exception. *)
let target_crash_text = Printexc.to_string (Kernel.Process_failure ("pci_target", Exit))

let is_target_crash (label, err) =
  err = target_crash_text
  &&
  match (String.index_opt label '-', String.index_opt label '#') with
  | Some d, Some h when h > d -> String.sub label (d + 1) (h - d - 1) = "glitch"
  | _ -> false

(* the replayed form of the same crash, where the cause is visible *)
let is_target_crash_exn ~family = function
  | Kernel.Process_failure ("pci_target", Invalid_argument m) ->
      List.nth Fault.families family = "glitch"
      && String.starts_with ~prefix:"Pci_memory: address " m
  | _ -> false

(* One campaign op; returns its known target crashes.  A campaign that
   spent less than its budget produced a wrong report.  One whose report
   records any other crashed job is a failed op but not a wrong output:
   the pool isolates the crash and the campaign reports it, as designed. *)
let record_campaign tally (r : Swarm.report) =
  Measure.record tally
    (if r.Swarm.sr_jobs <> budget then
       Some (Printf.sprintf "swarm campaign ran %d of %d jobs" r.Swarm.sr_jobs budget)
     else None);
  let known, other = List.partition is_target_crash r.Swarm.sr_failures in
  if r.Swarm.sr_jobs = budget && other <> [] then
    Measure.fail tally ~incorrect:false
      ("swarm campaign seed " ^ string_of_int r.Swarm.sr_config.Swarm.sw_seed
     ^ " recorded crashed jobs: "
      ^ String.concat "; " (List.map (fun (l, e) -> l ^ ": " ^ e) other));
  List.length known

(* --- replay ------------------------------------------------------------ *)

type replayed = { rp_ms : float; rp_cycles : int; rp_expired : bool; rp_profile : Obs.snapshot option }

(* one drawn job, exactly as Sweep.swarm runs it in pin mode *)
let replay_job spans ~op ~base_seed ~profile log crashes (jb : Swarm.job) =
  let _, plan =
    Fault.family_scenario ~seed:fault_seed ~family:jb.Swarm.jb_family jb.Swarm.jb_index
  in
  let sc_seed = base_seed + (7 * jb.Swarm.jb_index) + jb.Swarm.jb_family in
  let script =
    Pci_stim.write_then_read_all
      (Pci_stim.random ~seed:sc_seed ~count ~base:0 ~size_bytes:mem_bytes ())
  in
  let monitors = System.pci_monitor_specs in
  let rc =
    RC.make ~mem_bytes ~policy:Policy.Fcfs ~target:Pci_target.default_config
      ~max_time:watchdog ~faults:plan ~monitors ~profile ()
  in
  match Spans.with_span spans ~op "interface.pin_job" (fun () -> System.pin rc ~script) with
  | exception e ->
      (* isolated like the pool does it: a failure record, no coverage *)
      if is_target_crash_exn ~family:jb.Swarm.jb_family e then incr crashes;
      {
        Swarm.oc_label = string_of_int jb.Swarm.jb_seq;
        oc_coverage = Coverage.create ();
        oc_verdict = None;
        oc_monitor = [];
        oc_failure = Some (Printexc.to_string e);
      }
  | rr, dt ->
      log :=
        {
          rp_ms = Measure.ms dt;
          rp_cycles = rr.System.rr_cycles;
          rp_expired = Time.compare rr.System.rr_sim_time watchdog >= 0;
          rp_profile = rr.System.rr_profile;
        }
        :: !log;
      let cov = Coverage.create () in
      let fm = Pci_coverage.full_model cov in
      List.iter (Pci_coverage.sample_full fm) rr.System.rr_transactions;
      let mp =
        Coverage.point cov ~name:"monitor"
          ~bins:(List.map (fun (s : Monitor.spec) -> s.Monitor.sp_name) monitors)
      in
      let counts = Hashtbl.create 4 in
      Option.iter
        (fun (m : Monitor.report) ->
          List.iter
            (fun (v : Monitor.violation) ->
              Coverage.hit mp v.Monitor.vl_monitor;
              Hashtbl.replace counts v.Monitor.vl_monitor
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts v.Monitor.vl_monitor)))
            m.Monitor.mr_violations)
        rr.System.rr_monitor;
      {
        Swarm.oc_label = string_of_int jb.Swarm.jb_seq;
        oc_coverage = cov;
        oc_verdict = None;
        oc_monitor = Hashtbl.fold (fun k v l -> (k, v) :: l) counts [] |> List.sort compare;
        oc_failure = None;
      }

let replay spans ~op ~profile seed =
  let log = ref [] and crashes = ref 0 in
  let config =
    {
      Swarm.default_config with
      Swarm.sw_seed = seed;
      sw_budget = budget;
      sw_batch = batch;
      sw_guided = true;
      sw_target_ratio = None;
    }
  in
  let report =
    Swarm.run config ~families:(Sweep.swarm_families ())
      ~run_batch:(List.map (replay_job spans ~op ~base_seed:seed ~profile log crashes))
  in
  (report, List.rev !log, !crashes)

let same_campaign (a : Swarm.report) (b : Swarm.report) =
  let fam (r : Swarm.report) =
    List.map (fun f -> (f.Swarm.fs_name, f.Swarm.fs_jobs)) r.Swarm.sr_families
  in
  if
    a.Swarm.sr_bins = b.Swarm.sr_bins
    && a.Swarm.sr_jobs = b.Swarm.sr_jobs
    && a.Swarm.sr_monitors = b.Swarm.sr_monitors
    && a.Swarm.sr_verdicts = b.Swarm.sr_verdicts
    && List.length a.Swarm.sr_failures = List.length b.Swarm.sr_failures
    && fam a = fam b
  then None
  else Some "replayed campaign differs from the Job.Swarm campaign"

(* --- the workload ------------------------------------------------------ *)

let run (ctx : Workload.ctx) =
  let tally = Measure.tally () in
  (* set-up: the reference campaign (plan universe, coverage model, pool),
     checked against its recorded coverage and tallies *)
  let (), setup_s =
    Workload.setup ctx (fun ~last:_ ->
        let r = campaign reference_seed in
        ignore (record_campaign tally r : int);
        Measure.check tally
          (if r.Swarm.sr_ok && r.Swarm.sr_jobs = budget then None
           else Some "reference campaign did not run clean");
        Workload.expect tally "reference coverage_bins"
          ~recorded:(Workload.golden_int ctx [ "coverage_bins" ])
          r.Swarm.sr_bins;
        Workload.expect_string tally "reference monitor tallies"
          ~recorded:(Workload.golden_string ctx [ "monitor_tallies" ])
          (tallies r.Swarm.sr_monitors);
        Workload.expect_string tally "reference verdict tallies"
          ~recorded:(Workload.golden_string ctx [ "verdict_tallies" ])
          (tallies r.Swarm.sr_verdicts))
  in
  let untraced = ref [] and traced = ref [] and bins = ref [] in
  let jobs_ms = ref [] and busy = ref [] and expiries = ref [] and cycles = ref [] in
  let counts = Hashtbl.create 8 and counted = ref 0 and crashes = ref [] in
  let op i =
    let seed = Measure.op_seed ~seed:ctx.Workload.seed i in
    match ctx.Workload.spans with
    | Some spans when i mod 2 = 1 ->
        let r, dt = Spans.with_span spans ~op:i "core.campaign" (fun () -> campaign seed) in
        let known = record_campaign tally r in
        crashes := float_of_int known :: !crashes;
        traced := dt :: !traced;
        bins := float_of_int r.Swarm.sr_bins :: !bins;
        let profile = i mod 4 = 3 in
        let replay_spans = if profile then Spans.create () else spans in
        let rr, log, replayed_known = replay replay_spans ~op:i ~profile seed in
        Measure.check tally (same_campaign r rr);
        Measure.check tally
          (if replayed_known = known then None
           else
             Some
               (Printf.sprintf "campaign seed %d: %d known target crashes, %d in its replay" seed
                  known replayed_known));
        expiries := float_of_int (List.length (List.filter (fun j -> j.rp_expired) log)) :: !expiries;
        if profile then begin
          incr counted;
          List.iter (fun j -> Option.iter (Workload.add_snapshot counts) j.rp_profile) log
        end
        else begin
          jobs_ms := List.map (fun j -> j.rp_ms) log @ !jobs_ms;
          cycles := List.map (fun j -> float_of_int j.rp_cycles) log @ !cycles;
          busy :=
            (Measure.sum (List.map (fun j -> j.rp_ms) log)
            /. (Measure.ms dt *. float_of_int domains))
            :: !busy
        end
    | _ ->
        let r, dt = Measure.timed (fun () -> campaign seed) in
        crashes := float_of_int (record_campaign tally r) :: !crashes;
        untraced := dt :: !untraced;
        bins := float_of_int r.Swarm.sr_bins :: !bins
  in
  let wall, rss = Workload.closed_loop ctx op in
  let per_campaign v = if !counted = 0 then 0. else v /. float_of_int !counted in
  let pool_busy = Measure.median !busy in
  {
    Workload.tally;
    end_to_end =
      Workload.latency_metrics ~setup_s ~latencies:!untraced ~ops:(List.length !untraced)
        ~wall ~rss;
    per_layer =
      [
        ("core.campaign_ms", Measure.ms (Measure.median !traced));
        ("interface.pin_job_ms", Measure.median !jobs_ms);
        ("runtime.pool_busy_ratio", pool_busy);
        ("trace.accounted_ratio", pool_busy);
        ("fault.watchdog_expiries", Measure.mean !expiries);
        ("fault.target_crashes", Measure.mean !crashes);
        ("coverage_bins", Measure.mean !bins);
        ( "trace.overhead_ms",
          Measure.ms (Measure.median !traced -. Measure.median !untraced) );
      ]
      @ Hashtbl.fold (fun k v l -> (k, per_campaign v /. float_of_int budget) :: l) counts [];
    report =
      [
        Workload.sample_line "campaign (untraced)" !untraced;
        Workload.sample_line "campaign (traced)" !traced;
        Printf.sprintf "replayed jobs: %d, median %.3f ms, median %.0f cycles, watchdog %s"
          (List.length !jobs_ms) (Measure.median !jobs_ms) (Measure.median !cycles)
          (Format.asprintf "%a" Time.pp watchdog);
        Printf.sprintf "coverage bins per campaign: mean %.3f over %d campaigns"
          (Measure.mean !bins) (List.length !bins);
        Printf.sprintf "known pci_target crashes: %.0f jobs in %d campaigns"
          (Measure.sum !crashes) (List.length !crashes);
      ];
  }
