(* Batch campaigns: one Flow.execute (or System.pin) per job, farmed over
   a domain pool, every job configured by its scenario's Run_config.t.

   Job isolation discipline: everything a job touches is created inside
   the job (kernels, clocks, memories, VCD writers on per-job paths); the
   only shared structures are the input scenario array (immutable), the
   synthesis cache (mutex-protected, stores immutable reports) and the
   pool's result slots (one writer each).  That is the entire argument
   for determinism: no job can observe another job's schedule, so the
   domain count is invisible in every artefact.  Fault injection keeps
   the property: every perturbation is a deterministic function of the
   scenario's plan, which lives in the immutable input array. *)

module Pool = Hlcs_runtime.Pool
module Synth_cache = Hlcs_synth.Synth_cache
module Pci_stim = Hlcs_pci.Pci_stim
module Fault = Hlcs_fault.Fault
module Obs = Hlcs_obs.Obs
module System = Hlcs_interface.System
module Run_config = Hlcs_interface.Run_config
module Json = Hlcs_json.Json

type scenario = { sc_name : string; sc_seed : int; sc_config : Run_config.t }

let script ~seed ~count (config : Run_config.t) =
  Pci_stim.write_then_read_all
    (Pci_stim.random ~seed ~count ~base:0 ~size_bytes:config.Run_config.rc_mem_bytes ())

(* A campaign's [rc_vcd_prefix] names a directory: job [name] dumps its
   waveforms under [<dir>/<name>]. *)
let job_config name (config : Run_config.t) =
  match config.Run_config.rc_vcd_prefix with
  | None -> config
  | Some dir -> Run_config.with_vcd_prefix (Filename.concat dir name) config

let ensure_vcd_dir (config : Run_config.t) =
  match config.Run_config.rc_vcd_prefix with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | Some _ | None -> ()

(* fault campaigns and swarms draw their own plan per job *)
let no_faults ~campaign (config : Run_config.t) =
  if not (Fault.is_empty config.Run_config.rc_faults) then
    invalid_arg
      (campaign ^ ": the config sets rc_faults, but the campaign draws its own fault plans")

(* The two sweep axes differ in what they cost downstream.  The request
   script is compiled *into* the unit under design (the application
   process replays it), so varying the stimulus seed varies the design
   and every job pays one synthesis (deduplicated against the flow's
   second synthesis by the cache).  The memory-fill seed is pure
   environment — the design is untouched — so an [`Environment] sweep
   over n jobs hits one cache entry n*2 - 1 times. *)
let scenarios ~vary ~seed ~n (config : Run_config.t) =
  List.init n (fun i ->
      let sc_name = Printf.sprintf "job%02d" i in
      match vary with
      | `Stimuli -> { sc_name; sc_seed = seed + i; sc_config = config }
      | `Environment ->
          {
            sc_name;
            sc_seed = seed;
            sc_config = Run_config.with_mem_seed (config.Run_config.rc_mem_seed + i) config;
          })

(* The fault axis: one design, one environment, [n] seeded fault plans
   from [Fault.scenarios] (slot 0 is always the fault-free control). *)
let fault_scenarios ~fault_seed ~seed ~n config =
  no_faults ~campaign:"Sweep.fault_scenarios" config;
  List.map
    (fun (name, plan) ->
      { sc_name = name; sc_seed = seed; sc_config = Run_config.with_faults plan config })
    (Fault.scenarios ~seed:fault_seed ~n)

type job_report = {
  jb_scenario : scenario;
  jb_ok : bool;
  jb_stages : (string * bool) list;
  jb_wall_seconds : float;
  jb_profile : Obs.snapshot option;
  jb_failure : string option;
  jb_verdict : Fault.verdict option;
}

type report = {
  sw_jobs : job_report list;
  sw_ok : bool;
  sw_domains : int;
  sw_wall_seconds : float;
  sw_cache : Synth_cache.stats option;
  sw_profile : Obs.snapshot option;
}

let failed_jobs r =
  List.filter (fun jb -> (not jb.jb_ok) || jb.jb_failure <> None) r.sw_jobs

let job_snapshots (fr : Flow.report) =
  match fr.Flow.fl_artefacts with
  | None -> []
  | Some a ->
      List.filter_map
        (fun (rr : System.run_report) -> rr.System.rr_profile)
        [ a.Flow.fl_tlm; a.Flow.fl_behavioural; a.Flow.fl_rtl ]

let combine f (a : Synth_cache.stats) (b : Synth_cache.stats) =
  {
    Synth_cache.hits = f a.hits b.hits;
    misses = f a.misses b.misses;
    disk_hits = f a.disk_hits b.disk_hits;
    units_total = f a.units_total b.units_total;
    units_reused = f a.units_reused b.units_reused;
    units_rebuilt = f a.units_rebuilt b.units_rebuilt;
  }

(* [f ()] and the counters it added to [caches], summed; [None] when
   there is no cache to count *)
let counting_lookups caches f =
  let before = List.map Synth_cache.stats caches in
  let result = f () in
  match List.map2 (combine ( - )) (List.map Synth_cache.stats caches) before with
  | [] -> (result, None)
  | d :: ds -> (result, Some (List.fold_left (combine ( + )) d ds))

let run ?jobs ~count scenarios =
  List.iter (fun sc -> ensure_vcd_dir sc.sc_config) scenarios;
  let run_one sc =
    let t0 = Unix.gettimeofday () in
    let config = job_config sc.sc_name sc.sc_config in
    let fr = Flow.execute ~config ~script:(script ~seed:sc.sc_seed ~count config) () in
    let wall = Unix.gettimeofday () -. t0 in
    {
      jb_scenario = sc;
      jb_ok = fr.Flow.fl_ok;
      jb_stages = List.map (fun s -> (s.Flow.sg_name, s.Flow.sg_ok)) fr.Flow.fl_stages;
      jb_wall_seconds = wall;
      jb_profile = Obs.merge_all ~label:sc.sc_name (job_snapshots fr);
      jb_failure = None;
      jb_verdict = fr.Flow.fl_verdict;
    }
  in
  let items = Array.of_list scenarios in
  let domains =
    let requested =
      match jobs with None -> Pool.recommended_jobs () | Some j -> j
    in
    max 1 (min requested (Array.length items))
  in
  let caches =
    List.fold_left
      (fun acc sc ->
        match sc.sc_config.Run_config.rc_cache with
        | Some c when not (List.memq c acc) -> c :: acc
        | Some _ | None -> acc)
      [] scenarios
  in
  let t0 = Unix.gettimeofday () in
  let outcomes, cache_stats =
    counting_lookups caches (fun () -> Pool.map ?jobs run_one items)
  in
  let sweep_wall = Unix.gettimeofday () -. t0 in
  let job_reports =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Pool.Done jb -> jb
           | Pool.Failed f ->
               {
                 jb_scenario = items.(i);
                 jb_ok = false;
                 jb_stages = [];
                 jb_wall_seconds = 0.;
                 jb_profile = None;
                 jb_failure = Some f.Pool.f_exn;
                 jb_verdict = None;
               })
         outcomes)
  in
  let merged =
    Obs.merge_all ~label:"sweep"
      (List.filter_map (fun jb -> jb.jb_profile) job_reports)
  in
  let merged =
    match (merged, cache_stats) with
    | Some sn, Some st ->
        Some
          (Obs.with_extras sn
             [
               ("synth_cache_hits", st.Synth_cache.hits);
               ("synth_cache_misses", st.Synth_cache.misses);
               ("synth_cache_disk_hits", st.Synth_cache.disk_hits);
               ("synth_units_total", st.Synth_cache.units_total);
               ("synth_units_reused", st.Synth_cache.units_reused);
               ("synth_units_rebuilt", st.Synth_cache.units_rebuilt);
             ])
    | other, _ -> other
  in
  {
    sw_jobs = job_reports;
    (* a job with a failure record can never pass the sweep, whatever its
       stage list or the merged snapshot look like *)
    sw_ok =
      List.for_all
        (fun jb -> jb.jb_ok && jb.jb_failure = None)
        job_reports;
    sw_domains = domains;
    sw_wall_seconds = sweep_wall;
    sw_cache = cache_stats;
    sw_profile = merged;
  }

(* --- coverage-guided swarm campaigns ---------------------------------- *)

module Swarm = Hlcs_verify.Swarm
module Coverage = Hlcs_verify.Coverage
module Pci_coverage = Hlcs_verify.Pci_coverage
module Monitor = Hlcs_verify.Monitor

let verdict_bins = [ "clean"; "survived"; "degraded"; "inconsistent" ]

let swarm_families () =
  List.map
    (fun name -> { Swarm.fam_name = name; Swarm.fam_tags = Fault.family_tags name })
    Fault.families

let monitor_counts reports =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (r : Monitor.report) ->
      List.iter
        (fun (v : Monitor.violation) ->
          let c = try Hashtbl.find tbl v.Monitor.vl_monitor with Not_found -> 0 in
          Hashtbl.replace tbl v.Monitor.vl_monitor (c + 1))
        r.Monitor.mr_violations)
    reports;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* One job's coverage snapshot: the crossed PCI transaction plan, the fault
   verdict lattice (flow mode only) and one bin per monitored property.
   Declaring the full shape in every job keeps the merged model's hole list
   meaningful from round one. *)
let swarm_coverage ~monitors ~with_verdict txs verdict mon_reports =
  let cov = Coverage.create () in
  let fm = Pci_coverage.full_model cov in
  List.iter (Pci_coverage.sample_full fm) txs;
  (if with_verdict then begin
     let vp = Coverage.point cov ~name:"verdict" ~bins:verdict_bins in
     match verdict with Some v -> Coverage.hit vp v | None -> ()
   end);
  (match monitors with
  | [] -> ()
  | monitor_specs ->
      let mp =
        Coverage.point cov ~name:"monitor"
          ~bins:(List.map (fun (s : Monitor.spec) -> s.Monitor.sp_name) monitor_specs)
      in
      List.iter
        (fun (r : Monitor.report) ->
          List.iter
            (fun (v : Monitor.violation) -> Coverage.hit mp v.Monitor.vl_monitor)
            r.Monitor.mr_violations)
        mon_reports);
  cov

let swarm ?jobs ~mode ~fault_seed ~count (config : Run_config.t)
    (swarm_config : Swarm.config) =
  no_faults ~campaign:"Sweep.swarm" config;
  ensure_vcd_dir config;
  let stock = List.map (fun (m : Monitor.spec) -> m.Monitor.sp_name) System.pci_monitor_specs in
  let monitors =
    System.pci_monitor_specs
    @ List.filter
        (fun (m : Monitor.spec) -> not (List.mem m.Monitor.sp_name stock))
        config.Run_config.rc_monitors
  in
  let config = Run_config.with_monitors monitors config in
  let label_of (job : Swarm.job) =
    Printf.sprintf "%02d-%s#%d" job.Swarm.jb_seq
      (List.nth Fault.families job.Swarm.jb_family)
      job.Swarm.jb_index
  in
  let run_one (job : Swarm.job) =
    let _, plan =
      Fault.family_scenario ~seed:fault_seed ~family:job.Swarm.jb_family
        job.Swarm.jb_index
    in
    (* the stimulus seed walks with the draw index, so spending more budget
       on one family keeps producing new scripts (and so new crossed bins)
       instead of replaying one trace *)
    let seed =
      swarm_config.Swarm.sw_seed + (7 * job.Swarm.jb_index) + job.Swarm.jb_family
    in
    let rc = job_config (label_of job) (Run_config.with_faults plan config) in
    let script = script ~seed ~count rc in
    match mode with
    | `Pin ->
        let rr = System.pin rc ~script in
        let monr = Option.to_list rr.System.rr_monitor in
        {
          Swarm.oc_label = label_of job;
          Swarm.oc_coverage =
            swarm_coverage ~monitors ~with_verdict:false rr.System.rr_transactions
              None monr;
          Swarm.oc_verdict = None;
          Swarm.oc_monitor = monitor_counts monr;
          Swarm.oc_failure = None;
        }
    | `Flow ->
        let fr = Flow.execute ~config:rc ~script () in
        let txs, monr =
          match fr.Flow.fl_artefacts with
          | Some a ->
              ( a.Flow.fl_behavioural.System.rr_transactions,
                List.filter_map
                  (fun (rr : System.run_report) -> rr.System.rr_monitor)
                  [ a.Flow.fl_behavioural; a.Flow.fl_rtl ] )
          | None -> ([], [])
        in
        (* an empty plan (the baseline family) yields no fault verdict;
           its lattice bin is "clean" *)
        let verdict =
          match fr.Flow.fl_verdict with
          | Some v -> Some (Fault.verdict_label v)
          | None -> Some "clean"
        in
        {
          Swarm.oc_label = label_of job;
          Swarm.oc_coverage =
            swarm_coverage ~monitors ~with_verdict:true txs verdict monr;
          Swarm.oc_verdict = verdict;
          Swarm.oc_monitor = monitor_counts monr;
          Swarm.oc_failure = None;
        }
  in
  let run_batch batch =
    let items = Array.of_list batch in
    Pool.map ?jobs run_one items
    |> Array.to_list
    |> List.mapi (fun i -> function
         | Pool.Done oc -> oc
         | Pool.Failed f ->
             {
               Swarm.oc_label = label_of items.(i);
               Swarm.oc_coverage = Coverage.create ();
               Swarm.oc_verdict = None;
               Swarm.oc_monitor = [];
               Swarm.oc_failure = Some f.Pool.f_exn;
             })
  in
  Swarm.run swarm_config ~families:(swarm_families ()) ~run_batch

(* --- rendering -------------------------------------------------------- *)

let verdict_suffix jb =
  match jb.jb_verdict with
  | None -> ""
  | Some v -> Printf.sprintf "  verdict: %s" (Format.asprintf "%a" Fault.pp_verdict v)

let render_text ~wall r =
  let buf = Buffer.create 1024 in
  (* the domain count is host-execution information, like the wall
     clocks: [wall:false] omits it so the rendering is identical at any
     [--jobs] *)
  Buffer.add_string buf
    (Printf.sprintf "sweep: %s, %d jobs%s\n"
       (if r.sw_ok then "PASS" else "FAIL")
       (List.length r.sw_jobs)
       (if wall then
          Printf.sprintf ", %d domains, %.3fs wall" r.sw_domains r.sw_wall_seconds
        else ""));
  List.iter
    (fun jb ->
      let bad = List.filter (fun (_, ok) -> not ok) jb.jb_stages in
      Buffer.add_string buf
        (Printf.sprintf "  %-16s %s  seed %d/mem %d%s%s%s%s%s\n"
           jb.jb_scenario.sc_name
           (if jb.jb_ok then "ok  " else "FAIL")
           jb.jb_scenario.sc_seed jb.jb_scenario.sc_config.Run_config.rc_mem_seed
           (if wall then Printf.sprintf "  (%.3fs)" jb.jb_wall_seconds else "")
           (if Fault.is_empty jb.jb_scenario.sc_config.Run_config.rc_faults then ""
            else "  faults: " ^ Fault.summary jb.jb_scenario.sc_config.Run_config.rc_faults)
           (verdict_suffix jb)
           (match bad with
           | [] -> ""
           | _ ->
               "  failed stages: "
               ^ String.concat ", " (List.map fst bad))
           (match jb.jb_failure with
           | None -> ""
           | Some e -> "  crashed: " ^ e)))
    r.sw_jobs;
  (match r.sw_cache with
  | None -> Buffer.add_string buf "synthesis cache: disabled\n"
  | Some st ->
      Buffer.add_string buf
        (Printf.sprintf
           "synthesis cache: %d hits, %d misses, %d disk hits; units: %d \
            reused, %d rebuilt\n"
           st.Synth_cache.hits st.Synth_cache.misses st.Synth_cache.disk_hits
           st.Synth_cache.units_reused st.Synth_cache.units_rebuilt));
  (match r.sw_profile with
  | None -> ()
  | Some sn -> Buffer.add_string buf (Obs.render_text ~wall sn));
  Buffer.contents buf

let verdict_json v =
  Printf.sprintf "{\"label\": %s, \"ok\": %b, \"details\": [%s]}"
    (Json.escape_string (Fault.verdict_label v))
    (Fault.verdict_ok v)
    (String.concat ", " (List.map Json.escape_string (Fault.verdict_details v)))

let render_json ~wall r =
  let job jb =
    let fields =
      [
        Printf.sprintf "\"name\": %s" (Json.escape_string jb.jb_scenario.sc_name);
        Printf.sprintf "\"seed\": %d" jb.jb_scenario.sc_seed;
        Printf.sprintf "\"mem_seed\": %d" jb.jb_scenario.sc_config.Run_config.rc_mem_seed;
        Printf.sprintf "\"ok\": %b" jb.jb_ok;
        Printf.sprintf "\"stages\": {%s}"
          (String.concat ", "
             (List.map
                (fun (name, ok) -> Printf.sprintf "%s: %b" (Json.escape_string name) ok)
                jb.jb_stages));
      ]
      @ (if Fault.is_empty jb.jb_scenario.sc_config.Run_config.rc_faults then []
         else
           [
             Printf.sprintf "\"faults\": %s"
               (Json.escape_string (Fault.summary jb.jb_scenario.sc_config.Run_config.rc_faults));
           ])
      @ (match jb.jb_verdict with
        | None -> []
        | Some v -> [ Printf.sprintf "\"verdict\": %s" (verdict_json v) ])
      @ (if wall then
           [ Printf.sprintf "\"wall_seconds\": %.6f" jb.jb_wall_seconds ]
         else [])
      @
      match jb.jb_failure with
      | None -> []
      | Some e -> [ Printf.sprintf "\"failure\": %s" (Json.escape_string e) ]
    in
    "{" ^ String.concat ", " fields ^ "}"
  in
  let fields =
    [
      Printf.sprintf "\"ok\": %b" r.sw_ok;
      Printf.sprintf "\"jobs\": %d" (List.length r.sw_jobs);
    ]
    @ (if wall then
         [
           Printf.sprintf "\"domains\": %d" r.sw_domains;
           Printf.sprintf "\"wall_seconds\": %.6f" r.sw_wall_seconds;
         ]
       else [])
    @ (match r.sw_cache with
      | None -> []
      | Some st ->
          [
            Printf.sprintf
              "\"cache\": {\"hits\": %d, \"misses\": %d, \"disk_hits\": %d, \
               \"units_total\": %d, \"units_reused\": %d, \"units_rebuilt\": \
               %d}"
              st.Synth_cache.hits st.Synth_cache.misses st.Synth_cache.disk_hits
              st.Synth_cache.units_total st.Synth_cache.units_reused
              st.Synth_cache.units_rebuilt;
          ])
    @ [
        Printf.sprintf "\"job_reports\": [%s]"
          (String.concat ", " (List.map job r.sw_jobs));
      ]
    @
    match r.sw_profile with
    | None -> []
    | Some sn -> [ Printf.sprintf "\"profile\": %s" (Obs.render_json ~wall sn) ]
  in
  "{" ^ String.concat ", " fields ^ "}"
