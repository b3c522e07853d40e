(* flow_revisions: the designer's loop.  One client runs Job.Flow jobs back
   to back on one synthesis cache; every job has a fresh stimulus seed, so
   every job is a new revision of the application process and re-synthesis
   rebuilds exactly that unit.

   Untraced op: Job.run + Job.render_json, as the CLI does it.
   Traced ops (trace run only), interleaved with untraced ones:
   - [Spans]: the calls Flow.execute makes, composed here in its order and
     timed one by one, checked against Flow.execute on the same job, plus
     a testbench-free drive of the same netlist;
   - [Counts]: the same composition with kernel profiling on, for the
     engine/RTL counters (timings of these ops are not used). *)

module Job = Hlcs.Job
module Flow = Hlcs.Flow
module RC = Hlcs_interface.Run_config
module System = Hlcs_interface.System
module Pci_master_design = Hlcs_interface.Pci_master_design
module Synth_cache = Hlcs_synth.Synth_cache
module Synthesize = Hlcs_synth.Synthesize
module Analyze = Hlcs_analysis.Analyze
module Compile = Hlcs_rtl.Compile
module Bitvec = Hlcs_logic.Bitvec

let count = 40
let mem_bytes = 1024
let reference_seed = 2004

let job ~cache seed =
  {
    Job.default with
    Job.j_kind = Job.Flow;
    j_seed = seed;
    j_count = count;
    j_config = RC.default |> RC.with_mem_bytes mem_bytes |> RC.with_cache cache;
  }

let artefacts (r : Flow.report) =
  match r.Flow.fl_artefacts with
  | Some a -> a
  | None -> failwith "flow stopped at static analysis"

(* simulated pin-level + RTL clock cycles of one flow *)
let sim_cycles r =
  let a = artefacts r in
  a.Flow.fl_behavioural.System.rr_cycles + a.Flow.fl_rtl.System.rr_cycles

let untraced_op ~cache seed =
  let j = job ~cache seed in
  let (outcome, _json), dt =
    Measure.timed (fun () ->
        match Job.run j with
        | Ok o -> (o, Job.render_json j o)
        | Error e -> failwith e)
  in
  match outcome with
  | Job.Flow_result r ->
      let verdict =
        match Job.failure outcome with
        | Some f -> Some (Printf.sprintf "flow seed %d: %s" seed f)
        | None -> None
      in
      (dt, verdict, sim_cycles r)
  | _ -> (dt, Some "flow job returned a non-flow outcome", 0)

(* --- the traced composition -------------------------------------------- *)

type composed = {
  c_tlm : System.run_report;
  c_pin : System.run_report;
  c_rtl : System.run_report;
  c_synth : Synthesize.report;
  c_clean : bool;  (** both analyses clean, every comparison empty *)
}

let compose spans ~op (j : Job.t) =
  let span name f = fst (Spans.with_span spans ~op name f) in
  let config = j.Job.j_config in
  let cache = Option.get config.RC.rc_cache in
  let script, uud =
    span "core.prepare" (fun () ->
        let script = Job.script j in
        (script, Pci_master_design.design ?policy:config.RC.rc_policy ~app:script ()))
  in
  let design_diags = span "analysis.design" (fun () -> Analyze.design uud) in
  let tlm = span "interface.tlm" (fun () -> System.tlm config ~script) in
  let pin = span "interface.pin" (fun () -> System.pin config ~script) in
  let synth =
    span "synth.synthesize" (fun () ->
        Synth_cache.synthesize cache ?options:config.RC.rc_synth_options uud)
  in
  let rtl_diags = span "analysis.rtl" (fun () -> Analyze.rtl synth.Synthesize.rp_rtl) in
  let rtl = span "interface.rtl" (fun () -> System.rtl config ~script) in
  let issues =
    span "interface.compare" (fun () ->
        System.compare_runs tlm pin @ System.compare_runs pin rtl
        @ System.compare_bus_traces pin rtl)
  in
  {
    c_tlm = tlm;
    c_pin = pin;
    c_rtl = rtl;
    c_synth = synth;
    c_clean =
      Analyze.clean design_diags && Analyze.clean rtl_diags && issues = []
      && pin.System.rr_violations = [] && rtl.System.rr_violations = [];
  }

(* the composed stages must reproduce Flow.execute's simulated results *)
let check_against_flow c (r : Flow.report) =
  let a = artefacts r in
  let same (x : System.run_report) (y : System.run_report) =
    System.compare_runs x y @ System.compare_bus_traces x y
    @
    if x.System.rr_cycles <> y.System.rr_cycles then [ x.System.rr_label ^ " cycles differ" ]
    else []
  in
  let diffs =
    same c.c_tlm a.Flow.fl_tlm @ same c.c_pin a.Flow.fl_behavioural @ same c.c_rtl a.Flow.fl_rtl
    @ (if c.c_synth.Synthesize.rp_units <> a.Flow.fl_synthesis.Synthesize.rp_units then
         [ "synthesis units differ" ]
       else [])
    @ if c.c_clean <> r.Flow.fl_ok then [ "flow verdict differs" ] else []
  in
  match diffs with
  | [] -> None
  | d -> Some ("composed flow differs from Flow.execute: " ^ String.concat "; " d)

(* Drive the synthesised netlist alone for [cycles] cycles: per cycle one
   pseudo-random input change, settle, clock edge, settle — the same
   evaluator work without the event-driven testbench, PCI fabric and pad
   bridges around it. *)
let netlist_only ~seed ~cycles design =
  let t = Compile.compile design in
  let inputs = Array.of_list design.Hlcs_rtl.Ir.rd_inputs in
  Compile.full_settle t;
  let s = ref seed in
  let next () =
    s := ((!s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    !s lsr 8
  in
  for _ = 1 to cycles do
    if Array.length inputs > 0 then begin
      let k = next () mod Array.length inputs in
      let _, w = inputs.(k) in
      let v = next () land if w >= 40 then 0xFFFFFFFFFF else (1 lsl w) - 1 in
      Compile.set_input t k (Bitvec.of_int ~width:w v)
    end;
    Compile.settle t;
    ignore (Compile.step_registers t : bool);
    Compile.settle t
  done

(* --- accumulators for the traced run ----------------------------------- *)

type acc = {
  mutable untraced : float list;
  mutable traced : float list;  (** op wall of span-traced ops *)
  stage : (string, float list) Hashtbl.t;  (** per-span-name durations, s *)
  mutable rtl_run : float list;
  mutable elaborate : float list;
  mutable netlist_only : float list;
  mutable accounted : float list;
  mutable cycles : int;
  mutable cycle_seconds : float;
  counts : (string, float) Hashtbl.t;  (** summed over [Counts] ops *)
  mutable counted_ops : int;
  mutable minor_mwords : float;
  mutable major_collections : int;
  mutable gc_ops : int;
  mutable rebuilt : int;
  mutable reused : int;
  mutable synth_ops : int;
}

let stage_names =
  [
    "analysis.design";
    "interface.tlm";
    "interface.pin";
    "synth.synthesize";
    "analysis.rtl";
    "interface.rtl";
    "interface.compare";
    "core.render";
  ]

let add_counts acc (c : composed) =
  List.iter
    (fun rr -> Option.iter (Workload.add_snapshot acc.counts) rr.System.rr_profile)
    [ c.c_tlm; c.c_pin; c.c_rtl ];
  acc.counted_ops <- acc.counted_ops + 1

let traced_op acc spans tally ~cache ~op ~profile seed =
  (* profiled ops only feed the counters: their spans are not kept *)
  let spans = if profile then Spans.create () else spans in
  let j = job ~cache seed in
  let j = { j with Job.j_config = RC.with_profile profile j.Job.j_config } in
  let before = Synth_cache.stats cache in
  let (c, dt), gc =
    Measure.with_gc (fun () -> Measure.timed (fun () -> compose spans ~op j))
  in
  let after = Synth_cache.stats cache in
  acc.rebuilt <- acc.rebuilt + after.Synth_cache.units_rebuilt - before.Synth_cache.units_rebuilt;
  acc.reused <- acc.reused + after.Synth_cache.units_reused - before.Synth_cache.units_reused;
  acc.synth_ops <- acc.synth_ops + 1;
  (* the reference run: Flow.execute on the same job, outside the op *)
  let reference = Flow.execute ~config:j.Job.j_config ~script:(Job.script j) () in
  let (_ : string), render_dt =
    Spans.with_span spans ~op "core.render" (fun () ->
        Job.render_json j (Job.Flow_result reference))
  in
  Measure.record tally (check_against_flow c reference);
  if profile then add_counts acc c
  else begin
    let wall = dt +. render_dt in
    acc.traced <- wall :: acc.traced;
    let op_spans = List.filter (fun s -> s.Spans.sp_op = op) spans.Spans.spans in
    List.iter
      (fun s ->
        let l = Option.value ~default:[] (Hashtbl.find_opt acc.stage s.Spans.sp_name) in
        Hashtbl.replace acc.stage s.Spans.sp_name (s.Spans.sp_dur :: l))
      op_spans;
    acc.accounted <-
      (Measure.sum (List.map (fun s -> s.Spans.sp_dur) op_spans) /. wall) :: acc.accounted;
    let run = c.c_rtl.System.rr_wall_seconds in
    acc.rtl_run <- run :: acc.rtl_run;
    (match List.find_opt (fun s -> s.Spans.sp_name = "interface.rtl") op_spans with
    | Some s -> acc.elaborate <- (s.Spans.sp_dur -. run) :: acc.elaborate
    | None -> ());
    let (), nl =
      Spans.with_span spans ~op "rtl.netlist_only" (fun () ->
          netlist_only ~seed ~cycles:c.c_rtl.System.rr_cycles c.c_synth.Synthesize.rp_rtl)
    in
    acc.netlist_only <- nl :: acc.netlist_only;
    acc.minor_mwords <- acc.minor_mwords +. gc.Measure.minor_mwords;
    acc.major_collections <- acc.major_collections + gc.Measure.major_collections;
    acc.gc_ops <- acc.gc_ops + 1
  end

(* --- the workload ------------------------------------------------------ *)

let run (ctx : Workload.ctx) =
  let tally = Measure.tally () in
  (* set-up: a fresh memory-only cache and the reference revision (cold
     synthesis of every unit), checked against its recorded simulation *)
  let cache, setup_s =
    Workload.setup ctx (fun ~last:_ ->
        let cache = Synth_cache.create ~disk:`Memory () in
        let j = job ~cache reference_seed in
        (match Job.run j with
        | Ok (Job.Flow_result r as o) ->
            ignore (Job.render_json j o : string);
            let a = artefacts r in
            Measure.record tally
              (if r.Flow.fl_ok then None else Some "reference flow failed");
            Workload.expect tally "reference tlm cycles"
              ~recorded:(Workload.golden_int ctx [ "tlm_cycles" ])
              a.Flow.fl_tlm.System.rr_cycles;
            Workload.expect tally "reference pin cycles"
              ~recorded:(Workload.golden_int ctx [ "pin_cycles" ])
              a.Flow.fl_behavioural.System.rr_cycles;
            Workload.expect tally "reference rtl cycles"
              ~recorded:(Workload.golden_int ctx [ "rtl_cycles" ])
              a.Flow.fl_rtl.System.rr_cycles;
            Workload.expect tally "reference read-backs"
              ~recorded:(Workload.golden_int ctx [ "read_backs" ])
              (List.length a.Flow.fl_rtl.System.rr_observed)
        | _ -> Measure.record tally (Some "reference flow job did not run"));
        cache)
  in
  let acc =
    {
      untraced = [];
      traced = [];
      stage = Hashtbl.create 16;
      rtl_run = [];
      elaborate = [];
      netlist_only = [];
      accounted = [];
      cycles = 0;
      cycle_seconds = 0.;
      counts = Hashtbl.create 16;
      counted_ops = 0;
      minor_mwords = 0.;
      major_collections = 0;
      gc_ops = 0;
      rebuilt = 0;
      reused = 0;
      synth_ops = 0;
    }
  in
  let op i =
    let seed = Measure.op_seed ~seed:ctx.Workload.seed i in
    match ctx.Workload.spans with
    | Some spans when i mod 3 <> 0 ->
        traced_op acc spans tally ~cache ~op:i ~profile:(i mod 3 = 2) seed
    | _ ->
        let dt, verdict, cycles = untraced_op ~cache seed in
        Measure.record tally verdict;
        acc.untraced <- dt :: acc.untraced;
        acc.cycles <- acc.cycles + cycles;
        acc.cycle_seconds <- acc.cycle_seconds +. dt
  in
  let wall, rss = Workload.closed_loop ctx op in
  let ops = List.length acc.untraced in
  let stage_ms name =
    Measure.ms (Measure.median (Option.value ~default:[] (Hashtbl.find_opt acc.stage name)))
  in
  let per_op n v = if n = 0 then 0. else v /. float_of_int n in
  let per_layer =
    List.map (fun name -> (name ^ "_ms", stage_ms name)) stage_names
    @ [
        ("engine.rtl_run_ms", Measure.ms (Measure.median acc.rtl_run));
        ("rtl.elaborate_ms", Measure.ms (Measure.median acc.elaborate));
        ("rtl.netlist_only_ms", Measure.ms (Measure.median acc.netlist_only));
        ("synth.units_rebuilt", per_op acc.synth_ops (float_of_int acc.rebuilt));
        ("synth.units_reused", per_op acc.synth_ops (float_of_int acc.reused));
        ("gc.minor_mwords", per_op acc.gc_ops acc.minor_mwords);
        ("gc.major_collections", per_op acc.gc_ops (float_of_int acc.major_collections));
        ("trace.accounted_ratio", Measure.median acc.accounted);
        ( "trace.overhead_ms",
          Measure.ms (Measure.median acc.traced -. Measure.median acc.untraced) );
        ( "sim_cycles_per_s",
          if acc.cycle_seconds > 0. then float_of_int acc.cycles /. acc.cycle_seconds else 0. );
      ]
    @ Hashtbl.fold (fun k v l -> (k, per_op acc.counted_ops v) :: l) acc.counts []
  in
  {
    Workload.tally;
    end_to_end =
      Workload.latency_metrics ~setup_s ~latencies:acc.untraced ~ops ~wall ~rss;
    per_layer;
    report =
      [
        Workload.sample_line "flow op (untraced)" acc.untraced;
        Workload.sample_line "flow op (span-traced)" acc.traced;
        Printf.sprintf "simulated pin+rtl cycles %d in %.3f s of untraced ops" acc.cycles
          acc.cycle_seconds;
      ];
  }
