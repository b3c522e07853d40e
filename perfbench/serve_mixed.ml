(* serve_mixed: the daemon client's view.  An in-process Serve.serve_unix
   daemon (a system thread of this process, pool width 1) on a socket
   inside the output directory; one client connects once per request and sends submit +
   drain, exactly as `hlcs_cli submit` does.  Requests follow a fixed
   repeating mix of eight small Profile jobs to one equivalence-checked
   Flow job (rc_equiv: SAT-based CEC of the optimised netlist against the
   raw synthesis); every request has its own stimulus seed.

   An op is one small request, from connect to its result event.  In the
   traced run every other mix cycle is followed request by request by
   in-process replays: Job.run + Job.render_json of the same job (the
   payload must be byte-equal), the job codec, the protocol parser, and
   for the equivalence flow the raw synthesis and the CEC proof. *)

module Job = Hlcs.Job
module RC = Hlcs_interface.Run_config
module Pci_master_design = Hlcs_interface.Pci_master_design
module Serve = Hlcs_serve.Serve
module Protocol = Hlcs_serve.Protocol
module Json = Hlcs_json.Json
module Synth_cache = Hlcs_synth.Synth_cache
module Synthesize = Hlcs_synth.Synthesize
module Cec = Hlcs_analysis.Cec
module Sat = Hlcs_analysis.Sat

let count = 12
let mem_bytes = 1024
let reference_seed = 2004

let mix : Job.kind list =
  [
    Job.Profile `Tlm;
    Job.Profile `Pin;
    Job.Profile `Rtl;
    Job.Profile `Sram_pin;
    Job.Profile `Sram_rtl;
    Job.Profile `Tlm;
    Job.Profile `Pin;
    Job.Profile `Rtl;
    Job.Flow;
  ]

let mix_length = List.length mix

let job kind seed =
  let config = RC.default |> RC.with_mem_bytes mem_bytes in
  {
    Job.j_kind = kind;
    j_seed = seed;
    j_count = count;
    j_jobs = Some 1;
    j_deterministic = true;
    j_config = (if kind = Job.Flow then RC.with_equiv true config else config);
  }

(* --- the daemon -------------------------------------------------------- *)

let daemon_config = { Serve.sv_capacity = 64; sv_batch = None; sv_jobs = Some 1 }

let rec connect ~path ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Measure.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      connect ~path ~deadline
  | exception e ->
      Unix.close fd;
      raise e

(* One client connection: send [frames], read events until [stop] accepts
   one (or the stream ends).  Returns the accepted event with its raw
   frame, and the seconds spent encoding, writing and parsing frames on
   the client side. *)
let exchange ~path frames ~stop =
  let fd = connect ~path ~deadline:(Measure.now () +. 10.) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      let t0 = Measure.now () in
      List.iter (Protocol.write_frame oc) (frames ());
      let protocol = ref (Measure.now () -. t0) in
      let rec read () =
        match Protocol.read_frame ic with
        | Ok None | Error _ -> None
        | Ok (Some payload) -> (
            let parsed, dt = Measure.timed (fun () -> Json.parse payload) in
            protocol := !protocol +. dt;
            match parsed with
            | Ok ev when stop ev -> Some (ev, payload)
            | Ok _ | Error _ -> read ())
      in
      let ev = read () in
      (ev, !protocol))

let field name ev = match Json.member name ev with Some v -> v | None -> Json.Null

let submit ~path ~id (j : Job.t) =
  exchange ~path
    (fun () ->
      [
        Protocol.submit_to_string ~id (Job.to_json_value j);
        Protocol.simple_request_to_string `Drain;
      ])
    ~stop:(fun ev ->
      field "id" ev = Json.String id
      && List.mem (field "event" ev) [ Json.String "result"; Json.String "error"; Json.String "rejected" ])

let start_daemon path =
  let d = Thread.create (fun () -> Serve.serve_unix daemon_config ~path) () in
  (* bound once a client gets through *)
  ignore
    (exchange ~path
       (fun () -> [ Protocol.simple_request_to_string `Stats ])
       ~stop:(fun ev -> field "event" ev = Json.String "stats"));
  d

let stop_daemon path d =
  ignore
    (exchange ~path
       (fun () -> [ Protocol.simple_request_to_string `Shutdown ])
       ~stop:(fun ev -> field "event" ev = Json.String "bye"));
  Thread.join d

(* a result event's verdict and payload *)
let result_of ev =
  match ev with
  | None -> Error "no result event"
  | Some (ev, _) -> (
      match (field "event" ev, field "ok" ev, field "payload" ev) with
      | Json.String "result", Json.Bool true, (Json.Obj _ as p) -> Ok p
      | Json.String "result", _, _ ->
          Error ("job failed: " ^ Json.to_string (field "failure" ev))
      | _ -> Error ("no result: " ^ Json.to_string ev))

(* the served payload names the job's kind; an equivalence flow's must
   carry a passed equivalence stage *)
let check_payload (j : Job.t) payload =
  let inner = field "payload" payload in
  if field "kind" payload <> Json.String (Job.kind_name j.Job.j_kind) then
    Some "result payload of the wrong kind"
  else if j.Job.j_kind <> Job.Flow then None
  else
    match Json.list_field "stages" inner with
    | Ok stages
      when List.exists
             (fun st ->
               (match field "name" st with
               | Json.String n -> String.length n >= 11 && String.sub n 0 11 = "equivalence"
               | _ -> false)
               && field "ok" st = Json.Bool true)
             stages ->
        None
    | _ -> Some "equivalence flow without a passed equivalence stage"

let sim_time_ps payload =
  match Json.member "payload" payload with
  | Some p -> ( match Json.int_field "sim_time_ps" p with Ok v -> v | Error _ -> -1)
  | None -> -1

(* --- the workload ------------------------------------------------------ *)

let run (ctx : Workload.ctx) =
  let tally = Measure.tally () in
  Out_dir.ensure ();
  let path = Filename.concat Out_dir.path (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let reference kind what =
    match result_of (fst (submit ~path ~id:("ref-" ^ what) (job kind reference_seed))) with
    | Ok p ->
        Measure.record tally None;
        Workload.expect tally ("reference " ^ what ^ " sim_time_ps")
          ~recorded:(Workload.golden_int ctx [ what ^ "_sim_time_ps" ])
          (sim_time_ps p)
    | Error e -> Measure.record tally (Some ("reference " ^ what ^ ": " ^ e))
  in
  (* set-up: daemon start and bind, first connection, the reference
     requests (the first repetition pays the cold synthesis) *)
  let daemon, setup_s =
    Workload.setup ctx (fun ~last ->
        let d = start_daemon path in
        reference (Job.Profile `Pin) "profile_pin";
        reference (Job.Profile `Rtl) "profile_rtl";
        if last then Some d
        else begin
          stop_daemon path d;
          None
        end)
  in
  let daemon = Option.get daemon in
  let small = ref [] and small_traced = ref [] and equiv = ref [] in
  let overhead = ref [] and protocol = ref [] and codec = ref [] and accounted = ref [] in
  let raw_synth = ref [] and cec = ref [] and aig = ref [] and structural = ref [] in
  let conflicts = ref [] and propagations = ref [] in
  let ops = ref 0 in
  let replay spans ~op (j : Job.t) ~latency ~client_protocol ~frame =
    let span name f = Spans.with_span spans ~op name f in
    let encoded, codec_dt =
      span "json.job_codec" (fun () ->
          let s = Job.to_json j in
          (s, Job.of_json_string s))
    in
    let (), parse_dt =
      span "serve.protocol" (fun () ->
          let s, _ = encoded in
          ignore (Protocol.request_of_string (Protocol.submit_to_string ~id:"x" (Json.parse_exn s))))
    in
    codec := codec_dt :: !codec;
    protocol := (client_protocol +. parse_dt) :: !protocol;
    match j.Job.j_kind with
    | Job.Flow ->
        (* the equivalence stage, replayed layer by layer *)
        let uud = Pci_master_design.design ~app:(Job.script j) () in
        let opt = Synth_cache.synthesize RC.shared_cache uud in
        let raw, raw_dt =
          span "synth.raw_synthesize" (fun () ->
              Synthesize.synthesize
                ~options:{ Synthesize.default_options with Synthesize.optimize = false }
                uud)
        in
        let report, cec_dt =
          span "analysis.cec" (fun () -> Cec.check raw.Synthesize.rp_rtl opt.Synthesize.rp_rtl)
        in
        Measure.check tally
          (if report.Cec.rp_verdict = Cec.Equivalent then None
           else Some "replayed CEC did not prove equivalence");
        let checks = report.Cec.rp_checks in
        let st = Cec.total_stats report in
        raw_synth := raw_dt :: !raw_synth;
        cec := cec_dt :: !cec;
        aig := float_of_int report.Cec.rp_aig_nodes :: !aig;
        structural :=
          (float_of_int (List.length (List.filter (fun c -> c.Cec.ck_structural) checks))
          /. float_of_int (max 1 (List.length checks)))
          :: !structural;
        conflicts := float_of_int st.Sat.st_conflicts :: !conflicts;
        propagations := float_of_int st.Sat.st_propagations :: !propagations
    | Job.Profile which ->
        let rendered, run_dt =
          span "core.job_run_render" (fun () ->
              match Job.run j with Ok o -> Job.render_json j o | Error e -> e)
        in
        Measure.check tally
          (if String.ends_with ~suffix:("\"payload\": " ^ rendered ^ "}") frame then None
           else Some "served payload differs from the in-process render");
        (* the synthesis cache makes an in-process replay of an RTL profile
           cheaper than the served run; only synthesis-free kinds measure
           the daemon's overhead *)
        if which <> `Rtl then overhead := (latency -. run_dt) :: !overhead;
        accounted := ((run_dt +. client_protocol +. parse_dt) /. latency) :: !accounted
    | _ -> ()
  in
  let op i =
    let kind = List.nth mix (i mod mix_length) in
    let cycle = i / mix_length in
    let j = job kind (Measure.op_seed ~seed:ctx.Workload.seed i) in
    let id = Printf.sprintf "r%d" i in
    let (ev, client_protocol), latency = Measure.timed (fun () -> submit ~path ~id j) in
    let traced = match ctx.Workload.spans with Some _ -> cycle mod 2 = 1 | None -> false in
    (match result_of ev with
    | Error e -> Measure.record tally (Some (Printf.sprintf "request %s: %s" id e))
    | Ok payload -> (
        Measure.record tally (check_payload j payload);
        match ctx.Workload.spans with
        | Some spans when traced ->
            replay spans ~op:i j ~latency ~client_protocol ~frame:(snd (Option.get ev))
        | _ -> ()));
    if kind = Job.Flow then equiv := latency :: !equiv
    else begin
      incr ops;
      if traced then small_traced := latency :: !small_traced else small := latency :: !small
    end
  in
  let wall, rss = Workload.closed_loop ctx op in
  stop_daemon path daemon;
  let ms_median l = Measure.ms (Measure.median !l) in
  {
    Workload.tally;
    end_to_end = Workload.latency_metrics ~setup_s ~latencies:!small ~ops:!ops ~wall ~rss;
    per_layer =
      [
        ("equiv_latency_p50_ms", ms_median equiv);
        ("serve.overhead_ms", ms_median overhead);
        ("serve.protocol_ms", ms_median protocol);
        ("json.job_codec_ms", ms_median codec);
        ("synth.raw_synthesize_ms", ms_median raw_synth);
        ("analysis.cec_ms", ms_median cec);
        ("analysis.cec_aig_nodes", Measure.mean !aig);
        ("analysis.cec_structural_ratio", Measure.mean !structural);
        ("analysis.sat_conflicts", Measure.mean !conflicts);
        ("analysis.sat_propagations", Measure.mean !propagations);
        ("trace.accounted_ratio", Measure.median !accounted);
        ( "trace.overhead_ms",
          Measure.ms (Measure.median !small_traced -. Measure.median !small) );
      ];
    report =
      [
        Workload.sample_line "small request (untraced)" !small;
        Workload.sample_line "small request (traced)" !small_traced;
        Workload.sample_line "equiv flow request" !equiv;
      ];
  }
