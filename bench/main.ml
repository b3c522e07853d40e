(* The experiment tables and the RTL engine guard.

   With no arguments this executable prints the table of every
   figure/experiment of the paper (see DESIGN.md's experiment index);
   these are the EXPERIMENTS.md numbers:

   FIG1  shared-bistable global object (Figure 1)
   FIG3  TLM vs pin-accurate vs post-synthesis simulation speed (Figure 3)
   FIG4  waveform dump of the PCI handler (Figure 4)
   EXP1-3 the three-step validation flow (Section 3)
   EXP2  synthesis results for the PCI interface, with ablations
   FW1   method-call latency vs concurrent callers (the paper's future work)
   EXT2  DMA on the pattern, word-by-word vs burst-buffered
   EXT3  batch validation throughput over the domain pool

   `--guard` is a same-process settle-vs-levelized RTL engine comparison
   that fails if the levelized engine is slower.  Performance is judged by
   the end-to-end benchmark in perfbench/. *)

module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module T = Hlcs_engine.Time
module Go = Hlcs_osss.Global_object
module Policy = Hlcs_osss.Policy
module Bistable = Hlcs_osss.Bistable
open Hlcs_interface
module Synthesize = Hlcs_synth.Synthesize
module Pci_stim = Hlcs_pci.Pci_stim
module Pci_types = Hlcs_pci.Pci_types
module Flow = Hlcs.Flow
module Sweep = Hlcs.Sweep
module Synth_cache = Hlcs_synth.Synth_cache
module Pool = Hlcs_runtime.Pool

let script = Pci_stim.directed_smoke ~base:0
let mem_bytes = 512
let config = Run_config.make ~mem_bytes ()

let random_script =
  Pci_stim.write_then_read_all (Pci_stim.random ~seed:7 ~count:10 ~base:0 ~size_bytes:mem_bytes ())

(* ------------------------------------------------------------------ *)
(* FIG1: the shared bistable                                           *)

let fig1_roundtrips = 200

let run_fig1 () =
  let k = K.create () in
  let b1 = Bistable.create k ~name:"m1.b" and b2 = Bistable.create k ~name:"m2.b" in
  Bistable.connect b1 b2;
  let observed = ref 0 in
  let _ =
    K.spawn k ~name:"m1" (fun () ->
        for _ = 1 to fig1_roundtrips do
          Bistable.set b1;
          Bistable.reset b1
        done)
  in
  let _ =
    K.spawn k ~name:"m2" (fun () ->
        for _ = 1 to fig1_roundtrips do
          Bistable.wait_until_set b2;
          incr observed;
          while Bistable.get_state b2 do
            ()
          done
        done)
  in
  K.run ~max_time:(T.us 1000) k;
  !observed

(* ------------------------------------------------------------------ *)
(* FW1: method-call completion latency vs number of concurrent callers *)

(* behavioural-level wait statistics for the contention workload whose
   RTL cycle count is [Contention_design.rtl_cycles] *)
let fw1_behavioural_wait ~policy ~nprocs ~rounds =
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let o = Go.create k ~name:"ctr" ~policy 0 in
  for i = 1 to nprocs do
    ignore
      (K.spawn k
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           for _ = 1 to rounds do
             Go.call o ~meth:"bump" ~priority:i ~guard:(fun _ -> true) (fun st ->
                 (st + 1, ()));
             C.wait_rising clk
           done))
  done;
  K.run ~max_time:(T.us 10_000) k;
  let calls = max 1 (Go.calls_granted o) in
  (T.to_ps (Go.total_wait o) / calls / 10_000, T.to_ps (Go.max_wait o) / 10_000)

(* ------------------------------------------------------------------ *)
(* EXT3: batch validation throughput (domain pool + synthesis cache)   *)

(* 16 independent end-to-end validations of one design over the
   environment axis (varying target-memory fill), the workload of
   `hlcs_cli sweep`.  Uncached sequential execution is the pre-batch
   baseline: it pays two syntheses per job where the shared cache pays
   one for the whole sweep. *)
let sweep_n = 16

let run_sweep ~jobs ~cache () =
  (* a cached sweep gets a fresh cache: the process-wide shared one is
     warm after the first series and would turn every run into all-hits *)
  let config = Run_config.make ~mem_bytes:512 () in
  let config =
    if cache then Run_config.with_cache (Synth_cache.create ()) config
    else Run_config.without_cache config
  in
  let r =
    Sweep.run ~jobs ~count:12
      (Sweep.scenarios ~vary:`Environment ~seed:2004 ~n:sweep_n config)
  in
  if not r.Sweep.sw_ok then failwith "batch sweep failed";
  r

let batch_configs =
  [
    ("seq_uncached", 1, false);
    ("seq_cached", 1, true);
    ("par2_cached", 2, true);
    ("par4_cached", 4, true);
  ]

(* ------------------------------------------------------------------ *)
(* Experiment tables                                                   *)

let heading title = Printf.printf "\n=== %s ===\n" title

let table_fig1 () =
  heading "FIG1 - Figure 1: shared bistable global object";
  let observed = run_fig1 () in
  Printf.printf
    "two connected bistables, %d set/reset rounds: %d observations via the shared state space -> %s\n"
    fig1_roundtrips observed
    (if observed = fig1_roundtrips then "OK" else "MISMATCH")

let table_fig3 () =
  heading "FIG3 - Figure 3: communication refinement (same application, three interfaces)";
  let a = System.tlm config ~script:random_script in
  let b = System.pin config ~script:random_script in
  let c = System.rtl config ~script:random_script in
  let d = Sram_system.pin config ~script:random_script in
  let e = Sram_system.rtl config ~script:random_script in
  Printf.printf "%-22s %12s %12s %14s %10s\n" "configuration" "cycles" "deltas" "wall (s)"
    "speedup";
  let row (r : System.run_report) =
    Printf.printf "%-22s %12d %12d %14.5f %9.1fx\n" r.System.rr_label r.System.rr_cycles
      r.System.rr_deltas r.System.rr_wall_seconds
      (c.System.rr_wall_seconds /. r.System.rr_wall_seconds)
  in
  List.iter row [ a; b; c; d; e ];
  let consistent =
    System.compare_runs a b = [] && System.compare_runs b c = []
    && System.compare_bus_traces b c = []
    && System.compare_runs a d = [] && System.compare_runs d e = []
  in
  Printf.printf
    "application-level observations consistent across all five configurations: %b\n"
    consistent

let table_fig4 () =
  heading "FIG4 - Figure 4: simulation waveforms of the PCI handler";
  let waves = Run_config.with_vcd_prefix "pci" config in
  let b = System.pin waves ~script in
  let c = System.rtl waves ~script in
  Printf.printf "VCD written: pci_behavioural.vcd (%d bytes), pci_rtl.vcd (%d bytes)\n"
    (Unix.stat "pci_behavioural.vcd").Unix.st_size
    (Unix.stat "pci_rtl.vcd").Unix.st_size;
  Printf.printf "bus transactions (behavioural run):\n";
  List.iter
    (fun tx -> Format.printf "  %a@." Pci_types.pp_transaction tx)
    b.System.rr_transactions;
  Printf.printf "post-synthesis transaction trace identical: %b\n"
    (System.compare_bus_traces b c = []);
  (* the paper's waveform comparison, mechanised *)
  let wave = Hlcs_verify.Wave_diff.compare_files "pci_behavioural.vcd" "pci_rtl.vcd" in
  print_endline "per-signal waveform comparison (value sequences, time-abstracted):";
  Format.printf "%a@." Hlcs_verify.Wave_diff.pp_report wave;
  Printf.printf
    "protocol lines consistent (clk/req/ad differ only by abstraction level): %b\n"
    (Hlcs_verify.Wave_diff.consistent ~ignore:[ "clk"; "req_n_0"; "ad" ] wave)

let table_exp123 () =
  heading "EXP1-3 - the paper's three-step validation flow";
  let report = Flow.execute ~config ~script:random_script () in
  Format.printf "%a@." Flow.pp_report report

let table_ext2_dma () =
  heading
    "EXT2 - DMA on the pattern: word-by-word vs burst-buffered (register-file staging)";
  let words = 16 in
  let run label design =
    let config = Run_config.make ~mem_bytes:1024 () in
    let b = System.pin ~design (Run_config.with_max_time (T.us 4_000) config) ~script:[] in
    let c = System.rtl ~design (Run_config.with_max_time (T.us 16_000) config) ~script:[] in
    let ok = System.compare_runs b c = [] && System.compare_bus_traces b c = [] in
    Printf.printf "%-16s %10d txns %10d cycles (behavioural) %10d cycles (rtl)  consistent=%b\n"
      label
      (List.length b.System.rr_transactions)
      b.System.rr_cycles c.System.rr_cycles ok
  in
  run "word-by-word" (Dma_design.design ~src:0 ~dst:0x100 ~words ());
  run "burst chunk=4" (Dma_design.buffered_design ~src:0 ~dst:0x100 ~words ~chunk:4 ());
  run "burst chunk=8" (Dma_design.buffered_design ~src:0 ~dst:0x100 ~words ~chunk:8 ())

let table_fw1 () =
  heading
    "FW1 - future work: method-call completion time vs concurrent callers (synthesised)";
  let rounds = 16 in
  Printf.printf "%-14s" "callers";
  List.iter (fun n -> Printf.printf "%8d" n) [ 1; 2; 4; 8; 12; 16 ];
  Printf.printf "\n";
  List.iter
    (fun policy ->
      Printf.printf "%-14s" (Policy.to_string policy);
      List.iter
        (fun nprocs ->
          let total = Contention_design.rtl_cycles ~policy ~nprocs ~rounds in
          (* cycles per completed call, across all callers *)
          Printf.printf "%8.1f" (float_of_int total /. float_of_int rounds))
        [ 1; 2; 4; 8; 12; 16 ];
      Printf.printf "   (total cycles / %d rounds)\n" rounds)
    Policy.all;
  Printf.printf "\nbehavioural wait (delta-level, cycles avg/max), fcfs:\n";
  List.iter
    (fun nprocs ->
      let avg, mx = fw1_behavioural_wait ~policy:Policy.Fcfs ~nprocs ~rounds in
      Printf.printf "  %2d callers: avg=%d max=%d\n" nprocs avg mx)
    [ 1; 4; 16 ]

let table_ext3_batch () =
  heading "EXT3 - batch validation throughput (16-job sweep, one design, environment axis)";
  Printf.printf
    "host domains available: %d (with 1, parallel configurations measure pure\nruntime overhead; the determinism suite proves their outputs identical)\n"
    (Pool.recommended_jobs ());
  let base = ref 0. in
  List.iter
    (fun (label, jobs, cache) ->
      let t0 = Unix.gettimeofday () in
      let r = run_sweep ~jobs ~cache () in
      let wall = Unix.gettimeofday () -. t0 in
      if !base = 0. then base := wall;
      Printf.printf "%-14s jobs=%d %9.3f s %7.2fx vs seq_uncached  cache: %s\n" label
        jobs wall (!base /. wall)
        (match r.Sweep.sw_cache with
        | None -> "off"
        | Some st ->
            Printf.sprintf "%d hits / %d misses" st.Synth_cache.hits
              st.Synth_cache.misses))
    batch_configs

let table_exp2_area () =
  heading "EXP2 - synthesis results for the PCI interface (units under design)";
  let d = Pci_master_design.design ~app:script () in
  let chained = Synthesize.synthesize d in
  let unchained =
    Synthesize.synthesize ~options:{ Synthesize.default_options with chaining = false } d
  in
  let raw =
    Synthesize.synthesize ~options:{ Synthesize.default_options with optimize = false } d
  in
  Format.printf "with operator chaining (default):@.%a@." Synthesize.pp_report chained;
  Format.printf "one assignment per state (ablation):@.%a@." Synthesize.pp_report
    unchained;
  Format.printf "netlist clean-up passes disabled (ablation):@.%a@." Synthesize.pp_report
    raw

(* ------------------------------------------------------------------ *)
(* --guard                                                            *)

let measure ~repeat f =
  ignore (f ());
  (* warm-up: fills minor heap, loads code paths.  Compacting afterwards
     gives every series the same heap shape regardless of what ran before
     it in the same process — without it the min of a short series can
     carry another series' major-GC debt. *)
  Gc.compact ();
  let runs =
    Array.init repeat (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  Array.fold_left min runs.(0) runs

(* --guard: a cheap same-process regression tripwire for the RTL engine
   — the levelized engine and the legacy whole-network settle reference
   run from the same binary, interleaved, over the RTL series, and the
   run fails if the levelized engine is ever slower than settle.
   Same-process comparison avoids cross-binary noise. *)
let guard_series : (string * (Hlcs_rtl.Sim.engine -> System.run_report)) list =
  [
    ( "fig3/pin_rtl",
      fun engine -> System.rtl ~engine config ~script:random_script );
    ( "fig3/sram_rtl",
      fun engine -> Sram_system.rtl ~engine config ~script:random_script );
  ]

let run_guard () =
  let repeat = 5 and rounds = 3 in
  let failed = ref false in
  List.iter
    (fun (name, f) ->
      let settle = ref infinity and levelized = ref infinity in
      for _ = 1 to rounds do
        let s = measure ~repeat (fun () -> f `Settle) in
        settle := min !settle s;
        let l = measure ~repeat (fun () -> f `Levelized) in
        levelized := min !levelized l
      done;
      let verdict = if !levelized <= !settle then "ok" else "FAIL" in
      if verdict = "FAIL" then failed := true;
      Printf.printf "guard %-16s settle %8.3f ms  levelized %8.3f ms (%4.2fx)  %s\n%!"
        name (!settle *. 1e3) (!levelized *. 1e3)
        (!settle /. !levelized)
        verdict)
    guard_series;
  if !failed then begin
    print_endline "guard: the levelized engine regressed against settle on some series";
    exit 1
  end;
  print_endline "guard: levelized engine no slower than settle on every RTL series"

let () =
  let guard = ref false in
  Arg.parse
    [
      ( "--guard",
        Arg.Set guard,
        " same-process settle-vs-levelized RTL engine comparison; fails if slower" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hlcs experiment tables (no arguments) and RTL engine guard";
  if !guard then run_guard ()
  else begin
    Printf.printf
      "hlcs benchmark & experiment harness - reproduction of Bruschi & Bombana, DATE 2004\n";
    table_fig1 ();
    table_fig3 ();
    table_fig4 ();
    table_exp2_area ();
    table_exp123 ();
    table_fw1 ();
    table_ext2_dma ();
    table_ext3_batch ()
  end
