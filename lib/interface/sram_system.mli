(** Execution of the SRAM configurations — the same experiment as
    {!System} but with the SRAM library element wired to the SRAM device
    instead of the PCI fabric.  Reports reuse {!System.run_report} (bus
    transaction/violation fields stay empty: the SRAM link is
    point-to-point and needs no protocol monitor).

    Both runners take one {!Run_config.t} and honour its memory
    ([rc_mem_bytes], [rc_mem_seed]), [rc_policy], the [rc_max_time]
    watchdog and [rc_profile]; {!rtl} also synthesises through
    {!Run_config.synthesize} ([rc_synth_options], [rc_cache]).  The
    PCI-fabric fields — [rc_target], [rc_faults], [rc_monitors] and
    [rc_vcd_prefix] — do not apply to SRAM runs and are ignored. *)

val pin :
  ?label:string ->
  ?latency:int ->
  Run_config.t ->
  script:Hlcs_pci.Pci_types.request list ->
  System.run_report
(** Behavioural interface + pin-level SRAM device.  [latency] (default 1)
    is the device's read latency in cycles. *)

val rtl :
  ?label:string ->
  ?latency:int ->
  ?engine:Hlcs_rtl.Sim.engine ->
  Run_config.t ->
  script:Hlcs_pci.Pci_types.request list ->
  System.run_report
(** Synthesised interface + pin-level SRAM device.  [engine] picks the
    {!Hlcs_rtl.Sim.engine} (levelized by default).  With [rc_profile], the
    snapshot carries the RTL-engine counters as extras. *)
