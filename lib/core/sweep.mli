(** Multicore batch campaigns over the design flow: scenario sweeps,
    fault campaigns and coverage-guided swarms.

    A sweep runs many independent validation jobs — the paper's complete
    refinement flow ({!Flow.execute}: static analysis, TLM, pin-accurate,
    synthesis, RT-level re-validation) per scenario — across a
    {!Hlcs_runtime.Pool} of domains.  A fault campaign is a sweep over
    seeded {!Hlcs_fault.Fault.plan}s ({!fault_scenarios}), each job
    classified by the flow's fault verdict against the paper's
    equivalence invariant.  A swarm ({!swarm}) spends a job budget across
    the fault families, guided by the coverage each family closes.

    {2 Configuration}

    Every campaign is configured by one {!Hlcs_interface.Run_config.t},
    the record every single run takes; defaults are
    {!Hlcs_interface.Run_config.default}'s.
    Each job runs that config whole (equivalence stage, synthesis
    options, monitors, watchdog, profiling, cache), with these
    campaign-specific rules:

    - [rc_vcd_prefix] names a {e directory} (created if missing); each
      job dumps [<dir>/<job name>_<suffix>.vcd].
    - A sweep applies [rc_faults] to every scenario.  A fault campaign or
      a swarm draws its own plan per job, so {!fault_scenarios} and
      {!swarm} raise [Invalid_argument] on a config whose [rc_faults] is
      not {!Hlcs_fault.Fault.empty}; {!Job.run} reports that as an
      [Error] instead of dropping the plan.
    - A swarm attaches the stock {!Hlcs_interface.System.pci_monitor_specs}
      plus any [rc_monitors] not already among them.
    - Synthesis goes through [rc_cache], exactly as for one flow: a
      shared, private or disk-backed cache, or cold synthesis when there
      is none.  The report's {!report.sw_cache} counts only the
      campaign's own lookups (counters after the campaign minus counters
      before), so a sweep on the warm process-wide cache reports its hits
      rather than the process's history.  Lookups that concurrent
      campaigns make on the same cache are counted too.

    Determinism: jobs are fully isolated (one kernel set per job, one VCD
    file set per job) and results are returned in submission order, so a
    campaign at [--jobs 4] produces byte-identical artefacts and verdicts
    to the same campaign at [--jobs 1]; the regression suite asserts this
    at the VCD-byte level, fault campaigns included (every injection is a
    deterministic function of the scenario's plan). *)

type scenario = {
  sc_name : string;  (** job label; also the VCD file stem *)
  sc_seed : int;  (** stimulus seed ({!script}) *)
  sc_config : Hlcs_interface.Run_config.t;  (** the job's whole run configuration *)
}

val script :
  seed:int -> count:int -> Hlcs_interface.Run_config.t -> Hlcs_pci.Pci_types.request list
(** The request script of one job: [count] seeded random requests over
    the config's [rc_mem_bytes] window ({!Hlcs_pci.Pci_stim.random}),
    each write read back ({!Hlcs_pci.Pci_stim.write_then_read_all}).
    Every job of every campaign, and every single-run {!Job}, simulates
    this script. *)

val scenarios :
  vary:[ `Environment | `Stimuli ] ->
  seed:int ->
  n:int ->
  Hlcs_interface.Run_config.t ->
  scenario list
(** [n] scenarios named [job00], [job01], ... over one configuration.

    [vary] picks the sweep axis.  [`Environment] fixes the request script
    at [seed] and gives job [i] the memory fill seed [rc_mem_seed + i]:
    the unit under design is {e identical} across jobs, so a shared
    synthesis cache reduces the whole sweep to a single synthesis.
    [`Stimuli] gives job [i] the script seed [seed + i] instead — a
    multi-design regression campaign (the application process replays
    the script, so each job carries a different design); the cache then
    deduplicates the flow's two synthesis steps within each job. *)

val fault_scenarios :
  fault_seed:int ->
  seed:int ->
  n:int ->
  Hlcs_interface.Run_config.t ->
  scenario list
(** The fault axis: one design, one environment, the first [n] seeded
    plans of campaign [fault_seed] ({!Hlcs_fault.Fault.scenarios} — slot 0
    is always the fault-free control run), each set as the scenario's
    [rc_faults].  Identical design across jobs, so a shared synthesis
    cache still collapses the campaign to one synthesis.
    @raise Invalid_argument when the config already carries faults. *)

type job_report = {
  jb_scenario : scenario;
  jb_ok : bool;  (** flow verdict; [false] as well when the job crashed *)
  jb_stages : (string * bool) list;  (** flow stage names and verdicts *)
  jb_wall_seconds : float;
  jb_profile : Hlcs_obs.Obs.snapshot option;
      (** per-job merged kernel snapshot (TLM + behavioural + RTL runs),
          [Some] iff the job's config sets [rc_profile] *)
  jb_failure : string option;  (** exception text if the job crashed *)
  jb_verdict : Hlcs_fault.Fault.verdict option;
      (** the flow's fault verdict, [Some] iff the scenario carried a
          non-empty plan (and the job did not crash) *)
}

type report = {
  sw_jobs : job_report list;  (** in submission order *)
  sw_ok : bool;
      (** every job passed {e and} no job carries a failure record *)
  sw_domains : int;  (** domains the pool actually used *)
  sw_wall_seconds : float;  (** whole-sweep wall clock *)
  sw_cache : Hlcs_synth.Synth_cache.stats option;
      (** this sweep's lookups, summed over the distinct caches its
          scenarios name; [None] when no scenario has a cache *)
  sw_profile : Hlcs_obs.Obs.snapshot option;
      (** merge of every job snapshot, with the cache counters attached
          as [synth_cache_hits]/[synth_cache_misses] extras *)
}

val failed_jobs : report -> job_report list
(** Jobs that failed their flow or crashed ([jb_failure] set).  Non-empty
    exactly when [sw_ok] is false; the CLI exits non-zero on it even when
    the merged snapshot rendered fine. *)

val run : ?jobs:int -> count:int -> scenario list -> report
(** Runs one {!Flow.execute} per scenario on its {!script} and config.
    [jobs] is the pool width, default
    {!Hlcs_runtime.Pool.recommended_jobs}.  A crashing job is recorded
    in its [jb_failure] and fails the sweep verdict without aborting the
    other jobs. *)

val render_text : wall:bool -> report -> string
(** Per-job verdict table (fault plans and verdicts included) plus cache
    statistics and, when profiled, the merged snapshot.  [wall:false]
    omits every host-time figure, making the output deterministic for
    fixed scenarios regardless of [jobs] — the CLI's [--deterministic]
    mode and the determinism regression rely on that. *)

val render_json : wall:bool -> report -> string
(** One JSON object: sweep verdict, domain count, per-job records (with
    fault plan summaries and structured verdicts), cache stats, merged
    snapshot.  Strings are escaped by {!Hlcs_json.Json.escape_string}. *)

(** {1 Coverage-guided swarm campaigns}

    A swarm is a different shape of batch job: instead of a fixed scenario
    list it holds a {e budget} of jobs and spends it across the fault
    {e families} of {!Hlcs_fault.Fault.families}, guided by the functional
    coverage each family closes ({!Hlcs_verify.Swarm}).  Per job: one
    seeded plan from the family's scenario slice, one random request
    script, one run of the flow (or of the cheaper pin-accurate
    configuration alone), with the campaign's monitors attached and a
    {!Hlcs_verify.Coverage} model sampling the crossed transaction plan,
    the fault-verdict lattice and the monitor verdicts. *)

val verdict_bins : string list
(** The fault-verdict coverage bins: ["clean"; "survived"; "degraded";
    "inconsistent"].  A job whose plan is empty (the [baseline] family)
    produces no fault verdict and lands in ["clean"]. *)

val swarm_families : unit -> Hlcs_verify.Swarm.family list
(** {!Hlcs_fault.Fault.families} with their coverage-tag hints attached. *)

val swarm :
  ?jobs:int ->
  mode:[ `Flow | `Pin ] ->
  fault_seed:int ->
  count:int ->
  Hlcs_interface.Run_config.t ->
  Hlcs_verify.Swarm.config ->
  Hlcs_verify.Swarm.report
(** Run a swarm campaign.  [mode] picks what each job executes: [`Flow]
    runs the complete refinement flow and covers the verdict lattice;
    [`Pin] runs only the behavioural pin-accurate configuration —
    roughly an order of magnitude cheaper per job, used by the closure
    benchmarks.  [fault_seed] selects the campaign ({!fault_scenarios}'
    axis); job [i] of family [f] simulates the [count]-request {!script}
    of seed [sw_seed + 7i + f], so spending more budget on one family
    keeps producing new scripts.  Jobs are named
    [<seq>-<family>#<index>].  Batches run on the domain pool; outcomes
    are consumed in submission order and the scheduler is
    single-threaded, so a campaign is byte-identical at any [jobs]
    value.
    @raise Invalid_argument when the config already carries faults. *)
