(** Cycle-based execution of an {!Ir.design} on the simulation kernel — the
    post-synthesis re-simulation step of the paper's flow.

    On every rising clock edge the simulator samples the input signals,
    settles the combinational network, computes all register updates from
    the pre-edge values, commits them, re-settles, and drives the output
    signals. *)

type t

type engine = [ `Levelized | `Settle ]
(** [`Levelized] (the default, and the only engine the flow uses) runs the
    {!Compile} engine: dense compiled tables, dirty-cone settles, unboxed
    narrow nets.  [`Settle] is the legacy whole-network evaluator, kept as
    the reference the differential tests and the bench guard compare
    against.  Both produce identical signal traffic, VCDs and observer
    callbacks. *)

type observer = { obs_output : port:string -> value:Hlcs_logic.Bitvec.t -> unit }
(** Called whenever a driven output changes value. *)

val no_observer : observer

val elaborate :
  Hlcs_engine.Kernel.t ->
  clock:Hlcs_engine.Clock.t ->
  ?observer:observer ->
  ?engine:engine ->
  Ir.design ->
  t
(** Validates the design and spawns the evaluation process.
    @raise Invalid_argument when {!Ir.validate} fails. *)

val in_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t
val out_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t

val reg_value : t -> string -> Hlcs_logic.Bitvec.t
(** Current value of a register, by name. @raise Not_found. *)

val reg_names : t -> string list
val cycles : t -> int
(** Rising edges executed. *)

val counters : t -> (string * int) list
(** Engine counters in Obs-extras form: [rtl_engine] (0 = settle,
    1 = levelized) followed by the {!Compile.counters} keys.  The legacy
    engine reports under the same keys (every settle evaluates all nodes,
    boxed, so [rtl_nodes_skipped] and [rtl_fast_evals] stay 0). *)
