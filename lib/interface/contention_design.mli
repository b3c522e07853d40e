(** The FW1 workload (the paper's future work): method-call completion
    time against the number of concurrent callers.

    [nprocs] worker processes each make [rounds] back-to-back calls of
    [bump] on one shared counter object.  The synthesised server grants at
    most one call per cycle, so a call's completion time grows with the
    number of contenders.  Worker [i] raises its [done<i>] port when its
    last call has completed. *)

val max_rounds : int
(** The largest [rounds] a worker can count to: 255, as each worker
    counts its calls in an 8-bit local. *)

val design :
  policy:Hlcs_osss.Policy.t -> nprocs:int -> rounds:int -> Hlcs_hlir.Ast.design
(** @raise Invalid_argument if [nprocs < 1] or [rounds] is not in
    [1, max_rounds]. *)

val rtl_cycles : policy:Hlcs_osss.Policy.t -> nprocs:int -> rounds:int -> int
(** Synthesise {!design} and simulate the RTL on a 10 ns clock: the clock
    cycles until every worker has raised its [done] port.
    @raise Invalid_argument as {!design}.
    @raise Failure if the workers have not all finished within 50 ms of
    simulated time. *)
