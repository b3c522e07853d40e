(** A pin-accurate PCI target device (memory-mapped RAM): one of the
    "memories, peripherals" IP models of the paper's executable system
    model.  The target claims addresses inside its window — [0] up to the
    size of its memory, which is indexed by the bus address — inserts a
    configurable DEVSEL# latency and per-data-phase wait states, supports
    bursts with linear address increment, and can be configured to answer
    with Retry or to Disconnect long bursts — the fault-injection knobs the
    test suite uses. *)

type config = {
  devsel_latency : int;  (** cycles from address phase to DEVSEL#, >= 1 *)
  wait_states : int;  (** cycles TRDY# is withheld per data phase *)
  retry_every : int option;
      (** [Some k]: answer every k-th transaction with Retry first *)
  disconnect_after : int option;
      (** [Some n]: disconnect bursts after n data phases *)
  ignore_every : int option;
      (** [Some k]: stay silent on every k-th decoded transaction (no
          DEVSEL#), forcing the master into a master abort — the
          interface-level fault {!Hlcs_fault} campaigns inject.  Two
          consecutive transactions are never both ignored. *)
}

val default_config : config
(** fast DEVSEL# (1 cycle), no wait states, no retry/disconnect. *)

type t

val create :
  Hlcs_engine.Kernel.t -> bus:Pci_bus.t -> memory:Pci_memory.t -> config -> t
(** Spawns the target process on the bus. *)

val memory : t -> Pci_memory.t
val transactions_claimed : t -> int
val retries_issued : t -> int

val aborts_forced : t -> int
(** Decoded transactions deliberately left unclaimed under [ignore_every]. *)
