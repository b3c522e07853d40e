module Kernel = Hlcs_engine.Kernel
module Resolved = Hlcs_engine.Resolved
module Clock = Hlcs_engine.Clock
module Logic = Hlcs_logic.Logic
module Lvec = Hlcs_logic.Lvec
module Bitvec = Hlcs_logic.Bitvec

type config = {
  devsel_latency : int;
  wait_states : int;
  retry_every : int option;
  disconnect_after : int option;
  ignore_every : int option;
}

let default_config =
  {
    devsel_latency = 1;
    wait_states = 0;
    retry_every = None;
    disconnect_after = None;
    ignore_every = None;
  }

type t = {
  cfg : config;
  mem : Pci_memory.t;
  mutable claimed : int;
  mutable retried : int;
  mutable ignored : int;
  mutable just_retried : bool;
      (* a retried transaction's re-issue is always accepted, so retry
         injection can never livelock a master *)
  mutable just_ignored : bool;
      (* two consecutive decodes are never both ignored, for the same
         reason *)
}

let lvec_to_int v =
  match Lvec.to_bitvec v with Some bv -> Some (Bitvec.to_int bv) | None -> None

let int_to_lvec ~width n = Lvec.of_bitvec (Bitvec.of_int ~width n)

(* The target is a clocked process: it samples the bus at each rising edge
   and schedules its drives immediately after, so masters observe them at
   the following edge — the standard PCI registered-output discipline. *)
let create kernel ~bus ~memory cfg =
  if cfg.devsel_latency < 1 then invalid_arg "Pci_target: devsel_latency must be >= 1";
  let t =
    { cfg; mem = memory; claimed = 0; retried = 0; ignored = 0;
      just_retried = false; just_ignored = false }
  in
  let d_trdy = Resolved.make_driver bus.Pci_bus.trdy_n "target.trdy"
  and d_devsel = Resolved.make_driver bus.Pci_bus.devsel_n "target.devsel"
  and d_stop = Resolved.make_driver bus.Pci_bus.stop_n "target.stop"
  and d_ad = Resolved.make_driver bus.Pci_bus.ad "target.ad"
  and d_par = Resolved.make_driver bus.Pci_bus.par "target.par" in
  let one = Lvec.of_bitvec (Bitvec.of_int ~width:1 1)
  and zero = Lvec.of_bitvec (Bitvec.of_int ~width:1 0) in
  let in_window addr = addr >= 0 && addr < Pci_memory.size_bytes t.mem in
  let sample net = Pci_bus.asserted net in
  let body () =
    let clk = bus.Pci_bus.clock in
    (* mirrors of what we currently drive *)
    let trdy_low = ref false in
    let driving_ad = ref None in
    let release_all () =
      Resolved.release d_trdy;
      Resolved.release d_devsel;
      Resolved.release d_stop;
      Resolved.release d_ad;
      Resolved.release d_par;
      trdy_low := false;
      driving_ad := None
    in
    let drive_par_for_ad () =
      (* PAR covers AD and C/BE one clock after the data it protects. *)
      match !driving_ad with
      | None -> Resolved.release d_par
      | Some word ->
          let cbe =
            match lvec_to_int (Resolved.read bus.Pci_bus.cbe) with
            | Some v -> v
            | None -> 0
          in
          let p = Pci_types.parity32_4 ~ad:word ~cbe in
          Resolved.drive d_par (if p then one else zero)
    in
    let rec idle () =
      Clock.wait_rising clk;
      let frame = sample bus.Pci_bus.frame_n in
      if frame then begin
        (* address phase *)
        let addr = lvec_to_int (Resolved.read bus.Pci_bus.ad) in
        let cbe = lvec_to_int (Resolved.read bus.Pci_bus.cbe) in
        match (addr, Option.bind cbe Pci_types.command_of_cbe) with
        | Some addr, Some cmd
          when (not (Pci_types.command_is_config cmd)) && in_window addr ->
            t.claimed <- t.claimed + 1;
            let ignore_now =
              (not t.just_ignored)
              &&
              match cfg.ignore_every with
              | Some k -> k > 0 && t.claimed mod k = 0
              | None -> false
            in
            t.just_ignored <- ignore_now;
            if ignore_now then begin
              (* fault injection: stay silent on a transaction we decode;
                 with no DEVSEL# the master times out into a master abort *)
              t.ignored <- t.ignored + 1;
              wait_bus_idle ()
            end
            else begin
              let retry =
                (not t.just_retried)
                &&
                match cfg.retry_every with
                | Some k -> k > 0 && t.claimed mod k = 0
                | None -> false
              in
              t.just_retried <- retry;
              claim addr cmd retry
            end
        | _ ->
            (* not ours: a missing DEVSEL# causes a master abort; skip the
               rest of the transaction before looking for address phases *)
            wait_bus_idle ()
      end
      else idle ()
    and wait_bus_idle () =
      Clock.wait_rising clk;
      if sample bus.Pci_bus.frame_n || sample bus.Pci_bus.irdy_n then wait_bus_idle ()
      else idle ()
    and claim addr cmd retry =
      (* DEVSEL# latency: the address phase edge was consumed by [idle]. *)
      for _ = 2 to cfg.devsel_latency do
        Clock.wait_rising clk
      done;
      Resolved.drive d_devsel zero;
      Resolved.drive d_trdy one;
      Resolved.drive d_stop one;
      if retry then begin
        t.retried <- t.retried + 1;
        Resolved.drive d_stop zero;
        backoff ()
      end
      else begin
        (* Reads need a turnaround cycle: the master stops driving AD after
           the address phase before the target takes the bus over. *)
        if not (Pci_types.command_is_write cmd) then Clock.wait_rising clk;
        data_phases addr cmd 0
      end
    and backoff () =
      (* hold STOP# until the master backs off (FRAME# and IRDY# high) *)
      Clock.wait_rising clk;
      if sample bus.Pci_bus.frame_n || sample bus.Pci_bus.irdy_n then backoff ()
      else begin
        release_all ();
        idle ()
      end
    and data_phases addr cmd done_phases =
      let is_write = Pci_types.command_is_write cmd in
      let disconnect =
        match cfg.disconnect_after with
        | Some n -> done_phases >= n && n >= 0
        | None -> false
      in
      (* wait states: TRDY# withheld *)
      for _ = 1 to cfg.wait_states do
        Resolved.drive d_trdy one;
        Clock.wait_rising clk;
        drive_par_for_ad ()
      done;
      if not is_write then begin
        let word = Pci_memory.read32 t.mem addr in
        Resolved.drive d_ad (int_to_lvec ~width:32 word);
        driving_ad := Some word
      end;
      Resolved.drive d_trdy zero;
      trdy_low := true;
      if disconnect then Resolved.drive d_stop zero;
      wait_transfer addr cmd done_phases disconnect
    and wait_transfer addr cmd done_phases disconnect =
      Clock.wait_rising clk;
      drive_par_for_ad ();
      let irdy = sample bus.Pci_bus.irdy_n in
      let frame = sample bus.Pci_bus.frame_n in
      if not irdy then wait_transfer addr cmd done_phases disconnect
      else begin
        (* transfer happens: both IRDY# and TRDY# were low at this edge *)
        assert !trdy_low;
        if Pci_types.command_is_write cmd then begin
          match
            ( lvec_to_int (Resolved.read bus.Pci_bus.ad),
              lvec_to_int (Resolved.read bus.Pci_bus.cbe) )
          with
          | Some word, Some cbe ->
              let byte_enables = lnot cbe land 0xF in
              Pci_memory.write32_be t.mem addr ~byte_enables word
          | None, _ | Some _, None ->
              () (* undefined data: the monitor reports it *)
        end;
        let last = not frame in
        if last || disconnect then begin
          (* final handshake done: deassert for one cycle, then release *)
          Resolved.drive d_trdy one;
          Resolved.drive d_stop one;
          Resolved.drive d_devsel one;
          Resolved.release d_ad;
          driving_ad := None;
          trdy_low := false;
          Clock.wait_rising clk;
          drive_par_for_ad ();
          if last then begin
            release_all ();
            idle ()
          end
          else backoff ()
        end
        else begin
          Resolved.drive d_trdy one;
          trdy_low := false;
          Resolved.release d_ad;
          driving_ad := None;
          if in_window (addr + 4) then data_phases (addr + 4) cmd (done_phases + 1)
          else past_window ()
        end
      end
    and past_window () =
      (* the master continues a burst past the end of the window:
         disconnect without data (STOP# with TRDY# deasserted) instead of
         touching memory that is not there, so the master's continuation
         at the first outside address ends in a master abort *)
      Resolved.drive d_stop zero;
      Clock.wait_rising clk;
      drive_par_for_ad ();
      backoff ()
    in
    idle ()
  in
  ignore (Kernel.spawn kernel ~name:"pci_target" body);
  t

let memory t = t.mem
let transactions_claimed t = t.claimed
let retries_issued t = t.retried
let aborts_forced t = t.ignored
