(* The formal engine: the CDCL solver against brute force, the
   bit-blaster + equivalence checker against the simulator, the shipped
   designs proved raw-vs-optimised, and the two seeded inequivalence
   fixtures (a functional miscompilation whose counterexample replays
   through Sim, and an X-strengthening rewrite only the dual-rail
   encoding can catch). *)

module Sat = Hlcs_analysis.Sat
module Blast = Hlcs_analysis.Blast
module Cec = Hlcs_analysis.Cec
module Fixtures = Hlcs_analysis.Fixtures
module Ir = Hlcs_rtl.Ir
module Opt = Hlcs_rtl.Opt
module Sim = Hlcs_rtl.Sim
module Synthesize = Hlcs_synth.Synthesize
module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module S = Hlcs_engine.Signal
module T = Hlcs_engine.Time
module BV = Hlcs_logic.Bitvec

let cst w n = Ir.Const (BV.of_int ~width:w n)

(* ------------------------------------------------------------------ *)
(* SAT units *)

let check_sat_trivial () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.pos b ];
  Sat.add_clause s [ Sat.neg_of a ];
  Alcotest.(check bool) "satisfiable" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "a false" false (Sat.value s a);
  Alcotest.(check bool) "b true" true (Sat.value s b)

let check_sat_empty_clause () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  Sat.add_clause s [ Sat.neg_of a ];
  Alcotest.(check bool) "unit conflict" true (Sat.solve s = Sat.Unsat)

(* pigeonhole: 4 pigeons, 3 holes — unsatisfiable, and small enough that
   the learning machinery actually runs (conflicts > 0) *)
let check_pigeonhole () =
  let s = Sat.create () in
  let pigeons = 4 and holes = 3 in
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for i = 0 to pigeons - 1 do
    Sat.add_clause s (List.init holes (fun j -> Sat.pos v.(i).(j)))
  done;
  for j = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for i' = i + 1 to pigeons - 1 do
        Sat.add_clause s [ Sat.neg_of v.(i).(j); Sat.neg_of v.(i').(j) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat);
  let st = Sat.stats s in
  Alcotest.(check bool) "search happened" true (st.Sat.st_conflicts > 0);
  Alcotest.(check bool) "clauses learned" true (st.Sat.st_learned > 0)

(* random 3-CNF instances against brute-force enumeration; on Sat
   answers the model itself is checked against every clause *)
let random_cnf_vs_bruteforce =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"random 3-CNF: solver == brute force"
       QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 40))
       (fun (seed, nclauses) ->
         let st = Random.State.make [| seed; nclauses |] in
         let nvars = 2 + Random.State.int st 6 in
         let clauses =
           List.init nclauses (fun _ ->
               List.init 3 (fun _ ->
                   let v = Random.State.int st nvars in
                   if Random.State.bool st then Sat.pos v else Sat.neg_of v))
         in
         let sat_lit mask lit =
           let bit = (mask lsr (lit / 2)) land 1 = 1 in
           if lit land 1 = 0 then bit else not bit
         in
         let brute = ref false in
         for mask = 0 to (1 lsl nvars) - 1 do
           if List.for_all (fun c -> List.exists (sat_lit mask) c) clauses then
             brute := true
         done;
         let s = Sat.create () in
         for _ = 1 to nvars do ignore (Sat.new_var s) done;
         List.iter (Sat.add_clause s) clauses;
         match (Sat.solve s, !brute) with
         | Sat.Unsat, false -> true
         | Sat.Unsat, true -> QCheck2.Test.fail_report "solver unsat, brute sat"
         | Sat.Sat, false -> QCheck2.Test.fail_report "solver sat, brute unsat"
         | Sat.Sat, true ->
             (* the model must satisfy every clause *)
             List.for_all
               (fun c ->
                 List.exists
                   (fun lit ->
                     let b = Sat.value s (Sat.var_of_lit lit) in
                     if lit land 1 = 0 then b else not b)
                   c)
               clauses))

(* ------------------------------------------------------------------ *)
(* CEC over hand-built designs *)

(* the wasteful design from test_opt: optimisation collapses it to
   o <= i, and CEC must prove the collapse sound *)
let wasteful () =
  let b = Ir.builder "wasteful" in
  Ir.add_input b "i" 8;
  Ir.add_output b "o" 8;
  let zero = Ir.fresh_wire b "zero" 8 in
  Ir.assign b zero (Ir.Binop (Ir.And, cst 8 0xFF, cst 8 0));
  let copy = Ir.fresh_wire b "copy" 8 in
  Ir.assign b copy (Ir.Input ("i", 8));
  let sum = Ir.fresh_wire b "sum" 8 in
  Ir.assign b sum (Ir.Binop (Ir.Add, Ir.Wire copy, Ir.Wire zero));
  let dead = Ir.fresh_wire b "dead" 8 in
  Ir.assign b dead (Ir.Binop (Ir.Mul, Ir.Wire sum, cst 8 3));
  let muxed = Ir.fresh_wire b "muxed" 8 in
  Ir.assign b muxed (Ir.Mux (cst 1 1, Ir.Wire sum, Ir.Wire dead));
  Ir.drive b "o" (Ir.Wire muxed);
  Ir.finish b

let check_optimize_proved () =
  let d = wasteful () in
  match (Cec.check d (Opt.optimize d)).Cec.rp_verdict with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent cx ->
      Alcotest.fail ("unexpected counterexample: " ^ Cec.counterexample_to_string cx)
  | Cec.Incomparable reasons -> Alcotest.fail (String.concat "; " reasons)

let check_commutation_proved () =
  (* a+b vs b+a: different netlists, same function *)
  let mk flip =
    let b = Ir.builder "comm" in
    Ir.add_input b "a" 8;
    Ir.add_input b "b" 8;
    Ir.add_output b "o" 8;
    let x = Ir.Input ("a", 8) and y = Ir.Input ("b", 8) in
    Ir.drive b "o" (if flip then Ir.Binop (Ir.Add, y, x) else Ir.Binop (Ir.Add, x, y));
    Ir.finish b
  in
  Alcotest.(check bool) "a+b == b+a" true (Cec.equiv (mk false) (mk true) = Cec.Equivalent)

let check_footprint_mismatch () =
  let mk name w =
    let b = Ir.builder name in
    Ir.add_input b "i" w;
    Ir.add_output b "o" w;
    Ir.drive b "o" (Ir.Input ("i", w));
    Ir.finish b
  in
  match Cec.equiv (mk "a" 4) (mk "a" 8) with
  | Cec.Incomparable reasons ->
      Alcotest.(check bool) "reasons given" true (reasons <> [])
  | _ -> Alcotest.fail "differing footprints must be incomparable"

(* ------------------------------------------------------------------ *)
(* the shipped interfaces: raw synthesis vs optimised netlist *)

let synth_pair design =
  let raw =
    Synthesize.synthesize
      ~options:{ Synthesize.default_options with optimize = false }
      design
  in
  (raw.Synthesize.rp_rtl, (Synthesize.synthesize design).Synthesize.rp_rtl)

let check_pci_equivalent () =
  let raw, opt =
    synth_pair
      (Hlcs_interface.Pci_master_design.design
         ~app:(Hlcs_pci.Pci_stim.directed_smoke ~base:0)
         ())
  in
  let r = Cec.check raw opt in
  (match r.Cec.rp_verdict with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent cx ->
      Alcotest.fail ("pci miscompiled: " ^ Cec.counterexample_to_string cx)
  | Cec.Incomparable reasons -> Alcotest.fail (String.concat "; " reasons));
  (* untouched cones must discharge without the solver *)
  Alcotest.(check bool) "some checks structural" true
    (List.exists (fun c -> c.Cec.ck_structural) r.Cec.rp_checks);
  Alcotest.(check bool) "some checks via SAT" true
    (List.exists (fun c -> c.Cec.ck_stats <> None) r.Cec.rp_checks)

(* the other shipped designs: the plain verdict *)
let check_equivalent design () =
  let raw, opt = synth_pair design in
  Alcotest.(check bool) "raw == optimised" true (Cec.equiv raw opt = Cec.Equivalent)

(* ------------------------------------------------------------------ *)
(* the miscompiled fixture: caught, and the counterexample replays *)

let sim_outputs d ~stims =
  (* drive each stimulus (a full input valuation) and read every output *)
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let sim = Sim.elaborate k ~clock:clk d in
  let acc = ref [] in
  let _ =
    K.spawn k (fun () ->
        List.iter
          (fun stim ->
            List.iter (fun (n, v) -> S.write (Sim.in_port sim n) v) stim;
            C.wait_edges clk 2;
            acc :=
              List.map
                (fun (n, _) -> (n, S.read (Sim.out_port sim n)))
                d.Ir.rd_outputs
              :: !acc)
          stims)
  in
  K.run ~max_time:(T.us 10) k;
  List.rev !acc

let check_miscompiled_caught_and_replayed () =
  let reference, netlist = Fixtures.miscompiled_pair () in
  match (Cec.check reference netlist).Cec.rp_verdict with
  | Cec.Equivalent -> Alcotest.fail "miscompilation not caught"
  | Cec.Incomparable reasons -> Alcotest.fail (String.concat "; " reasons)
  | Cec.Inequivalent cx ->
      Alcotest.(check string) "counterexample names the output" "o" cx.Cec.cx_signal;
      (* both sides are X-free, so the predicted values are defined *)
      Alcotest.(check bool) "left defined" true (BV.is_zero cx.Cec.cx_left.Cec.tv_xmask);
      Alcotest.(check bool) "right defined" true
        (BV.is_zero cx.Cec.cx_right.Cec.tv_xmask);
      (* replay the stimulus through the simulator: the divergence must
         reproduce, bit-for-bit as predicted *)
      let replay d =
        match sim_outputs d ~stims:[ cx.Cec.cx_inputs ] with
        | [ outs ] -> List.assoc "o" outs
        | _ -> Alcotest.fail "replay produced no observation"
      in
      let left = replay reference and right = replay netlist in
      Alcotest.(check bool) "simulated divergence" false (BV.equal left right);
      Alcotest.(check bool) "left as predicted" true
        (BV.equal left cx.Cec.cx_left.Cec.tv_bits);
      Alcotest.(check bool) "right as predicted" true
        (BV.equal right cx.Cec.cx_right.Cec.tv_bits)

let check_x_strengthening_flagged () =
  let left, right = Fixtures.x_strengthened_pair () in
  match (Cec.check left right).Cec.rp_verdict with
  | Cec.Inequivalent cx ->
      (* the left side's output is unknown: the xmask must say so *)
      Alcotest.(check bool) "left carries X" false
        (BV.is_zero cx.Cec.cx_left.Cec.tv_xmask);
      Alcotest.(check bool) "right is defined" true
        (BV.is_zero cx.Cec.cx_right.Cec.tv_xmask)
  | Cec.Equivalent -> Alcotest.fail "X-strengthening accepted"
  | Cec.Incomparable reasons -> Alcotest.fail (String.concat "; " reasons)

(* dynamic comparison of the X pair is impossible: the simulator refuses
   to elaborate the unassigned wire at all, so only the dual-rail static
   check can adjudicate the strengthening *)
let check_x_pair_invisible_to_simulation () =
  let left, _ = Fixtures.x_strengthened_pair () in
  match sim_outputs left ~stims:[ [ ("i", BV.of_int ~width:4 0) ] ] with
  | _ -> Alcotest.fail "simulator accepted an unassigned wire"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* verified optimisation *)

let check_optimize_verified_passes () =
  let d = wasteful () in
  let got = Cec.optimize_verified d in
  Alcotest.(check bool) "same result as Opt.optimize" true (got = Opt.optimize d)

let check_verify_pass_reports () =
  let reference, netlist = Fixtures.miscompiled_pair () in
  let findings = Cec.verify_pass ~pass:"share_common" ~before:reference ~after:netlist in
  Alcotest.(check bool) "findings returned" true (findings <> [])

let check_optimize_verify_raises () =
  let d = wasteful () in
  match Opt.optimize ~verify:(fun ~pass:_ ~before:_ ~after:_ -> [ "boom" ]) d with
  | _ -> Alcotest.fail "verification failure not raised"
  | exception Opt.Verification_failed (pass, [ "boom" ]) ->
      Alcotest.(check bool) "pass named" true
        (List.mem_assoc pass Opt.passes)
  | exception Opt.Verification_failed _ -> Alcotest.fail "details lost"

(* ------------------------------------------------------------------ *)
(* the envelope: registers cut into __reg_* inputs / __next_* outputs *)

let check_combinational_envelope () =
  let b = Ir.builder "seq" in
  Ir.add_input b "i" 4;
  Ir.add_output b "o" 4;
  let r = Ir.fresh_reg b "acc" 4 in
  Ir.update b r (Ir.Binop (Ir.Add, Ir.Reg r, Ir.Input ("i", 4)));
  Ir.drive b "o" (Ir.Reg r);
  let d = Ir.finish b in
  let env = Cec.combinational_envelope d in
  Alcotest.(check bool) "no registers left" true (env.Ir.rd_regs = []);
  Alcotest.(check bool) "state input added" true
    (List.mem ("__reg_acc", 4) env.Ir.rd_inputs);
  Alcotest.(check bool) "next-state output added" true
    (List.mem ("__next_acc", 4) env.Ir.rd_outputs);
  Alcotest.(check bool) "still valid" true (Ir.validate env = Ok ());
  (* next state is pure combinational logic of the envelope inputs now:
     __next_acc = __reg_acc + i, checkable by simulation *)
  let stim = [ ("i", BV.of_int ~width:4 5); ("__reg_acc", BV.of_int ~width:4 9) ] in
  match sim_outputs env ~stims:[ stim ] with
  | [ outs ] ->
      Alcotest.(check int) "next state computed" 14
        (BV.to_int (List.assoc "__next_acc" outs))
  | _ -> Alcotest.fail "envelope replay produced no observation"

(* ------------------------------------------------------------------ *)
(* qcheck bridge: on narrow X-free combinational designs, the CEC
   verdict must coincide with exhaustive simulation of both sides *)

let pick st l = List.nth l (Random.State.int st (List.length l))

(* two inputs a(2) b(2), a handful of random X-free wires, one output *)
let narrow_design st name =
  let b = Ir.builder name in
  Ir.add_input b "a" 2;
  Ir.add_input b "b" 2;
  Ir.add_output b "o" 2;
  let leaves = ref [ Ir.Input ("a", 2); Ir.Input ("b", 2); cst 2 (Random.State.int st 4) ] in
  let bools = ref [ cst 1 (Random.State.int st 2) ] in
  let leaf () = pick st !leaves in
  for i = 0 to 2 + Random.State.int st 4 do
    let e =
      match Random.State.int st 6 with
      | 0 -> Ir.Unop (pick st [ Ir.Not; Ir.Neg ], leaf ())
      | 1 ->
          Ir.Binop
            (pick st [ Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor ], leaf (), leaf ())
      | 2 -> Ir.Binop (pick st [ Ir.Shl; Ir.Shr ], leaf (), leaf ())
      | 3 -> Ir.Mux (pick st !bools, leaf (), leaf ())
      | 4 ->
          bools := Ir.Binop (pick st [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Ge ], leaf (), leaf ()) :: !bools;
          Ir.Binop (Ir.Xor, leaf (), leaf ())
      | _ -> Ir.Unop (Ir.Not, leaf ())
    in
    let w = Ir.fresh_wire b (Printf.sprintf "w%d" i) (Ir.expr_width e) in
    Ir.assign b w e;
    leaves := Ir.Wire w :: !leaves
  done;
  Ir.drive b "o" (leaf ());
  Ir.finish b

let all_stims =
  List.concat_map
    (fun a -> List.init 4 (fun b' -> [ ("a", BV.of_int ~width:2 a); ("b", BV.of_int ~width:2 b') ]))
    [ 0; 1; 2; 3 ]

let cec_matches_exhaustive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"narrow designs: CEC verdict == exhaustive simulation"
       QCheck2.Gen.(int_bound 10_000_000)
       (fun seed ->
         let st = Random.State.make [| seed; 77 |] in
         let left = narrow_design st "narrow" in
         let right =
           (* half the time an independent design (likely inequivalent),
              half the time the optimiser's rewrite (always equivalent) *)
           if Random.State.bool st then narrow_design st "narrow"
           else Opt.optimize left
         in
         let sim_agrees =
           sim_outputs left ~stims:all_stims = sim_outputs right ~stims:all_stims
         in
         match Cec.equiv left right with
         | Cec.Equivalent ->
             if sim_agrees then true
             else QCheck2.Test.fail_report "CEC proved equivalent, simulation disagrees"
         | Cec.Inequivalent cx ->
             if sim_agrees then
               QCheck2.Test.fail_reportf
                 "CEC found %s but exhaustive simulation agrees"
                 (Cec.counterexample_to_string cx)
             else true
         | Cec.Incomparable reasons ->
             QCheck2.Test.fail_reportf "incomparable: %s" (String.concat "; " reasons)))

let tests =
  [
    ( "sat",
      [
        Alcotest.test_case "trivial model" `Quick check_sat_trivial;
        Alcotest.test_case "unit conflict" `Quick check_sat_empty_clause;
        Alcotest.test_case "pigeonhole 4/3 unsat" `Quick check_pigeonhole;
        random_cnf_vs_bruteforce;
      ] );
    ( "cec",
      [
        Alcotest.test_case "optimised wasteful design proved" `Quick
          check_optimize_proved;
        Alcotest.test_case "commutation proved" `Quick check_commutation_proved;
        Alcotest.test_case "footprint mismatch reported" `Quick
          check_footprint_mismatch;
        Alcotest.test_case "pci raw == optimised" `Quick check_pci_equivalent;
        Alcotest.test_case "sram raw == optimised" `Quick
          (check_equivalent
             (Hlcs_interface.Sram_master_design.design
                ~app:(Hlcs_pci.Pci_stim.directed_smoke ~base:0)
                ()));
        Alcotest.test_case "dma raw == optimised" `Quick
          (check_equivalent (Hlcs_interface.Dma_design.design ~src:0 ~dst:64 ~words:8 ()));
        Alcotest.test_case "miscompilation caught, counterexample replays" `Quick
          check_miscompiled_caught_and_replayed;
        Alcotest.test_case "X-strengthening flagged" `Quick
          check_x_strengthening_flagged;
        Alcotest.test_case "X pair invisible to simulation" `Quick
          check_x_pair_invisible_to_simulation;
        Alcotest.test_case "optimize_verified passes on sound passes" `Quick
          check_optimize_verified_passes;
        Alcotest.test_case "verify_pass reports the miscompilation" `Quick
          check_verify_pass_reports;
        Alcotest.test_case "optimize ~verify raises on findings" `Quick
          check_optimize_verify_raises;
        Alcotest.test_case "combinational envelope cuts registers" `Quick
          check_combinational_envelope;
        cec_matches_exhaustive;
      ] );
  ]
