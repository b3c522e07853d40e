module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module T = Hlcs_engine.Time

(* each worker counts its calls in an 8-bit local *)
let max_rounds = 255

let design ~policy ~nprocs ~rounds =
  if nprocs < 1 then invalid_arg "Contention_design.design: nprocs must be >= 1";
  if rounds < 1 || rounds > max_rounds then
    invalid_arg
      (Printf.sprintf "Contention_design.design: rounds must be in 1..%d" max_rounds);
  let open Hlcs_hlir.Builder in
  let ctr =
    object_ "ctr" ~policy
      ~fields:[ field_decl "n" 16 ]
      ~methods:
        [ method_ "bump" ~guard:ctrue ~updates:[ ("n", field "n" +: cst ~width:16 1) ] ]
  in
  let worker i =
    process (Printf.sprintf "w%d" i) ~priority:i
      ~locals:[ local "k" 8 ]
      [
        while_ (var "k" <: cst ~width:8 rounds)
          [ call "ctr" "bump" []; set "k" (var "k" +: cst ~width:8 1) ];
        emit (Printf.sprintf "done%d" i) ctrue;
        halt;
      ]
  in
  design "contention"
    ~ports:(List.init nprocs (fun i -> out_port (Printf.sprintf "done%d" i) 1))
    ~objects:[ ctr ]
    ~processes:(List.init nprocs worker)

let rtl_cycles ~policy ~nprocs ~rounds =
  let report = Hlcs_synth.Synthesize.synthesize (design ~policy ~nprocs ~rounds) in
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let sim = Hlcs_rtl.Sim.elaborate k ~clock:clk report.Hlcs_synth.Synthesize.rp_rtl in
  let finished = ref 0 in
  let _ =
    K.spawn k ~name:"watch" (fun () ->
        for i = 0 to nprocs - 1 do
          Hlcs_engine.Signal.wait_value
            (Hlcs_rtl.Sim.out_port sim (Printf.sprintf "done%d" i))
            (Hlcs_logic.Bitvec.of_bool true)
        done;
        finished := C.cycles clk;
        K.request_stop k)
  in
  K.run ~max_time:(T.us 50_000) k;
  if !finished = 0 then failwith "Contention_design.rtl_cycles: the workers did not finish";
  !finished
