(* Strict schema validation for `hlcs_cli profile --format json`.

   check_json.exe only accepts the syntax; this checker parses the value
   and asserts the profile contract: a label, an integer simulated time,
   the full kernel counter set as integers, and — for files named after a
   [--rtl] flag — the RTL-engine extras the levelized simulator reports,
   with their internal consistency (fast + wide evaluations account for
   every node evaluation, a levelized run must have settled at least
   once). *)

open Check_common

(* --- the profile schema ------------------------------------------------ *)

(* the kernel counter contract; Obs.counter_fields in rendering order *)
let counter_keys =
  [
    "deltas"; "timesteps"; "activations"; "updates"; "immediate_notifies";
    "delta_notifies"; "timed_notifies"; "signal_writes"; "signal_changes";
    "net_drives"; "net_changes"; "peak_runnable"; "peak_timed";
  ]

(* the RTL-engine extras the simulator attaches to the snapshot;
   rtl_engine tags which evaluator ran (0 settle, 1 levelized) *)
let rtl_keys =
  [
    "rtl_engine"; "rtl_levels"; "rtl_nodes"; "rtl_settles";
    "rtl_nodes_evaluated"; "rtl_nodes_skipped"; "rtl_cone_max";
    "rtl_fast_evals"; "rtl_wide_evals"; "rtl_update_evals";
    "rtl_updates_skipped";
  ]

let int_map ctx name = function
  | Json.Obj members ->
      List.filter_map
        (fun (k, v) ->
          Option.map (fun i -> (k, i)) (as_int ctx (name ^ "." ^ k) v))
        members
  | _ ->
      complain "%s: %S must be an object" ctx name;
      []

let check_profile ~require_rtl ctx envelope =
  let root = unwrap_envelope ~kind:"profile" ctx envelope in
  (match root with Json.Obj _ -> () | _ -> complain "%s: root must be an object" ctx);
  (match field root "label" with
  | Some (Json.String _) -> ()
  | Some _ -> complain "%s: \"label\" must be a string" ctx
  | None -> complain "%s: missing \"label\"" ctx);
  (match field root "sim_time_ps" with
  | Some v -> (
      match as_int ctx "sim_time_ps" v with
      | Some t when t < 0 -> complain "%s: negative sim_time_ps" ctx
      | Some _ | None -> ())
  | None -> complain "%s: missing \"sim_time_ps\"" ctx);
  (match field root "counters" with
  | Some v ->
      let got = int_map ctx "counters" v in
      List.iter
        (fun k ->
          if not (List.mem_assoc k got) then
            complain "%s: counters missing %S" ctx k)
        counter_keys
  | None -> complain "%s: missing \"counters\"" ctx);
  let extras =
    match field root "extras" with
    | Some v -> Some (int_map ctx "extras" v)
    | None -> None
  in
  (* the artefact-provenance counters of the removed code-generating
     engine must not reappear *)
  Option.iter
    (fun ex ->
      List.iter
        (fun k -> if List.mem_assoc k ex then complain "%s: unexpected extra %S" ctx k)
        [ "codegen_cache_hit"; "codegen_compiled" ])
    extras;
  if require_rtl then
    match extras with
    | None -> complain "%s: RTL profile carries no \"extras\"" ctx
    | Some ex ->
        List.iter
          (fun k ->
            if not (List.mem_assoc k ex) then complain "%s: extras missing %S" ctx k)
          rtl_keys;
        let get k = match List.assoc_opt k ex with Some v -> v | None -> 0 in
        if get "rtl_fast_evals" + get "rtl_wide_evals" <> get "rtl_nodes_evaluated"
        then
          complain "%s: fast (%d) + wide (%d) evals do not sum to %d" ctx
            (get "rtl_fast_evals") (get "rtl_wide_evals")
            (get "rtl_nodes_evaluated");
        if get "rtl_levels" < 1 then complain "%s: rtl_levels must be >= 1" ctx;
        if get "rtl_nodes" < 1 then complain "%s: rtl_nodes must be >= 1" ctx;
        let engine = get "rtl_engine" in
        if engine <> 0 && engine <> 1 then
          complain "%s: rtl_engine must be 0 (settle) or 1 (levelized)" ctx;
        if engine = 1 && get "rtl_settles" < 1 then
          complain "%s: incremental engine reports no settles" ctx

(* usage: check_profile_schema.exe [--rtl] FILE...
   [--rtl] marks every following file as an RTL profile that must carry
   the engine extras. *)
let () =
  let require_rtl = ref false in
  List.iter
    (fun arg ->
      if arg = "--rtl" then require_rtl := true
      else with_file arg (check_profile ~require_rtl:!require_rtl arg))
    (args ());
  finish ()
