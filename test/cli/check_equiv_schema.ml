(* Strict schema validation for `hlcs_cli equiv --format json`.

   check_json.exe only accepts the syntax; this checker parses the value
   and asserts the equivalence-report contract: a top-level array, one
   object per design, each carrying the verdict, the AIG size, the check
   counts (structural + SAT-backed must account for every check), the
   summed solver statistics, a counterexample that is null exactly when
   the verdict is "equivalent", and diagnostics whose category is
   "equiv" with counts that agree with the severity histogram. *)

open Check_common

(* --- the equivalence-report schema ------------------------------------- *)

(* shadows [Check_common.as_int]: a missing field is a complaint here *)
let as_int ctx name v =
  match Option.map integer v with
  | Some (Some i) when i >= 0 -> i
  | Some _ ->
      complain "%s: %S must be a non-negative integer" ctx name;
      0
  | None ->
      complain "%s: missing %S" ctx name;
      0

let as_str ctx name = function
  | Some (Json.String s) -> s
  | Some _ ->
      complain "%s: %S must be a string" ctx name;
      ""
  | None ->
      complain "%s: missing %S" ctx name;
      ""

let stats_keys =
  [
    "vars"; "clauses"; "learned"; "conflicts"; "decisions"; "propagations";
    "restarts";
  ]

let check_pins ctx name = function
  | Some (Json.List pins) ->
      List.iter
        (fun pin ->
          ignore (as_str ctx (name ^ ".name") (field pin "name"));
          ignore (as_str ctx (name ^ ".value") (field pin "value")))
        pins
  | Some _ -> complain "%s: %S must be an array" ctx name
  | None -> complain "%s: missing %S" ctx name

let check_diag ctx d =
  let category = as_str ctx "diagnostics[].category" (field d "category") in
  if category <> "equiv" then
    complain "%s: diagnostic category %S is not \"equiv\"" ctx category;
  let sev = as_str ctx "diagnostics[].severity" (field d "severity") in
  if not (List.mem sev [ "error"; "warning"; "info" ]) then
    complain "%s: bad severity %S" ctx sev;
  ignore (as_str ctx "diagnostics[].rule" (field d "rule"));
  ignore (as_str ctx "diagnostics[].message" (field d "message"));
  sev

let check_entry entry =
  let ctx = as_str "report" "design" (field entry "design") in
  let ctx = if ctx = "" then "<unnamed>" else ctx in
  let verdict = as_str ctx "verdict" (field entry "verdict") in
  if not (List.mem verdict [ "equivalent"; "inequivalent"; "incomparable" ]) then
    complain "%s: bad verdict %S" ctx verdict;
  ignore (as_int ctx "aig_nodes" (field entry "aig_nodes"));
  (match field entry "checks" with
  | Some checks ->
      let total = as_int ctx "checks.total" (field checks "total") in
      let structural = as_int ctx "checks.structural" (field checks "structural") in
      let sat = as_int ctx "checks.sat" (field checks "sat") in
      if structural + sat <> total then
        complain "%s: structural (%d) + sat (%d) checks do not sum to %d" ctx
          structural sat total
  | None -> complain "%s: missing \"checks\"" ctx);
  (match field entry "stats" with
  | Some stats ->
      List.iter
        (fun k -> ignore (as_int ctx ("stats." ^ k) (field stats k)))
        stats_keys
  | None -> complain "%s: missing \"stats\"" ctx);
  (match (field entry "counterexample", verdict) with
  | Some Json.Null, "inequivalent" ->
      complain "%s: inequivalent verdict without a counterexample" ctx
  | Some cx, "inequivalent" ->
      ignore (as_str ctx "counterexample.signal" (field cx "signal"));
      ignore (as_str ctx "counterexample.left" (field cx "left"));
      ignore (as_str ctx "counterexample.right" (field cx "right"));
      check_pins ctx "counterexample.inputs" (field cx "inputs");
      check_pins ctx "counterexample.regs" (field cx "regs")
  | Some Json.Null, _ -> ()
  | Some _, _ -> complain "%s: counterexample on a %s verdict" ctx verdict
  | None, _ -> complain "%s: missing \"counterexample\"" ctx);
  let sevs =
    match field entry "diagnostics" with
    | Some (Json.List diags) -> List.map (check_diag ctx) diags
    | Some _ ->
        complain "%s: \"diagnostics\" must be an array" ctx;
        []
    | None ->
        complain "%s: missing \"diagnostics\"" ctx;
        []
  in
  (match field entry "counts" with
  | Some counts ->
      let expect name sev =
        let got = as_int ctx ("counts." ^ name) (field counts name) in
        let want = List.length (List.filter (( = ) sev) sevs) in
        if got <> want then
          complain "%s: counts.%s = %d but %d %s diagnostic(s) present" ctx name
            got want sev
      in
      expect "errors" "error";
      expect "warnings" "warning";
      expect "infos" "info"
  | None -> complain "%s: missing \"counts\"" ctx);
  (* verdict/diagnostic coherence *)
  match verdict with
  | "equivalent" ->
      if List.mem "error" sevs then
        complain "%s: equivalent verdict with error diagnostics" ctx
  | "inequivalent" | "incomparable" ->
      if not (List.mem "error" sevs) then
        complain "%s: %s verdict without an error diagnostic" ctx verdict
  | _ -> ()

let () =
  List.iter
    (fun path ->
      with_file path (function
        | Json.List entries -> List.iter check_entry entries
        | _ -> complain "%s: root must be an array" path))
    (args ());
  finish ()
