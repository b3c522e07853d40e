(* Strict schema validation for `hlcs_cli swarm --format json`.

   check_json.exe only accepts the syntax; this checker parses the value
   and asserts the campaign contract: the scheduler configuration echo, a
   round ledger whose job counts spend exactly the budget and whose
   cumulative bin counts are consistent, per-family budget accounting that
   adds back up to the jobs run, verdict labels drawn from the fault
   lattice, monitor verdict rows, and a coverage object whose per-point
   bin tables agree with the reported distinct-bin total. *)

open Check_common

(* --- the swarm-campaign schema ----------------------------------------- *)

let as_num ctx name v =
  match number v with
  | Some _ as f -> f
  | None ->
      complain "%s: %S must be a number" ctx name;
      None

let as_ratio ctx name v =
  match as_num ctx name v with
  | Some f when f < 0.0 || f > 1.0 ->
      complain "%s: %S = %g outside [0, 1]" ctx name f;
      Some f
  | r -> r

let int_field ctx obj name =
  match field obj name with
  | Some v -> as_int ctx name v
  | None ->
      complain "%s: missing required field %S" ctx name;
      None

let verdict_labels = [ "clean"; "survived"; "degraded"; "inconsistent" ]

(* hit-bin count of one coverage point: declared bins with hits plus every
   unexpected bin (recorded only when hit) *)
let check_point i pt =
  let ctx = Printf.sprintf "coverage.points[%d]" i in
  require ctx pt "point" (fun v -> ignore (as_string ctx "point" v));
  let count key =
    match field pt key with
    | Some (Json.List bins) ->
        List.fold_left
          (fun acc b ->
            let bctx = Printf.sprintf "%s.%s" ctx key in
            require bctx b "bin" (fun v -> ignore (as_string bctx "bin" v));
            match int_field bctx b "hits" with
            | Some h when h < 0 ->
                complain "%s: negative hit count %d" bctx h;
                acc
            | Some h when h > 0 -> acc + 1
            | Some _ when key = "unexpected" ->
                complain "%s: unexpected bin with zero hits" bctx;
                acc
            | _ -> acc)
          0 bins
    | Some _ ->
        complain "%s: %S must be an array" ctx key;
        0
    | None ->
        complain "%s: missing required field %S" ctx key;
        0
  in
  count "bins" + count "unexpected"

let check_swarm envelope =
  let root = unwrap_envelope ~kind:"swarm" "root" envelope in
  let sw =
    match field root "swarm" with
    | Some (Json.Obj _ as sw) -> sw
    | Some _ ->
        complain "root: \"swarm\" must be an object";
        Json.Obj []
    | None ->
        complain "root: missing required field \"swarm\"";
        Json.Obj []
  in
  let ctx = "swarm" in
  ignore (int_field ctx sw "seed");
  let budget = int_field ctx sw "budget" in
  (match int_field ctx sw "batch" with
  | Some b when b < 1 -> complain "%s: batch %d < 1" ctx b
  | _ -> ());
  require ctx sw "epsilon" (fun v -> ignore (as_ratio ctx "epsilon" v));
  require ctx sw "policy" (fun v ->
      match as_string ctx "policy" v with
      | Some ("guided" | "blind") -> ()
      | Some p -> complain "%s: unknown policy %S" ctx p
      | None -> ());
  let target =
    match field sw "target_ratio" with
    | Some Json.Null -> None
    | Some v -> as_ratio ctx "target_ratio" v
    | None ->
        complain "%s: missing required field \"target_ratio\"" ctx;
        None
  in
  let jobs_run = int_field ctx sw "jobs_run" in
  let bins = int_field ctx sw "distinct_bins" in
  require ctx sw "reached_target" (fun v -> ignore (as_bool ctx "reached_target" v));
  let ok = match field sw "ok" with Some v -> as_bool ctx "ok" v | None -> None in
  (match (jobs_run, budget) with
  | Some j, Some b ->
      if j > b then complain "%s: jobs_run %d exceeds budget %d" ctx j b;
      (* without an early-stop target the whole budget must be spent *)
      if target = None && j <> b then
        complain "%s: no target_ratio but jobs_run %d <> budget %d" ctx j b
  | _ -> ());
  (* round ledger: 1-based consecutive rounds, cumulative bins consistent *)
  require ctx sw "rounds" (function
    | Json.List rounds ->
        let prev_bins = ref 0 and total_jobs = ref 0 in
        List.iteri
          (fun i rd ->
            let rctx = Printf.sprintf "rounds[%d]" i in
            (match int_field rctx rd "round" with
            | Some r when r <> i + 1 -> complain "%s: round %d out of sequence" rctx r
            | _ -> ());
            (match int_field rctx rd "jobs" with
            | Some j when j < 1 -> complain "%s: empty round" rctx
            | Some j -> total_jobs := !total_jobs + j
            | None -> ());
            (match (int_field rctx rd "new_bins", int_field rctx rd "bins") with
            | Some nb, Some b ->
                if b <> !prev_bins + nb then
                  complain "%s: bins %d <> previous %d + new %d" rctx b !prev_bins nb;
                prev_bins := b
            | _ -> ());
            require rctx rd "ratio" (fun v -> ignore (as_ratio rctx "ratio" v)))
          rounds;
        (match jobs_run with
        | Some j when j <> !total_jobs ->
            complain "%s: rounds spend %d jobs but jobs_run is %d" ctx !total_jobs j
        | _ -> ());
        (match bins with
        | Some b when b <> !prev_bins ->
            complain "%s: last round ends at %d bins but distinct_bins is %d" ctx
              !prev_bins b
        | _ -> ())
    | _ -> complain "%s: \"rounds\" must be an array" ctx);
  (* per-family budget spend adds back up to the jobs run *)
  require ctx sw "families" (function
    | Json.List [] -> complain "%s: empty family table" ctx
    | Json.List fams ->
        let spent = ref 0 and credited = ref 0 in
        List.iteri
          (fun i fam ->
            let fctx = Printf.sprintf "families[%d]" i in
            require fctx fam "family" (fun v -> ignore (as_string fctx "family" v));
            require fctx fam "tags" (function
              | Json.List tags ->
                  List.iter (fun t -> ignore (as_string fctx "tag" t)) tags
              | _ -> complain "%s: \"tags\" must be an array" fctx);
            (match int_field fctx fam "jobs" with
            | Some j when j < 0 -> complain "%s: negative job count" fctx
            | Some j -> spent := !spent + j
            | None -> ());
            match int_field fctx fam "new_bins" with
            | Some nb when nb < 0 -> complain "%s: negative new_bins" fctx
            | Some nb -> credited := !credited + nb
            | None -> ())
          fams;
        (match jobs_run with
        | Some j when j <> !spent ->
            complain "%s: families spend %d jobs but jobs_run is %d" ctx !spent j
        | _ -> ());
        (* every first hit of a bin is credited to exactly one family *)
        (match bins with
        | Some b when b <> !credited ->
            complain "%s: families credited %d new bins but distinct_bins is %d"
              ctx !credited b
        | _ -> ())
    | _ -> complain "%s: \"families\" must be an array" ctx);
  (* verdict rows come from the fault lattice *)
  require ctx sw "verdicts" (function
    | Json.List verdicts ->
        let jobs_with = ref 0 in
        List.iteri
          (fun i v ->
            let vctx = Printf.sprintf "verdicts[%d]" i in
            require vctx v "verdict" (fun l ->
                match as_string vctx "verdict" l with
                | Some label when not (List.mem label verdict_labels) ->
                    complain "%s: verdict label %S outside the fault lattice" vctx
                      label
                | _ -> ());
            match int_field vctx v "jobs" with
            | Some j when j < 1 -> complain "%s: verdict row with no jobs" vctx
            | Some j -> jobs_with := !jobs_with + j
            | None -> ())
          verdicts;
        (match jobs_run with
        | Some j when !jobs_with > j ->
            complain "%s: verdict rows cover %d jobs but only %d ran" ctx !jobs_with j
        | _ -> ())
    | _ -> complain "%s: \"verdicts\" must be an array" ctx);
  (* monitor verdicts *)
  require ctx sw "monitors" (function
    | Json.List monitors ->
        List.iteri
          (fun i m ->
            let mctx = Printf.sprintf "monitors[%d]" i in
            require mctx m "monitor" (fun v -> ignore (as_string mctx "monitor" v));
            match int_field mctx m "violations" with
            | Some n when n < 1 ->
                complain "%s: monitor row with no violations" mctx
            | _ -> ())
          monitors
    | _ -> complain "%s: \"monitors\" must be an array" ctx);
  (* failures, and the verdict's agreement with them *)
  require ctx sw "failures" (function
    | Json.List failures ->
        List.iteri
          (fun i f ->
            let fctx = Printf.sprintf "failures[%d]" i in
            require fctx f "job" (fun v -> ignore (as_string fctx "job" v));
            require fctx f "error" (fun v -> ignore (as_string fctx "error" v)))
          failures;
        (match ok with
        | Some ok ->
            if ok <> (failures = []) then
              complain "%s: ok=%b disagrees with %d failure record(s)" ctx ok
                (List.length failures)
        | None -> ())
    | _ -> complain "%s: \"failures\" must be an array" ctx);
  (* the merged coverage model: per-point bin tables whose hit bins add
     back up to the reported distinct-bin total *)
  require ctx sw "coverage" (fun cov ->
      require "coverage" cov "ratio" (fun v -> ignore (as_ratio "coverage" "ratio" v));
      require "coverage" cov "points" (function
        | Json.List points ->
            let names =
              List.filter_map (fun pt -> field pt "point") points
              |> List.filter_map (function Json.String s -> Some s | _ -> None)
            in
            if List.length (List.sort_uniq compare names) <> List.length names
            then complain "coverage: duplicate point names";
            let hit = List.fold_left (fun acc (i, pt) -> acc + check_point i pt) 0
                (List.mapi (fun i pt -> (i, pt)) points)
            in
            (match bins with
            | Some b when b <> hit ->
                complain
                  "coverage: point tables show %d hit bins but distinct_bins is %d"
                  hit b
            | _ -> ())
        | _ -> complain "coverage: \"points\" must be an array"))

let () =
  List.iter (fun path -> with_file path check_swarm) (args ());
  finish ()
