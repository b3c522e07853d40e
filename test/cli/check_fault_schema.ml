(* Strict schema validation for `hlcs_cli fault --format json`.

   check_json.exe only accepts the syntax; this checker parses the value
   and asserts the campaign contract the paper-facing tooling relies on:
   a sweep verdict, a job count that matches the report array, and per
   job a name, seed pair, stage map of booleans, and — whenever a fault
   plan was injected — a structured verdict whose label comes from the
   fault lattice and whose [ok] field agrees with it. *)

open Check_common

(* --- the campaign schema ---------------------------------------------- *)

let verdict_labels = [ "clean"; "survived"; "degraded"; "inconsistent" ]

let check_verdict ctx v =
  (match v with
  | Json.Obj _ -> ()
  | _ -> complain "%s: \"verdict\" must be an object" ctx);
  require ctx v "label" (fun l ->
      match as_string ctx "label" l with
      | Some label ->
          if not (List.mem label verdict_labels) then
            complain "%s: verdict label %S outside the fault lattice" ctx label;
          require ctx v "ok" (fun o ->
              match as_bool ctx "ok" o with
              | Some ok ->
                  if ok = (label = "inconsistent") then
                    complain "%s: verdict ok=%b disagrees with label %S" ctx ok label
              | None -> ())
      | None -> ());
  require ctx v "details" (function
    | Json.List items ->
        List.iteri
          (fun i item ->
            match item with
            | Json.String _ -> ()
            | _ -> complain "%s: verdict detail %d is not a string" ctx i)
          items
    | _ -> complain "%s: verdict \"details\" must be an array" ctx)

let check_job i job =
  let ctx = Printf.sprintf "job_reports[%d]" i in
  (match job with
  | Json.Obj _ -> ()
  | _ -> complain "%s: must be an object" ctx);
  require ctx job "name" (fun v -> ignore (as_string ctx "name" v));
  require ctx job "seed" (fun v -> ignore (as_int ctx "seed" v));
  require ctx job "mem_seed" (fun v -> ignore (as_int ctx "mem_seed" v));
  require ctx job "ok" (fun v -> ignore (as_bool ctx "ok" v));
  require ctx job "stages" (function
    | Json.Obj stages ->
        if stages = [] then complain "%s: empty stage map" ctx;
        List.iter
          (fun (name, v) ->
            match v with
            | Json.Bool _ -> ()
            | _ -> complain "%s: stage %S is not a boolean" ctx name)
          stages
    | _ -> complain "%s: \"stages\" must be an object" ctx);
  optional job "faults" (fun v ->
      ignore (as_string ctx "faults" v);
      (* an injected plan must carry a structured verdict, unless the job
         crashed before the flow could classify it *)
      if field job "verdict" = None && field job "failure" = None then
        complain "%s: fault plan present but no verdict" ctx);
  optional job "verdict" (check_verdict ctx);
  optional job "failure" (fun v -> ignore (as_string ctx "failure" v))

let check_campaign envelope =
  let root = unwrap_envelope ~kind:"fault" "root" envelope in
  (match root with
  | Json.Obj _ -> ()
  | _ -> complain "root: must be an object");
  require "root" root "ok" (fun v -> ignore (as_bool "root" "ok" v));
  let declared = ref None in
  require "root" root "jobs" (fun v -> declared := as_int "root" "jobs" v);
  require "root" root "job_reports" (function
    | Json.List jobs ->
        (match !declared with
        | Some n when n <> List.length jobs ->
            complain "root: \"jobs\" says %d but job_reports has %d" n
              (List.length jobs)
        | _ -> ());
        List.iteri check_job jobs
    | _ -> complain "root: \"job_reports\" must be an array");
  optional root "cache" (fun v ->
      require "cache" v "hits" (fun h -> ignore (as_int "cache" "hits" h));
      require "cache" v "misses" (fun m -> ignore (as_int "cache" "misses" m)))

let () =
  List.iter (fun path -> with_file path check_campaign) (args ());
  finish ()
