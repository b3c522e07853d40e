(* Strict schema validation for `hlcs_cli profile --format json`.

   check_json.exe only accepts the syntax; this checker parses the value
   and asserts the profile contract: a label, an integer simulated time,
   the full kernel counter set as integers, and — for files named after a
   [--rtl] flag — the RTL-engine extras the levelized simulator reports,
   with their internal consistency (fast + wide evaluations account for
   every node evaluation, a levelized run must have settled at least
   once).  No external JSON library is assumed; the parser mirrors
   check_fault_schema.ml. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s (at byte %d)" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'u' ->
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' as c) -> code := (!code * 16) + (Char.code c - 48)
                | Some ('a' .. 'f' as c) -> code := (!code * 16) + (Char.code c - 87)
                | Some ('A' .. 'F' as c) -> code := (!code * 16) + (Char.code c - 55)
                | _ -> fail "bad \\u escape");
                advance ()
              done;
              Buffer.add_char buf (Char.chr (!code land 0x7f));
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let member () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          advance ();
          true
      | _ -> false
    in
    while member () do () done;
    if !pos = start then fail "expected a number";
    float_of_string (String.sub s start (!pos - start))
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let key = string_ () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (string_ ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number () |> fun f -> Num f
    | _ -> fail "expected a JSON value"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after JSON value";
  v

(* --- the profile schema ------------------------------------------------ *)

let errors = ref []
let complain fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let field obj name =
  match obj with Obj members -> List.assoc_opt name members | _ -> None

let as_int ctx name = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ ->
      complain "%s: %S must be an integer" ctx name;
      None

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
  | Obj members ->
      List.filter_map
        (fun (k, v) ->
          Option.map (fun i -> (k, i)) (as_int ctx (name ^ "." ^ k) v))
        members
  | _ ->
      complain "%s: %S must be an object" ctx name;
      []

(* every CLI JSON report ships inside the versioned envelope
   {"schema_version": N, "kind": K, "payload": ...}; peel it (and check
   the tags) before validating the payload proper *)
let unwrap_envelope ~kind ctx root =
  (match field root "schema_version" with
  | Some (Num f) when Float.is_integer f && f >= 1.0 -> ()
  | Some _ -> complain "%s: \"schema_version\" must be a positive integer" ctx
  | None -> complain "%s: missing \"schema_version\"" ctx);
  (match field root "kind" with
  | Some (Str k) when k = kind -> ()
  | Some (Str k) -> complain "%s: kind %S, expected %S" ctx k kind
  | Some _ -> complain "%s: \"kind\" must be a string" ctx
  | None -> complain "%s: missing \"kind\"" ctx);
  match field root "payload" with
  | Some payload -> payload
  | None ->
      complain "%s: missing \"payload\"" ctx;
      Obj []

let check_profile ~require_rtl ctx envelope =
  let root = unwrap_envelope ~kind:"profile" ctx envelope in
  (match root with Obj _ -> () | _ -> complain "%s: root must be an object" ctx);
  (match field root "label" with
  | Some (Str _) -> ()
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

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* usage: check_profile_schema.exe [--rtl] FILE...
   [--rtl] marks every following file as an RTL profile that must carry
   the engine extras. *)
let () =
  let require_rtl = ref false in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if arg = "--rtl" then require_rtl := true
        else
          match parse (read_file arg) with
          | v -> check_profile ~require_rtl:!require_rtl arg v
          | exception Bad msg -> complain "%s: %s" arg msg)
    Sys.argv;
  match !errors with
  | [] -> ()
  | errs ->
      List.iter (Printf.eprintf "%s\n") (List.rev errs);
      exit 1
