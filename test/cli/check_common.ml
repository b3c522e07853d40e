(* What every CLI JSON checker shares: each file is parsed with
   [Hlcs_json.Json.parse], the strict RFC 8259 parser the library's own
   decoders use, and schema problems are collected rather than raised, so
   one run reports all of them.  [finish] prints them and exits 1 when
   there is any. *)

module Json = Hlcs_json.Json

let errors = ref []
let complain fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* the command-line arguments, program name dropped *)
let args () = List.tl (Array.to_list Sys.argv)

(* [check] the value in [path], or complain that it is not JSON *)
let with_file path check =
  match Json.parse (read_file path) with
  | Ok v -> check v
  | Error e -> complain "%s: %s" path e

let finish () =
  match !errors with
  | [] -> ()
  | errs ->
      List.iter (Printf.eprintf "%s\n") (List.rev errs);
      exit 1

let field obj name = Json.member name obj

(* The checks predate the integer/float split of [Json.t]: a number is a
   number, and an integer is any integral number, [3] and [3.0] alike. *)
let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let integer = function
  | Json.Int i -> Some i
  | Json.Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let require ctx obj name check =
  match field obj name with
  | Some v -> check v
  | None -> complain "%s: missing required field %S" ctx name

let optional obj name check = Option.iter check (field obj name)

let as_bool ctx name = function
  | Json.Bool b -> Some b
  | _ ->
      complain "%s: %S must be a boolean" ctx name;
      None

let as_int ctx name v =
  match integer v with
  | Some _ as i -> i
  | None ->
      complain "%s: %S must be an integer" ctx name;
      None

let as_string ctx name = function
  | Json.String s -> Some s
  | _ ->
      complain "%s: %S must be a string" ctx name;
      None

(* every CLI JSON report ships inside the versioned envelope
   {"schema_version": N, "kind": K, "payload": ...}; peel it (and check
   the tags) before validating the payload proper *)
let unwrap_envelope ~kind ctx root =
  (match Option.map number (field root "schema_version") with
  | Some (Some f) when Float.is_integer f && f >= 1.0 -> ()
  | Some _ -> complain "%s: \"schema_version\" must be a positive integer" ctx
  | None -> complain "%s: missing \"schema_version\"" ctx);
  (match field root "kind" with
  | Some (Json.String k) when k = kind -> ()
  | Some (Json.String k) -> complain "%s: kind %S, expected %S" ctx k kind
  | Some _ -> complain "%s: \"kind\" must be a string" ctx
  | None -> complain "%s: missing \"kind\"" ctx);
  match field root "payload" with
  | Some payload -> payload
  | None ->
      complain "%s: missing \"payload\"" ctx;
      Json.Obj []
