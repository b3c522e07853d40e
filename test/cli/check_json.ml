(* The syntax half of the CLI JSON contract: every file named on the
   command line must hold exactly one well-formed JSON value under the
   strict grammar of [Hlcs_json.Json.parse].  Exits 1, naming the byte
   offset, on the first fault in each bad file. *)

let () =
  List.iter (fun path -> Check_common.with_file path ignore) (Check_common.args ());
  Check_common.finish ()
