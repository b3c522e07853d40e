(* Content-hashed synthesis memoisation, with an optional on-disk tier.

   Two tiers of granularity:

   - the {e report} tier keys the complete [Synthesize.report] by an MD5
     over (option fields, canonical serialisation of the HLIR design) —
     a byte-identical design under identical options replays without any
     work at all;
   - the {e fragment} tier keys each synthesis unit's netlist fragment by
     its content signature ([Synthesize.plan_unit.u_signature]).  A
     report miss plans the design, resolves every unit against the
     fragment tier, resynthesises only the units whose signatures are
     new, and links.  Editing one process of an N-unit design therefore
     costs one unit synthesis plus a link; a sweep over N design
     variants shares every unchanged unit across jobs and — through the
     disk tier — across daemon restarts.

   The HLIR AST is pure data (no closures, no mutation after
   construction), so [Marshal] with [No_sharing] is a canonical encoding:
   structurally equal designs serialise to identical bytes regardless of
   how much substructure they happen to share in memory.

   Concurrency: one mutex guards both tables and the counters.  A miss
   installs [Pending] and runs the synthesiser *outside* the lock, so
   lookups for other designs proceed; concurrent requests for the same
   key (report or unit) wait on the condition variable until the first
   requester publishes the result.  Either way they are counted as hits —
   the synthesiser ran once.

   Disk tier.  A cache created with a disk directory persists every
   successful synthesis as [hlcs_sy_<key>-<fpr>.bin] (report tier) and
   every fragment as [hlcs_syu_<sig>-<fpr>.bin], each a small header, a
   digest of the payload, then the marshalled value, written to a temp
   file and renamed so a concurrent process never observes a torn entry.
   A memory miss probes the disk before synthesising; a valid entry loads
   (a report load counts as a [disk_hits]) and a corrupt or truncated one
   is deleted and rebuilt.  The fingerprint (compiler version + cache format
   version) keys the file name; opening the directory prunes every
   [hlcs_sy*] blob written under a foreign fingerprint, so entries from
   an incompatible runtime are deleted rather than unmarshalled and the
   directory does not accumulate unreadable files across toolchain
   upgrades.  Failures anywhere on the disk path degrade to memory-only
   behaviour — the cache never makes synthesis fail. *)

type stats = {
  hits : int;
  misses : int;
  disk_hits : int;
  units_total : int;
  units_reused : int;
  units_rebuilt : int;
}

type entry =
  | Pending
  | Ready of Synthesize.report
  | Raised of exn

type uentry =
  | U_pending
  | U_ready of Synthesize.fragment
  | U_raised of exn

type disk = { dk_dir : string; dk_fpr : string }

type t = {
  lock : Mutex.t;
  published : Condition.t;
  table : (string, entry) Hashtbl.t;  (* report tier: design key *)
  units : (string, uentry) Hashtbl.t;  (* fragment tier: unit signature *)
  disk : disk option;
  mutable hits : int;
  mutable misses : int;
  mutable disk_hits : int;
  mutable units_total : int;
  mutable units_reused : int;
  mutable units_rebuilt : int;
}

(* bump when the entry layout (or anything reachable from
   [Synthesize.report] / [Synthesize.fragment]) changes shape: stale
   fingerprints are pruned, not unmarshalled *)
let format_version = "2"

let fingerprint =
  String.sub
    (Digest.to_hex (Digest.string (Sys.ocaml_version ^ "+sy" ^ format_version)))
    0 8

let env_var = "HLCS_SYNTH_CACHE"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let rm_f p = try Sys.remove p with Sys_error _ -> ()

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix)
     = suffix

(* Every blob this module ever wrote starts with [hlcs_sy]; any such file
   not keyed by the current fingerprint was written by an incompatible
   runtime and will never be read again — delete it. *)
let prune_foreign_fingerprints dir fpr =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      let keep_suffix = Printf.sprintf "-%s.bin" fpr in
      Array.iter
        (fun f ->
          if
            starts_with ~prefix:"hlcs_sy" f
            && ends_with ~suffix:".bin" f
            && not (ends_with ~suffix:keep_suffix f)
          then rm_f (Filename.concat dir f))
        entries

(* a usable directory or nothing; never raises *)
let open_disk dir =
  match
    mkdir_p dir;
    Sys.file_exists dir && Sys.is_directory dir
    &&
    let p = Filename.temp_file ~temp_dir:dir ".probe" "" in
    Sys.remove p;
    true
  with
  | true ->
      prune_foreign_fingerprints dir fingerprint;
      Some { dk_dir = dir; dk_fpr = fingerprint }
  | false -> None
  | exception _ -> None

let resolve_disk = function
  | `Memory -> None
  | `Dir d -> open_disk d
  | `Env -> (
      match Sys.getenv_opt env_var with
      | Some d when d <> "" -> open_disk d
      | _ -> None)

let create ?(disk = `Env) () =
  {
    lock = Mutex.create ();
    published = Condition.create ();
    table = Hashtbl.create 16;
    units = Hashtbl.create 64;
    disk = resolve_disk disk;
    hits = 0;
    misses = 0;
    disk_hits = 0;
    units_total = 0;
    units_reused = 0;
    units_rebuilt = 0;
  }

let disk_dir t = Option.map (fun d -> d.dk_dir) t.disk

let key ?(options = Synthesize.default_options) design =
  let opts =
    Printf.sprintf "chaining=%b;age_width=%d;optimize=%b\x00" options.Synthesize.chaining
      options.Synthesize.age_width options.Synthesize.optimize
  in
  Digest.to_hex
    (Digest.string (opts ^ Marshal.to_string design [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Disk tier *)

let magic = "HLCSSY2\n"

let report_file dk k =
  Filename.concat dk.dk_dir (Printf.sprintf "hlcs_sy_%s-%s.bin" k dk.dk_fpr)

let unit_file dk s =
  Filename.concat dk.dk_dir (Printf.sprintf "hlcs_syu_%s-%s.bin" s dk.dk_fpr)

let disk_load : 'a. disk -> (disk -> string -> string) -> string -> 'a option =
 fun dk file k ->
  let path = file dk k in
  if not (Sys.file_exists path) then None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let m = really_input_string ic (String.length magic) in
          if m <> magic then failwith "bad magic";
          let digest = really_input_string ic 16 in
          let payload =
            really_input_string ic
              (in_channel_length ic - String.length magic - 16)
          in
          if Digest.string payload <> digest then failwith "bad digest";
          Marshal.from_string payload 0)
    with
    | v -> Some v
    | exception _ ->
        (* torn, truncated or otherwise corrupt: prune and resynthesise *)
        rm_f path;
        None

let disk_store dk file k v =
  match
    let path = file dk k in
    let payload = Marshal.to_string v [ Marshal.No_sharing ] in
    let tmp = Filename.temp_file ~temp_dir:dk.dk_dir ".sy" ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc magic;
    output_string oc (Digest.string payload);
    output_string oc payload;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception _ -> ()

(* ------------------------------------------------------------------ *)
(* Fragment tier *)

(* Resolve one unit: memory promise, then disk blob, then synthesis.
   Runs with the lock *released*; takes and releases it internally. *)
let resolve_unit t options (pu : Synthesize.plan_unit) =
  let s = pu.Synthesize.u_signature in
  Mutex.lock t.lock;
  let rec go () =
    match Hashtbl.find_opt t.units s with
    | Some (U_ready frag) ->
        t.units_total <- t.units_total + 1;
        t.units_reused <- t.units_reused + 1;
        Mutex.unlock t.lock;
        frag
    | Some (U_raised exn) ->
        t.units_total <- t.units_total + 1;
        t.units_reused <- t.units_reused + 1;
        Mutex.unlock t.lock;
        raise exn
    | Some U_pending ->
        Condition.wait t.published t.lock;
        go ()
    | None -> (
        Hashtbl.replace t.units s U_pending;
        Mutex.unlock t.lock;
        let from_disk =
          match t.disk with
          | None -> None
          | Some dk -> (disk_load dk unit_file s : Synthesize.fragment option)
        in
        match from_disk with
        | Some frag ->
            Mutex.lock t.lock;
            t.units_total <- t.units_total + 1;
            t.units_reused <- t.units_reused + 1;
            Hashtbl.replace t.units s (U_ready frag);
            Condition.broadcast t.published;
            Mutex.unlock t.lock;
            frag
        | None -> (
            let outcome =
              match Synthesize.synthesize_unit options pu.Synthesize.u_decl with
              | frag -> U_ready frag
              | exception exn -> U_raised exn
            in
            (match (outcome, t.disk) with
            | U_ready frag, Some dk -> disk_store dk unit_file s frag
            | _ -> ());
            Mutex.lock t.lock;
            t.units_total <- t.units_total + 1;
            t.units_rebuilt <- t.units_rebuilt + 1;
            Hashtbl.replace t.units s outcome;
            Condition.broadcast t.published;
            Mutex.unlock t.lock;
            match outcome with
            | U_ready frag -> frag
            | U_raised exn -> raise exn
            | U_pending -> assert false))
  in
  go ()

(* ------------------------------------------------------------------ *)

let synthesize t ?options design =
  let k = key ?options design in
  Mutex.lock t.lock;
  let rec resolve () =
    match Hashtbl.find_opt t.table k with
    | Some (Ready report) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.lock;
        report
    | Some (Raised exn) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.lock;
        raise exn
    | Some Pending ->
        Condition.wait t.published t.lock;
        resolve ()
    | None -> (
        Hashtbl.replace t.table k Pending;
        Mutex.unlock t.lock;
        (* probe the disk tier before paying for synthesis; both the load
           and the synthesis run outside the lock *)
        let from_disk =
          match t.disk with
          | None -> None
          | Some dk -> (disk_load dk report_file k : Synthesize.report option)
        in
        match from_disk with
        | Some report ->
            Mutex.lock t.lock;
            t.disk_hits <- t.disk_hits + 1;
            Hashtbl.replace t.table k (Ready report);
            Condition.broadcast t.published;
            Mutex.unlock t.lock;
            report
        | None -> (
            (* the dirty-cone path: plan, resolve each unit against the
               fragment tier, relink — only units with unseen signatures
               pay for synthesis *)
            let outcome =
              match
                let pl = Synthesize.plan ?options design in
                let opts = pl.Synthesize.pl_options in
                let frags =
                  List.map (resolve_unit t opts) pl.Synthesize.pl_units
                in
                Synthesize.link_plan pl frags
              with
              | report -> Ready report
              | exception exn -> Raised exn
            in
            (* persist successes only: a failure is cached in memory (a
               design outside the synthesisable subset stays outside it)
               but never written to disk *)
            (match (outcome, t.disk) with
            | Ready report, Some dk -> disk_store dk report_file k report
            | _ -> ());
            Mutex.lock t.lock;
            t.misses <- t.misses + 1;
            Hashtbl.replace t.table k outcome;
            Condition.broadcast t.published;
            Mutex.unlock t.lock;
            match outcome with
            | Ready report -> report
            | Raised exn -> raise exn
            | Pending -> assert false))
  in
  resolve ()

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      disk_hits = t.disk_hits;
      units_total = t.units_total;
      units_reused = t.units_reused;
      units_rebuilt = t.units_rebuilt;
    }
  in
  Mutex.unlock t.lock;
  s

let size t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n
