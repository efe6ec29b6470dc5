(* Persisted certificate cache for the classification pipeline.

   One JSON file per (behavioural fingerprint, property, level):

     <dir>/<property>-<fingerprint>-n<level>.json

   The key is {!Rcons_spec.Object_type.fingerprint}, not the type name,
   so catalogue aliases share entries and any change to a type's
   transition table, universes or readability silently invalidates its
   cache (the fingerprint moves, the old files become orphans for [gc]).

   Trust model: a loaded entry is NEVER trusted as-is.
   - A positive entry stores the witness candidate by *index* into the
     type's declared universes (no code or OCaml values are
     deserialized) plus digests of the certificate's derived sets.  On
     load the candidate is re-checked from scratch against Definition 2
     or 4 and the witness fields recomputed from the result (set
     digests included) must equal the stored ones; the caller receives
     the freshly recomputed certificate data, not the stored bytes.
   - A negative entry stores only the size of the candidate space that
     was exhausted.  It is accepted iff the stored fingerprint matches
     the one recomputed from the live module at a depth >= the entry's
     level and the stored candidate count equals the live enumeration's.
     This is sound because the decision procedure is a deterministic
     function of the depth-bounded transition table the fingerprint
     pins: same fingerprint + same candidate space => same verdict.
   Anything that fails these checks is reported as a miss and the caller
   recomputes (and overwrites the entry). *)

open Rcons_spec
module Json = Rcons_runtime.Json

type 'a lookup = Hit of 'a | Negative | Miss

let format_tag = "rcons-cert-v1"

let file_name ~property ~fingerprint ~n = Printf.sprintf "%s-%s-n%d.json" property fingerprint n
let path ~dir ~property ~fingerprint ~n = Filename.concat dir (file_name ~property ~fingerprint ~n)

(* Shape errors (missing/ill-typed fields) are "corrupt"; semantic
   mismatches against the live module are "stale".  [load] collapses
   both to [Miss]; the CLI keeps them apart for exit codes. *)
exception Stale of string

let stale fmt = Printf.ksprintf (fun m -> raise (Stale m)) fmt

module Codec (P : Property.DEFINITION) = struct
  let to_json (type s o r)
      (module T : Object_type.S with type state = s and type op = o and type resp = r) ~fingerprint
      ~depth ~n (data : (s, o, r) P.data option) =
    let common =
      [
        ("format", Json.String format_tag);
        ("property", Json.String P.name);
        ("type_hint", Json.String T.name);
        ("fingerprint", Json.String fingerprint);
        ("depth", Json.Int depth);
        ("n", Json.Int n);
      ]
    in
    match data with
    | None ->
        let count =
          Enumerate.candidate_count ~initial_states:T.candidate_initial_states ~ops:T.update_ops n
        in
        Json.Obj (common @ [ ("result", Json.String "none"); ("candidates", Json.Int count) ])
    | Some d ->
        let index universe cmp x =
          match List.find_index (fun y -> cmp x y = 0) universe with
          | Some i -> i
          | None -> raise Not_found
        in
        let q0, ops_a, ops_b = P.candidate d in
        let ops = List.map (index T.update_ops T.compare_op) in
        Json.Obj
          (common
          @ ("result", Json.String "witness")
            :: P.witness_fields
                 ~q0:(index T.candidate_initial_states T.compare_state q0)
                 ~ops_a:(ops ops_a) ~ops_b:(ops ops_b) d)

  (* A witness outside the declared universes (impossible for the
     in-tree searches) is simply not cacheable. *)
  let store (type s o r)
      (module T : Object_type.S with type state = s and type op = o and type resp = r) ~dir
      ~fingerprint ~depth ~n data =
    match to_json (module T) ~fingerprint ~depth ~n data with
    | exception Not_found -> ()
    | json ->
        (if not (Sys.file_exists dir) then try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        Json.save ~file:(path ~dir ~property:P.name ~fingerprint ~n) json

  (* Re-check a stored candidate from scratch and compare the recomputed
     witness fields with the stored ones. *)
  let validate (type s o r)
      (module T : Object_type.S with type state = s and type op = o and type resp = r) ?check
      ~fingerprint ~n json : (s, o, r) P.data option =
    let check =
      match check with
      | Some f -> f
      | None ->
          let module C = P.Check (T) in
          C.check
    in
    let str f = Json.to_str (Json.field f json) in
    let int f = Json.to_int (Json.field f json) in
    if str "format" <> format_tag then stale "unknown format tag %S" (str "format");
    if str "property" <> P.name then stale "property mismatch: file says %S" (str "property");
    if str "fingerprint" <> fingerprint then stale "fingerprint mismatch (type behaviour changed)";
    if int "n" <> n then stale "level mismatch: file says n=%d" (int "n");
    if int "depth" < n then
      stale "fingerprint depth %d < n=%d cannot pin the verdict" (int "depth") n;
    match str "result" with
    | "none" ->
        let live =
          Enumerate.candidate_count ~initial_states:T.candidate_initial_states ~ops:T.update_ops n
        in
        if int "candidates" <> live then
          stale "candidate space changed: file exhausted %d, live enumeration has %d"
            (int "candidates") live;
        None
    | "witness" -> (
        let q0, ops_a, ops_b = P.candidate_of_fields json in
        let decode universe i =
          match List.nth_opt universe i with
          | Some x -> x
          | None -> stale "index %d out of range" i
        in
        let ops = List.map (decode T.update_ops) in
        if List.length ops_a + List.length ops_b <> n then stale "team sizes do not sum to n=%d" n;
        match
          check ~q0:(decode T.candidate_initial_states q0) ~ops_a:(ops ops_a) ~ops_b:(ops ops_b)
        with
        | None -> stale "stored candidate is not a %s witness" P.name
        | Some d ->
            List.iter
              (fun (field, recomputed) ->
                if Json.field field json <> recomputed then
                  stale "%s does not match the recomputed witness" field)
              (P.witness_fields ~q0 ~ops_a ~ops_b d);
            Some d)
    | other -> stale "unknown result kind %S" other

  let load (type s o r)
      (module T : Object_type.S with type state = s and type op = o and type resp = r) ~check
      ~dir ~fingerprint ~n =
    let file = path ~dir ~property:P.name ~fingerprint ~n in
    if not (Sys.file_exists file) then Miss
    else
      match validate (module T) ~check ~fingerprint ~n (Json.load ~file) with
      | Some d -> Hit d
      | None -> Negative
      | exception (Stale _ | Invalid_argument _) -> Miss
end

(* {2 Maintenance (CLI: certs list / revalidate / gc)} *)

type info = {
  file : string;
  property : string;
  fingerprint : string;
  depth : int;
  n : int;
  positive : bool;
  type_hint : string;
}

type status = Valid | Stale_entry of string | Corrupt of string

let properties : (module Property.DEFINITION) list = [ (module Recording); (module Discerning) ]

let info_of_json file json =
  try
    let str f = Json.to_str (Json.field f json) in
    let int f = Json.to_int (Json.field f json) in
    if str "format" <> format_tag then Error (Printf.sprintf "unknown format tag %S" (str "format"))
    else if
      not (List.exists (fun (module P : Property.DEFINITION) -> P.name = str "property") properties)
    then Error (Printf.sprintf "unknown property %S" (str "property"))
    else
      Ok
        {
          file;
          property = str "property";
          fingerprint = str "fingerprint";
          depth = int "depth";
          n = int "n";
          positive = str "result" = "witness";
          type_hint = str "type_hint";
        }
  with Invalid_argument m -> Error m

let info_of_file file =
  match Json.load ~file with
  | json -> info_of_json file json
  | exception (Sys_error m | Invalid_argument m) -> Error m

let list_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (fun f ->
           let file = Filename.concat dir f in
           (file, info_of_file file))

(* Catalogue types plus small parametric S_n / T_n instances, built
   once: [Object_type.fingerprint] memoizes by physical identity, so a
   fresh [Tn.make]/[Sn.make] per call would be fingerprinted anew. *)
let resolve_pool =
  lazy
    (List.map (fun (e : Catalogue.expectation) -> e.Catalogue.ot) Catalogue.all
    @ List.concat_map
        (fun n -> [ (Catalogue.tn n).Catalogue.ot; (Catalogue.sn n).Catalogue.ot ])
        [ 2; 3; 4; 5; 6 ])

(* The pool type whose behaviour matches [fingerprint] at [depth]; the
   certs CLI uses this to re-anchor an on-disk entry to a live module. *)
let resolve ~fingerprint ~depth =
  List.find_opt
    (fun ot -> Object_type.fingerprint_t ~depth ot = fingerprint)
    (Lazy.force resolve_pool)

let revalidate_info (info : info) json =
  match resolve ~fingerprint:info.fingerprint ~depth:info.depth with
  | None -> Stale_entry "no known type matches the stored fingerprint"
  | Some (Object_type.Pack (module T)) -> (
      let (module P : Property.DEFINITION) =
        List.find (fun (module P : Property.DEFINITION) -> P.name = info.property) properties
      in
      let module C = Codec (P) in
      match C.validate (module T) ~fingerprint:info.fingerprint ~n:info.n json with
      | _ -> Valid
      | exception Stale m -> Stale_entry m
      | exception Invalid_argument m -> Corrupt m)

let revalidate_file file =
  match Json.load ~file with
  | exception (Sys_error m | Invalid_argument m) -> Corrupt m
  | json -> (
      match info_of_json file json with Error m -> Corrupt m | Ok info -> revalidate_info info json)

let gc dir =
  List.filter_map
    (fun (file, _) ->
      match revalidate_file file with
      | Valid -> None
      | Stale_entry m | Corrupt m ->
          Sys.remove file;
          Some (file, m))
    (list_dir dir)
