(* Persisted certificate cache for the classification pipeline.

   One JSON file per (behavioural fingerprint, property, level):

     <dir>/<property>-<fingerprint>-n<level>.json

   The key is {!Rcons_spec.Object_type.fingerprint} at the one depth
   [key_depth] = 8, whatever the scan limit, not the type name, so
   catalogue aliases share entries and any change to a type's behaviour
   on sequences of <= 8 operations (its transition table, universes or
   readability) silently invalidates its cache (the fingerprint moves,
   the old files become orphans for [gc]).  The key is never deeper:
   for the unbounded container types a depth-n fingerprint is a BFS
   exponential in n (stack(2) at depth 12 walks 27 645 transitions), far
   more work than re-proving the entries it locates.

   Trust model: a loaded entry is NEVER trusted as-is.
   - A positive entry, at any level, stores the witness candidate by
     *index* into the type's declared universes (no code or OCaml values
     are deserialized) plus digests of the certificate's derived sets.
     On load the candidate is re-checked from scratch against
     Definition 2 or 4 and the witness fields recomputed from the result
     (set digests included) must equal the stored ones; the caller
     receives the freshly recomputed certificate data, not the stored
     bytes.  The key only locates the entry, so its depth bounds
     nothing here.
   - A negative entry stores only the size of the candidate space that
     was exhausted.  It is accepted iff the stored key matches the live
     module's, the stored candidate count equals the live enumeration's
     and, above level [key_depth], the entry's [pin] (the fingerprint
     at depth n, computed only when such an entry is written or read)
     matches the live module's.  This is sound because the level-n
     decision procedure is a deterministic function of the depth-n
     transition table a fingerprint at depth >= n pins: same
     fingerprint + same candidate space => same verdict.
   Anything that fails these checks is reported as a miss and the caller
   recomputes (and overwrites the entry).

   Types that agree on every sequence of <= 8 operations share a key
   (S_9 and S_10 do), so above level [key_depth] a file holds one entry
   per type (by type hint): the newest at the top level, the others
   under ["others"], kept by every store.  A load tries the positives,
   then the negatives, so a warm pass over such types rewrites nothing.

   So verdicts never depend on the cache, and neither does a witness at
   a level <= 8: the key pins everything the seeded scan reads up to
   there.  Above level 8 a hit is a re-proved witness, but it can differ
   from a fresh scan's first witness when the cache holds an entry
   written for another type that agrees with this one on every sequence
   of <= 8 operations. *)

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

(* The one fingerprint depth every entry is keyed at. *)
let key_depth = 8

let key t = Object_type.fingerprint ~depth:key_depth t

(* The entries a file holds: its top-level entry, then its others. *)
let entries json = json :: Option.fold ~none:[] ~some:Json.to_list (Json.member "others" json)

module Codec (P : Property.DEFINITION) = struct
  let to_json (type s o r)
      (module T : Object_type.S with type state = s and type op = o and type resp = r) ~n
      (data : (s, o, r) P.data option) =
    let common =
      [
        ("format", Json.String format_tag);
        ("property", Json.String P.name);
        ("type_hint", Json.String T.name);
        ("fingerprint", Json.String (key (module T)));
        ("depth", Json.Int key_depth);
        ("n", Json.Int n);
      ]
    in
    match data with
    | None ->
        let count =
          Enumerate.candidate_count ~initial_states:T.candidate_initial_states ~ops:T.update_ops n
        in
        let pin =
          if n > key_depth then
            [ ("pin", Json.String (Object_type.fingerprint ~depth:n (module T))) ]
          else []
        in
        Json.Obj (common @ [ ("result", Json.String "none"); ("candidates", Json.Int count) ] @ pin)
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
      (module T : Object_type.S with type state = s and type op = o and type resp = r) ~dir ~n
      data =
    match to_json (module T) ~n data with
    | exception Not_found -> ()
    | json ->
        (if not (Sys.file_exists dir) then try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        (* Above [key_depth], keep the entries of the other types. *)
        let file = path ~dir ~property:P.name ~fingerprint:(key (module T)) ~n in
        let mine e = Json.member "type_hint" e = Some (Json.String T.name) in
        let strip = function Json.Obj f -> Json.Obj (List.remove_assoc "others" f) | e -> e in
        let others =
          if n <= key_depth then []
          else
            match entries (Json.load ~file) with
            | es -> List.map strip (List.filter (Fun.negate mine) es)
            | exception (Sys_error _ | Invalid_argument _) -> []
        in
        Json.save ~file
          (match (json, others) with
          | Json.Obj fields, _ :: _ -> Json.Obj (fields @ [ ("others", Json.List others) ])
          | _ -> json)

  (* Re-check a stored candidate from scratch and compare the recomputed
     witness fields with the stored ones; a negative entry is checked
     against the live candidate count and, above [key_depth], its pin. *)
  let validate (type s o r)
      (module T : Object_type.S with type state = s and type op = o and type resp = r) ?check ~n
      json : (s, o, r) P.data option =
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
    if str "fingerprint" <> key (module T) then
      stale "fingerprint mismatch (type behaviour changed)";
    if int "n" <> n then stale "level mismatch: file says n=%d" (int "n");
    match str "result" with
    | "none" ->
        if n > key_depth then begin
          match Json.member "pin" json with
          | None -> stale "no depth-%d pin: a depth-%d key cannot pin level %d" n key_depth n
          | Some pin ->
              if Json.to_str pin <> Object_type.fingerprint ~depth:n (module T) then
                stale "depth-%d pin mismatch (behaviour differs above the key depth)" n
        end;
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
      ~dir ~n =
    let file = path ~dir ~property:P.name ~fingerprint:(key (module T)) ~n in
    let lookup e =
      match validate (module T) ~check ~n e with
      | Some d -> Some (Hit d)
      | None -> Some Negative
      | exception (Stale _ | Invalid_argument _) -> None
    in
    let positive e = Json.member "result" e = Some (Json.String "witness") in
    if not (Sys.file_exists file) then Miss
    else
      match List.partition positive (entries (Json.load ~file)) with
      | pos, neg -> Option.value ~default:Miss (List.find_map lookup (pos @ neg))
      | exception Invalid_argument _ -> Miss
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

(* The type each recorded [type_hint] names, built once per name for the
   same reason as the pool ([None]: not a name {!Catalogue.of_name}
   knows, e.g. a random finite type's). *)
let hinted : (string, Object_type.t option) Hashtbl.t = Hashtbl.create 16

let of_hint hint =
  match Hashtbl.find_opt hinted hint with
  | Some ot -> ot
  | None ->
      let ot = Result.to_option (Catalogue.of_name hint) in
      Hashtbl.add hinted hint ot;
      ot

(* The type whose behaviour matches the key [fingerprint]: the one
   [type_hint] names when its key agrees (any S_n / T_n included), else
   the first pool type that does.  The certs CLI uses this to re-anchor
   an on-disk entry to a live module. *)
let resolve ~type_hint ~fingerprint =
  let matches ot = Object_type.fingerprint_t ~depth:key_depth ot = fingerprint in
  match of_hint type_hint with
  | Some ot when matches ot -> Some ot
  | _ -> List.find_opt matches (Lazy.force resolve_pool)

let revalidate_info (info : info) json =
  if info.depth <> key_depth then
    Stale_entry
      (Printf.sprintf "keyed at fingerprint depth %d, not the cache's %d" info.depth key_depth)
  else
    match resolve ~type_hint:info.type_hint ~fingerprint:info.fingerprint with
    | None -> Stale_entry "no known type matches the stored fingerprint"
    | Some (Object_type.Pack (module T)) -> (
        let (module P : Property.DEFINITION) =
          List.find (fun (module P : Property.DEFINITION) -> P.name = info.property) properties
        in
        let module C = Codec (P) in
        match C.validate (module T) ~n:info.n json with
        | _ -> Valid
        | exception Stale m -> Stale_entry m
        | exception Invalid_argument m -> Corrupt m)

(* A file is valid when every entry in it is. *)
let revalidate_file file =
  let status json =
    match info_of_json file json with Error m -> Corrupt m | Ok info -> revalidate_info info json
  in
  match entries (Json.load ~file) with
  | exception (Sys_error m | Invalid_argument m) -> Corrupt m
  | es -> Option.value ~default:Valid (List.find_opt (( <> ) Valid) (List.map status es))

let gc dir =
  List.filter_map
    (fun (file, _) ->
      match revalidate_file file with
      | Valid -> None
      | Stale_entry m | Corrupt m ->
          Sys.remove file;
          Some (file, m))
    (list_dir dir)
