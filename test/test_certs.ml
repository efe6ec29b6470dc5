(* Persisted certificate cache: round-trips (store -> JSON -> load ->
   revalidate) over the catalogue and over random finite types, and the
   trust boundary -- poisoned or fingerprint-stale entries must never be
   believed, only discarded and recomputed. *)

open Rcons_check
module OT = Rcons_spec.Object_type

let tmp_dir () =
  let d = Filename.temp_file "rcons-certs" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file file contents =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

module Rec_cache = Cert_cache.Codec (Recording)

let has_pin file = Rcons_runtime.Json.(member "pin" (load ~file)) <> None

(* Store the live scan result for one (type, property, n), reload it
   (revalidating with a fresh search instance) and require the reload to
   agree with the original bit for bit.  Returns false on any
   disagreement. *)
let roundtrip (module P : Property.S) (OT.Pack (module T)) n dir =
  let module Sc = P.Scan (T) in
  let module C = Cert_cache.Codec (P) in
  let r = Sc.witness_at n in
  C.store (module T) ~dir ~n r;
  match (C.load (module T) ~check:(P.check_candidate (module T)) ~dir ~n, r) with
  | Cert_cache.Hit d, Some d0 -> d = d0
  | Cert_cache.Negative, None -> true
  | _ -> false

let roundtrip_recording = roundtrip (module Recording)
let roundtrip_discerning = roundtrip (module Discerning)

let catalogue_types () =
  List.map (fun e -> e.Rcons_spec.Catalogue.ot) Rcons_spec.Catalogue.all
  @ [ Rcons_spec.Sn.make 3; Rcons_spec.Tn.make 3; Rcons_spec.Sn.make 4 ]

(* The on-disk cache key, pinned byte for byte: a fingerprint change
   silently invalidates every stored certificate, so any rewrite of
   [Object_type.fingerprint] must reproduce these.  Depth 8 is the key
   of every entry; depth 12 is the pin a level-12 negative entry carries. *)
let fingerprint_pins =
  [
    ("register(2)", "cfdc97ed2894a2ab7476f5541d1d0ccb", "8fba9c7b31827a409e3cdb1aa3bf0c8e");
    ("test-and-set", "50db846c31247b2ab1c7e5b88d836515", "887c5dbf3b0dc64b3a27dafb14e84e81");
    ("swap(2)", "b0b60273d2e18f455fc4ecdbdffe9225", "4cf28c2ff1443c9c7bde292f2326c1c4");
    ("fetch&add(mod 8)", "1545606598b0f7dca0f1cc5b6837c5bd", "d6196a068e6c6e07aae3c74f5fe5cbdb");
    ("flip-bit", "98444fca0eae25adc410c289324ddd87", "2f16936020826c15dfaa4d1be7649e82");
    ("max-register(2)", "360da939acb30a4db7ba2e6ae7180023", "5112bbc66e13493dab4ba06feaa3990a");
    ("stack(2)", "f19c33383f0716e0f3ce055be767b798", "b827e9b6d3d74abf8bc3817052f92371");
    ("queue(2)", "2e2974a45d9eebd2ece6c4a6ae7fe941", "41c520c3dcca843922c94a2754fe8460");
    ("readable-stack(2)", "52bbfdfd313f437745d9785ada3139ed", "56c5eae4d84400e6c2940ae5c4476c7d");
    ("readable-queue(2)", "d9fd1c53258a6df755320f7c5a64b1bb", "77aa54c6e04a3beb647f1eeacac25175");
    ("sticky-bit", "340064326edb96becb0200830a6f41ce", "8fb9dc724f58acd34e44b7d0b4b0b40a");
    ("compare&swap(2)", "03da904f7b3332bcf574f8c46d416d5b", "4df0d0923a5593632500cbbb89ca117f");
    ("consensus-object", "340064326edb96becb0200830a6f41ce", "8fb9dc724f58acd34e44b7d0b4b0b40a");
    ("S_3", "25cd655a0440a0f2d897950d6ec2c866", "53d157497fa92914e5c3d872f1110863");
    ("T_3", "7273ada8d38ece3d96e4aa8c0c4b8bc6", "04147c85c304aaf2abcf2709484fa573");
  ]

let pinned_types () =
  List.map (fun e -> e.Rcons_spec.Catalogue.ot) Rcons_spec.Catalogue.all
  @ [ Rcons_spec.Sn.make 3; Rcons_spec.Tn.make 3 ]

(* [stack(2)] except that [Pop] on the empty stack answers [Popped (Some 0)]:
   one response differs, so the fingerprint must too. *)
module Odd_pop_stack = struct
  include (val Rcons_spec.Stack.spec ~domain:2 ~readable:false)

  let apply q op =
    match (op, q) with
    | Rcons_spec.Stack.Pop, [] -> ([], Rcons_spec.Stack.Popped (Some 0))
    | _ -> apply q op
end

let test_fingerprint_pins () =
  let types = pinned_types () in
  Alcotest.(check (list string))
    "pinned types" (List.map (fun (n, _, _) -> n) fingerprint_pins) (List.map OT.name types);
  let fp depth name = OT.fingerprint_t ~depth (List.find (fun ot -> OT.name ot = name) types) in
  List.iter
    (fun (name, d8, d12) ->
      Alcotest.(check string) (name ^ " @8") d8 (fp 8 name);
      Alcotest.(check string) (name ^ " @12") d12 (fp 12 name))
    fingerprint_pins;
  List.iter
    (fun depth ->
      let at = Printf.sprintf " @%d" depth in
      Alcotest.(check string) ("catalogue aliases share" ^ at) (fp depth "sticky-bit")
        (fp depth "consensus-object");
      Alcotest.(check bool) ("readability is hashed" ^ at) false
        (fp depth "stack(2)" = fp depth "readable-stack(2)");
      Alcotest.(check bool) ("responses are hashed" ^ at) false
        (fp depth "stack(2)" = OT.fingerprint ~depth (module Odd_pop_stack)))
    [ 8; 12 ]

(* [resolve] builds each type once, whether it comes from the pool (a
   hint that names no type) or from the hint, so repeated look-ups hand
   back the same module (and hit the fingerprint memo). *)
let test_resolve_pool_shared () =
  List.iter
    (fun (type_hint, ot) ->
      let fingerprint = OT.fingerprint_t ~depth:Cert_cache.key_depth ot in
      let resolve () = Cert_cache.resolve ~type_hint ~fingerprint in
      match (resolve (), resolve ()) with
      | Some a, Some b ->
          Alcotest.(check string) ("resolves to " ^ OT.name ot) (OT.name ot) (OT.name a);
          Alcotest.(check bool) "same module both times" true (a == b)
      | _ -> Alcotest.failf "%s's fingerprint does not resolve" (OT.name ot))
    [ ("no such type", Rcons_spec.Sn.make 3); ("S_9", Rcons_spec.Sn.make 9) ]

(* Round-trip every catalogue type at n = 2..4 and then revalidate every
   file on disk through the fingerprint-anchored CLI path. *)
let test_roundtrip_catalogue () =
  with_dir @@ fun dir ->
  List.iter
    (fun ot ->
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "recording %s n=%d" (OT.name ot) n)
            true (roundtrip_recording ot n dir);
          Alcotest.(check bool)
            (Printf.sprintf "discerning %s n=%d" (OT.name ot) n)
            true (roundtrip_discerning ot n dir))
        [ 2; 3; 4 ])
    (catalogue_types ());
  let entries = Cert_cache.list_dir dir in
  Alcotest.(check bool) "cache is non-empty" true (List.length entries > 0);
  List.iter
    (fun (file, parsed) ->
      (match parsed with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "corrupt entry %s: %s" file m);
      match Cert_cache.revalidate_file file with
      | Cert_cache.Valid -> ()
      | Cert_cache.Stale_entry m -> Alcotest.failf "stale entry %s: %s" file m
      | Cert_cache.Corrupt m -> Alcotest.failf "corrupt entry %s: %s" file m)
    entries

(* qcheck: round-trips also hold for arbitrary random finite types
   (these exercise the negative-entry path heavily: most random types
   have no witness).  Random types are not in the catalogue, so only the
   load path is checked, not the fingerprint-anchored [revalidate_file]. *)
let table_gen =
  QCheck2.Gen.(
    let* num_states = int_range 2 3 in
    let* num_ops = int_range 1 2 in
    let* num_resps = int_range 1 2 in
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed; num_states; num_ops; 11 |] in
    return (Rcons_spec.Finite_type.random ~num_resps ~num_states ~num_ops rng))

let test_roundtrip_random =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"random finite types round-trip" table_gen (fun table ->
         let ot = Rcons_spec.Finite_type.of_table table in
         with_dir @@ fun dir ->
         List.for_all
           (fun n -> roundtrip_recording ot n dir && roundtrip_discerning ot n dir)
           [ 2; 3 ]))

(* The arithmetic candidate count used to validate negative entries must
   equal the materialized enumeration exactly. *)
let test_candidate_count () =
  List.iter
    (fun (states, ops, n) ->
      let initial_states = List.init states Fun.id and ops = List.init ops Fun.id in
      Alcotest.(check int)
        (Printf.sprintf "%d states, %d ops, n=%d" states (List.length ops) n)
        (List.length (Enumerate.candidates ~initial_states ~ops n))
        (Enumerate.candidate_count ~initial_states ~ops n))
    [ (1, 1, 2); (2, 3, 2); (3, 2, 4); (2, 4, 5); (1, 5, 6); (2, 2, 7) ]

(* Where the recording entry of a type at level [n] lives. *)
let entry_file dir (OT.Pack (module T)) n =
  Filename.concat dir
    (Cert_cache.file_name ~property:Recording.name
       ~fingerprint:(OT.fingerprint ~depth:Cert_cache.key_depth (module T))
       ~n)

(* Fixture: the first recording-witness entry written for a type known to
   have one. *)
let sticky = Rcons_spec.Sticky_bit.t

let store_sticky_witness dir =
  match sticky with
  | OT.Pack (module T) ->
      let module Sc = Recording.Scan (T) in
      let r = Sc.witness_at 2 in
      Alcotest.(check bool) "sticky-bit is 2-recording" true (Option.is_some r);
      Rec_cache.store (module T) ~dir ~n:2 r;
      (OT.fingerprint ~depth:Cert_cache.key_depth (module T), entry_file dir sticky 2)

(* What a recording-cache look-up at level [n] makes of the entry. *)
let lookup (OT.Pack (module T)) ~dir ~n =
  match Rec_cache.load (module T) ~check:(Recording.check_candidate (module T)) ~dir ~n with
  | Cert_cache.Hit _ -> `Hit
  | Cert_cache.Negative -> `Negative
  | Cert_cache.Miss -> `Miss

let load_sticky dir = lookup sticky ~dir ~n:2

(* Poisoned certificate: mutate the stored Q_A digest.  The loader must
   reject the entry (Miss, never Hit) and a cache-backed classify must
   recompute and heal the file. *)
let test_poisoned_q_set () =
  with_dir @@ fun dir ->
  let _fp, file = store_sticky_witness dir in
  Alcotest.(check bool) "pristine entry loads" true (load_sticky dir = `Hit);
  let poisoned =
    Str.global_replace (Str.regexp {|"q_a": "[0-9a-f]*"|}) {|"q_a": "deadbeefdeadbeefdeadbeefdeadbeef"|}
      (read_file file)
  in
  write_file file poisoned;
  Alcotest.(check bool) "poisoned entry is a miss" true (load_sticky dir = `Miss);
  (match Cert_cache.revalidate_file file with
  | Cert_cache.Stale_entry _ -> ()
  | Cert_cache.Valid -> Alcotest.fail "poisoned entry revalidated as valid"
  | Cert_cache.Corrupt m -> Alcotest.failf "poisoned entry reported corrupt (%s), want stale" m);
  (* A classify run through the cache must agree with a cache-free run
     and overwrite the poisoned file with a valid one. *)
  let with_cache = Classify.classify ~limit:3 ~certs:dir sticky in
  let without = Classify.classify ~limit:3 sticky in
  Alcotest.(check string)
    "poisoned cache cannot change the report"
    (Format.asprintf "%a" Classify.pp_report without)
    (Format.asprintf "%a" Classify.pp_report with_cache);
  match Cert_cache.revalidate_file file with
  | Cert_cache.Valid -> ()
  | Cert_cache.Stale_entry m | Cert_cache.Corrupt m ->
      Alcotest.failf "entry not healed by recompute: %s" m

(* Stale fingerprint: the entry claims a fingerprint the live type no
   longer has (as after any behavioural change).  The loader must reject
   it and the maintenance path must not find a matching type. *)
let test_stale_fingerprint () =
  with_dir @@ fun dir ->
  let fp, file = store_sticky_witness dir in
  let bogus = String.init (String.length fp) (fun i -> if fp.[i] = 'f' then '0' else 'f') in
  write_file file (Str.global_replace (Str.regexp_string fp) bogus (read_file file));
  Alcotest.(check bool) "fingerprint-stale entry is a miss" true (load_sticky dir = `Miss);
  match Cert_cache.revalidate_file file with
  | Cert_cache.Stale_entry _ -> ()
  | Cert_cache.Valid -> Alcotest.fail "fingerprint-stale entry revalidated as valid"
  | Cert_cache.Corrupt m -> Alcotest.failf "want stale, got corrupt: %s" m

(* Mutating a negative entry's exhausted-candidate count must invalidate
   it: the enumeration shape is part of what makes a "none" trustworthy. *)
let test_poisoned_negative () =
  with_dir @@ fun dir ->
  match Rcons_spec.Register.default with
  | OT.Pack (module T) as register ->
      Rec_cache.store (module T) ~dir ~n:2 None;
      let file = entry_file dir register 2 in
      let load () = lookup register ~dir ~n:2 in
      Alcotest.(check bool) "pristine negative loads" true (load () = `Negative);
      Alcotest.(check bool) "no pin at or below the key depth" false (has_pin file);
      write_file file
        (Str.global_replace (Str.regexp {|"candidates": [0-9]*|}) {|"candidates": 9999|}
           (read_file file));
      Alcotest.(check bool) "mutated candidate count is a miss" true (load () = `Miss)

(* Truncated file: corrupt, not stale -- and [gc] removes it while
   keeping valid entries. *)
let test_corrupt_and_gc () =
  with_dir @@ fun dir ->
  let _fp, file = store_sticky_witness dir in
  let other = Filename.concat dir "recording-0000-n2.json" in
  write_file other "{\"format\": \"rcons-ce";
  (match Cert_cache.revalidate_file other with
  | Cert_cache.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated file must be corrupt");
  (match Cert_cache.info_of_file other with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated file must not parse");
  let removed = Cert_cache.gc dir in
  Alcotest.(check (list string)) "gc removes only the corrupt file" [ other ]
    (List.map fst removed);
  Alcotest.(check bool) "valid entry survives gc" true (Sys.file_exists file)

(* Missing cache directory behaves as an empty cache. *)
let test_missing_dir () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rcons-certs-nonexistent" in
  rm_rf dir;
  Alcotest.(check int) "list_dir of missing dir" 0 (List.length (Cert_cache.list_dir dir));
  Alcotest.(check bool) "missing dir must be a miss" true (load_sticky dir = `Miss)

(* Reports for [types] rendered with no cache, then cold and warm on one
   directory: all three must agree and the warm pass must write nothing. *)
let check_warm_equals_cold ~limit types =
  with_dir @@ fun dir ->
  let render certs =
    String.concat "\n"
      (List.map
         (fun ot -> Format.asprintf "%a" Classify.pp_report (Classify.classify ~limit ?certs ot))
         types)
  in
  let nocache = render None in
  let cold = render (Some dir) in
  let mtimes () =
    List.map (fun (f, _) -> (f, (Unix.stat f).Unix.st_mtime)) (Cert_cache.list_dir dir)
  in
  let before = mtimes () in
  let warm = render (Some dir) in
  Alcotest.(check string) "cold = no-cache" nocache cold;
  Alcotest.(check string) "warm = cold" cold warm;
  Alcotest.(check bool) "warm run rewrites nothing" true (mtimes () = before)

(* Warm/cold/cache-free classifications agree, and a warm run is all
   cache hits (it does not rewrite any file). *)
let test_classify_warm_equals_cold () =
  check_warm_equals_cold ~limit:4
    [ sticky; Rcons_spec.Cas.default; Rcons_spec.Register.default; Rcons_spec.Sn.make 3 ]

(* The catalogue at limit 12 (every level keyed at depth 8, no negative
   above it), and S_9 / T_9 at limit 10 (negatives at levels 9 and 10,
   which carry a pin). *)
let test_warm_equals_cold_deep () =
  check_warm_equals_cold ~limit:12
    (List.map (fun e -> e.Rcons_spec.Catalogue.ot) Rcons_spec.Catalogue.all);
  check_warm_equals_cold ~limit:10 [ Rcons_spec.Sn.make 9; Rcons_spec.Tn.make 9 ]

(* A positive entry above the key depth is located by the depth-8 key
   and trusted because it is re-proved: S_10 is 10-recording. *)
let test_positive_above_key_depth () =
  with_dir @@ fun dir ->
  let (OT.Pack (module T) as s10) = Rcons_spec.Sn.make 10 in
  let module Sc = Recording.Scan (T) in
  let r = Sc.witness_at 10 in
  Alcotest.(check bool) "S_10 is 10-recording" true (Option.is_some r);
  Rec_cache.store (module T) ~dir ~n:10 r;
  let file = entry_file dir s10 10 in
  Alcotest.(check bool) "keyed by the depth-8 fingerprint" true (Sys.file_exists file);
  Alcotest.(check bool) "a positive carries no pin" false (has_pin file);
  Alcotest.(check bool) "loads as a hit" true (lookup s10 ~dir ~n:10 = `Hit);
  Alcotest.(check bool) "and revalidates" true (Cert_cache.revalidate_file file = Cert_cache.Valid)

(* A negative entry above the key depth is trusted only through its
   depth-n pin.  S_9 and S_10 agree on every sequence of at most 8
   operations (op_B wraps only at the 9th or 10th), so they share a key:
   the pin is what keeps S_9's "not 10-recording" from S_10. *)
let test_negative_above_key_depth_pinned () =
  with_dir @@ fun dir ->
  let s9 = Rcons_spec.Sn.make 9 and s10 = Rcons_spec.Sn.make 10 in
  let file = entry_file dir s9 10 in
  Alcotest.(check string) "S_9 and S_10 share the key" file (entry_file dir s10 10);
  (match s9 with OT.Pack (module T) -> Rec_cache.store (module T) ~dir ~n:10 None);
  Alcotest.(check bool) "the negative carries a pin" true (has_pin file);
  Alcotest.(check bool) "loads for S_9" true (lookup s9 ~dir ~n:10 = `Negative);
  Alcotest.(check bool) "a miss for S_10 (pin mismatch)" true (lookup s10 ~dir ~n:10 = `Miss);
  let pristine = read_file file in
  let poison replacement =
    write_file file
      (Str.global_replace (Str.regexp ",[ \n]*\"pin\": \"[0-9a-f]*\"") replacement pristine)
  in
  poison {|, "pin": "deadbeefdeadbeefdeadbeefdeadbeef"|};
  Alcotest.(check bool) "poisoned pin is a miss" true (lookup s9 ~dir ~n:10 = `Miss);
  (match Cert_cache.revalidate_file file with
  | Cert_cache.Stale_entry _ -> ()
  | _ -> Alcotest.fail "poisoned pin must revalidate stale");
  (* recomputed and overwritten by a cache-backed scan *)
  let level, _ = Classify.scan (module Recording) ~certs:dir ~limit:10 s9 in
  Alcotest.(check bool) "S_9 is 9-recording, not 10" true (level = Classify.Finite 9);
  Alcotest.(check string) "entry rewritten" pristine (read_file file);
  Alcotest.(check bool) "healed entry loads" true (lookup s9 ~dir ~n:10 = `Negative);
  poison "";
  Alcotest.(check bool) "no pin is a miss" true (lookup s9 ~dir ~n:10 = `Miss)

(* [certs revalidate]/[gc] re-anchor each entry through its type hint,
   so parametric types outside the resolve pool (S_9, T_7) stay valid. *)
let test_revalidate_hinted_types () =
  with_dir @@ fun dir ->
  List.iter
    (fun ot -> ignore (Classify.classify ~limit:10 ~certs:dir ot))
    [ Rcons_spec.Sn.make 9; Rcons_spec.Tn.make 7 ];
  let entries = Cert_cache.list_dir dir in
  Alcotest.(check bool) "entries written" true (List.length entries > 0);
  List.iter
    (fun (file, _) ->
      match Cert_cache.revalidate_file file with
      | Cert_cache.Valid -> ()
      | Cert_cache.Stale_entry m | Cert_cache.Corrupt m ->
          Alcotest.failf "%s: %s" (Filename.basename file) m)
    entries;
  Alcotest.(check (list string)) "gc removes nothing" [] (List.map fst (Cert_cache.gc dir))

(* A stack(2) whose [apply] counts its calls, built fresh per pass so
   the fingerprint memo (keyed by module identity) cannot hide work. *)
let counting_stack count : OT.t =
  let module S = (val Rcons_spec.Stack.spec ~domain:2 ~readable:false) in
  OT.Pack
    (module struct
      include S

      let apply q op =
        incr count;
        S.apply q op
    end)

(* The cost guard, counted rather than timed: a warm classify at limit
   12 must cost less than one depth-12 fingerprint of stack(2) (27 645
   transitions), the key the cache used to compute for every pass. *)
let test_warm_cost_guard () =
  with_dir @@ fun dir ->
  let cold_calls = ref 0 and warm_calls = ref 0 in
  let cold = Classify.classify ~limit:12 ~certs:dir (counting_stack cold_calls) in
  let warm = Classify.classify ~limit:12 ~certs:dir (counting_stack warm_calls) in
  Alcotest.(check string) "warm = cold"
    (Format.asprintf "%a" Classify.pp_report cold)
    (Format.asprintf "%a" Classify.pp_report warm);
  if !warm_calls >= 27_645 then
    Alcotest.failf "warm pass made %d apply calls (cold: %d), want < 27645" !warm_calls
      !cold_calls

(* The committed seed, located the way test_log.ml locates
   _counterexamples/: walk up from the test's working directory. *)
let committed_certs () =
  let rec go dir depth =
    let candidate = Filename.concat dir "_certs" in
    if depth > 6 then Alcotest.fail "cannot locate _certs/"
    else if Sys.file_exists candidate && Sys.is_directory candidate then candidate
    else go (Filename.concat dir "..") (depth + 1)
  in
  go "." 0

let json_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare

(* The format pin: classifying the catalogue, then S_3..S_5 and
   T_3..T_6, at limit 6 writes every committed entry byte for byte. *)
let test_committed_seed_matches () =
  let committed = committed_certs () in
  with_dir @@ fun dir ->
  List.iter
    (fun ot -> ignore (Classify.classify ~limit:6 ~certs:dir ot))
    (List.map (fun e -> e.Rcons_spec.Catalogue.ot) Rcons_spec.Catalogue.all
    @ List.map Rcons_spec.Sn.make [ 3; 4; 5 ]
    @ List.map Rcons_spec.Tn.make [ 3; 4; 5; 6 ]);
  let files = json_files committed in
  Alcotest.(check bool) "seed is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let written = Filename.concat dir f in
      if not (Sys.file_exists written) then Alcotest.failf "%s is not written by classify" f;
      Alcotest.(check string) f (read_file (Filename.concat committed f)) (read_file written))
    files

(* The certificate behind [solve] and the randomized [log]: up to the
   key depth it does not depend on the cache, so none, an empty one,
   one a classify run has filled, and (a copy of) the committed seed
   all give the seeded scan's witness.  Above it a hit is a re-proved
   witness that can differ from the seeded scan's when the entry was
   written for another type sharing the depth-8 key; S_9 and S_10 share
   theirs, and S_10's level-9 entry still gives S_9 the seeded scan's
   witness. *)
let show_recording_witness ot certs n =
  match Rcons.recording_witness ?certs ot n with
  | None -> "none"
  | Some c -> Format.asprintf "%a" Certificate.pp_recording c

let test_recording_witness_cache_independent () =
  let s4 = Rcons_spec.Sn.make 4 in
  let show = show_recording_witness s4 in
  List.iter
    (fun n ->
      let expected = show None n in
      let check what certs =
        Alcotest.(check string) (Printf.sprintf "n=%d, %s" n what) expected (show (Some certs) n)
      in
      with_dir (fun dir ->
          check "empty cache" dir;
          ignore (Classify.classify ~limit:5 ~certs:dir s4);
          check "after classify" dir);
      with_dir (fun dir ->
          let committed = committed_certs () in
          List.iter
            (fun f -> write_file (Filename.concat dir f) (read_file (Filename.concat committed f)))
            (json_files committed);
          check "committed seed" dir))
    [ 3; 4 ];
  with_dir @@ fun dir ->
  let s9 = Rcons_spec.Sn.make 9 in
  ignore (Classify.classify ~limit:9 ~certs:dir (Rcons_spec.Sn.make 10));
  Alcotest.(check string) "S_9 at n=9, cache filled by S_10"
    (show_recording_witness s9 None 9)
    (show_recording_witness s9 (Some dir) 9)

(* S_9 and S_10 share their depth-8 key, so one directory holds both
   types' level-9 and level-10 entries in one file per property and
   level.  A cold pass over both at limit 10 and two warm ones agree
   with a cache-free pass, neither warm pass rewrites a file, every
   file revalidates, gc removes nothing, and each type's recording
   witness at n = 9 and 10 is a re-proved one (its cache-free one at
   n = 10, where only it can have one). *)
let test_shared_key_one_dir () =
  with_dir @@ fun dir ->
  let s9 = Rcons_spec.Sn.make 9 and s10 = Rcons_spec.Sn.make 10 in
  Alcotest.(check string)
    "S_9 and S_10 share the key" (entry_file dir s9 10) (entry_file dir s10 10);
  let render certs =
    String.concat "\n"
      (List.map
         (fun ot -> Format.asprintf "%a" Classify.pp_report (Classify.classify ~limit:10 ?certs ot))
         [ s9; s10 ])
  in
  let mtimes () =
    List.map (fun (f, _) -> (f, (Unix.stat f).Unix.st_mtime)) (Cert_cache.list_dir dir)
  in
  let nocache = render None in
  Alcotest.(check string) "cold = no-cache" nocache (render (Some dir));
  let before = mtimes () in
  for pass = 1 to 2 do
    Alcotest.(check string) (Printf.sprintf "warm %d = no-cache" pass) nocache (render (Some dir));
    Alcotest.(check bool) (Printf.sprintf "warm %d rewrites nothing" pass) true (mtimes () = before)
  done;
  List.iter
    (fun (file, _) ->
      match Cert_cache.revalidate_file file with
      | Cert_cache.Valid -> ()
      | Cert_cache.Stale_entry m | Cert_cache.Corrupt m ->
          Alcotest.failf "%s: %s" (Filename.basename file) m)
    (Cert_cache.list_dir dir);
  Alcotest.(check (list string)) "gc removes nothing" [] (List.map fst (Cert_cache.gc dir));
  List.iter
    (fun n ->
      List.iter
        (fun (OT.Pack (module T) as ot) ->
          let label = Printf.sprintf "%s, n=%d" (OT.name ot) n in
          match (Rcons.recording_witness ~certs:dir ot n, Rcons.recording_witness ot n) with
          | None, None -> ()
          | Some c, Some fresh ->
              Alcotest.(check bool) (label ^ ": re-proved") true (Certificate.validate_recording c);
              if n = 10 then
                Alcotest.(check string) (label ^ ": the cache-free witness")
                  (Format.asprintf "%a" Certificate.pp_recording fresh)
                  (Format.asprintf "%a" Certificate.pp_recording c)
          | _ -> Alcotest.failf "%s: the cache changed the verdict" label)
        [ s9; s10 ])
    [ 9; 10 ];
  Alcotest.(check bool) "witness lookups rewrite nothing" true (mtimes () = before)

let suite =
  [
    Alcotest.test_case "fingerprint bytes pinned at depths 8 and 12" `Quick test_fingerprint_pins;
    Alcotest.test_case "resolve reuses one pool" `Quick test_resolve_pool_shared;
    Alcotest.test_case "catalogue round-trip + revalidate" `Quick test_roundtrip_catalogue;
    test_roundtrip_random;
    Alcotest.test_case "candidate count matches enumeration" `Quick test_candidate_count;
    Alcotest.test_case "poisoned Q-set: rejected and recomputed" `Quick test_poisoned_q_set;
    Alcotest.test_case "stale fingerprint: rejected" `Quick test_stale_fingerprint;
    Alcotest.test_case "poisoned negative: rejected" `Quick test_poisoned_negative;
    Alcotest.test_case "corrupt entry: flagged and gc'd" `Quick test_corrupt_and_gc;
    Alcotest.test_case "missing dir = empty cache" `Quick test_missing_dir;
    Alcotest.test_case "classify warm = cold = no-cache" `Quick test_classify_warm_equals_cold;
    Alcotest.test_case "warm = cold above the key depth" `Quick test_warm_equals_cold_deep;
    Alcotest.test_case "positive above key depth: re-proved hit" `Quick
      test_positive_above_key_depth;
    Alcotest.test_case "negative above key depth: pinned" `Quick
      test_negative_above_key_depth_pinned;
    Alcotest.test_case "revalidate resolves S_9/T_7 by type hint" `Quick
      test_revalidate_hinted_types;
    Alcotest.test_case "warm classify costs less than a deep key" `Quick test_warm_cost_guard;
    Alcotest.test_case "committed _certs/ = what classify writes" `Quick
      test_committed_seed_matches;
    Alcotest.test_case "S_9 and S_10 share one dir above depth 8" `Quick test_shared_key_one_dir;
    Alcotest.test_case "recording_witness is cache-independent" `Quick
      test_recording_witness_cache_independent;
  ]
