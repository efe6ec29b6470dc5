(* Tests for the combinatorial enumeration helpers used by the property
   checkers. *)

open Rcons_check

let binomial n k =
  let rec go acc i = if i > k then acc else go (acc * (n - i + 1) / i) (i + 1) in
  go 1 1

let test_multiset_counts () =
  (* |multisets k over m elements| = C(m + k - 1, k) *)
  List.iter
    (fun (k, m) ->
      let universe = List.init m Fun.id in
      Alcotest.(check int)
        (Printf.sprintf "count k=%d m=%d" k m)
        (binomial (m + k - 1) k)
        (List.length (Enumerate.multisets k universe)))
    [ (1, 1); (2, 2); (3, 2); (2, 3); (4, 3); (5, 2) ]

let test_multisets_are_multisets () =
  let ms = Enumerate.multisets 3 [ 0; 1 ] in
  List.iter
    (fun m -> Alcotest.(check int) "size 3" 3 (List.length m))
    ms;
  (* no duplicates among the multisets themselves *)
  let canon = List.map (List.sort compare) ms in
  Alcotest.(check int) "all distinct" (List.length canon)
    (List.length (List.sort_uniq compare canon))

let test_multisets_empty_universe () =
  Alcotest.(check int) "k=0 over empty" 1 (List.length (Enumerate.multisets 0 []));
  Alcotest.(check int) "k>0 over empty" 0 (List.length (Enumerate.multisets 2 []))

let test_team_splits () =
  Alcotest.(check (list (pair int int))) "n=2" [ (1, 1) ] (Enumerate.team_splits 2);
  Alcotest.(check (list (pair int int))) "n=5" [ (1, 4); (2, 3) ] (Enumerate.team_splits 5);
  Alcotest.(check (list (pair int int))) "n=6" [ (1, 5); (2, 4); (3, 3) ] (Enumerate.team_splits 6)

let test_splits_cover_n () =
  List.iter
    (fun n ->
      List.iter
        (fun (a, b) ->
          Alcotest.(check int) "a + b = n" n (a + b);
          Alcotest.(check bool) "both non-empty, a <= b" true (a >= 1 && a <= b))
        (Enumerate.team_splits n))
    [ 2; 3; 4; 7; 10 ]

let test_pairs () =
  Alcotest.(check int) "product size" 6 (List.length (Enumerate.pairs [ 1; 2 ] [ 3; 4; 5 ]));
  Alcotest.(check (list (pair int int))) "order" [ (1, 3); (1, 4) ] (Enumerate.pairs [ 1 ] [ 3; 4 ])

(* The index-addressed view is the materialized enumeration, element for
   element and in order: the scans return the first witness in this
   order, so any drift would change which witness is found.  [nth]
   unranks each multiset from its index alone, so the grid also runs
   universes of 6-7 operations (one initial state, levels 2-8, where
   every level has an unequal split and every even one an equal split). *)
let test_view_is_enumeration () =
  let equal = ref 0 and unequal = ref 0 in
  let grid states us ns =
    List.concat_map
      (fun st -> List.concat_map (fun u -> List.map (fun n -> (st, u, n)) ns) us)
      states
  in
  List.iter
    (fun (states, u, n) ->
      let initial_states = List.init states Fun.id and ops = List.init u Fun.id in
      let label = Printf.sprintf "%d states, %d ops, n=%d" states u n in
      let v = Enumerate.view ~initial_states ~ops n in
      let reference = Enumerate.candidates ~initial_states ~ops n in
      Alcotest.(check int) (label ^ ": count") (List.length reference) (Enumerate.count v);
      Alcotest.(check int)
        (label ^ ": candidate_count")
        (Enumerate.count v)
        (Enumerate.candidate_count ~initial_states ~ops n);
      List.iteri
        (fun i ((_, a, b) as expected) ->
          if List.length a = List.length b then incr equal else incr unequal;
          if Enumerate.nth v i <> expected then Alcotest.failf "%s: nth %d" label i)
        reference)
    (grid [ 1; 2; 3 ] (List.init 6 Fun.id) (List.init 8 (fun k -> k + 2))
    @ grid [ 1 ] [ 6; 7 ] (List.init 7 (fun k -> k + 2)));
  Alcotest.(check bool) "equal and unequal splits covered" true (!equal > 0 && !unequal > 0)

let test_view_bounds () =
  let v = Enumerate.view ~initial_states:[ 0 ] ~ops:[ 0; 1 ] 3 in
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "nth %d" i)
        (Invalid_argument "Enumerate.nth: index out of range") (fun () ->
          ignore (Enumerate.nth v i)))
    [ -1; Enumerate.count v ]

let suite =
  [
    Alcotest.test_case "multiset counts (stars and bars)" `Quick test_multiset_counts;
    Alcotest.test_case "multisets have the right size, no dups" `Quick test_multisets_are_multisets;
    Alcotest.test_case "multisets over empty universe" `Quick test_multisets_empty_universe;
    Alcotest.test_case "team splits" `Quick test_team_splits;
    Alcotest.test_case "splits cover n" `Quick test_splits_cover_n;
    Alcotest.test_case "pairs" `Quick test_pairs;
    Alcotest.test_case "view is the enumeration, in order" `Quick test_view_is_enumeration;
    Alcotest.test_case "view index bounds" `Quick test_view_bounds;
  ]
