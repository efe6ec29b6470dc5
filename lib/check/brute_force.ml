(* Oracle implementations of Definitions 2 and 4 by literal enumeration,
   with no multiset symmetry reduction and no memoized search: every
   ordered assignment of operations to processes, every team partition
   containing process 1, and every permutation of every subset of
   processes is enumerated directly from the text of the definitions.

   Exponentially slower than the production checkers, but independent:
   the property-based tests compare the two on random small types, which
   guards the symmetry arguments (teams as multisets, team-swap
   invariance, prefix closure) actually used by the fast code. *)

open Rcons_spec

(* All ordered sequences of distinct elements from [xs] (all subsets, all
   orders), including the empty sequence. *)
let rec arrangements xs =
  [] :: List.concat_map (fun x -> List.map (fun rest -> x :: rest) (arrangements (List.filter (( <> ) x) xs))) xs

(* All assignments of one operation from [ops] to each of [n] processes. *)
let rec assignments n ops =
  if n = 0 then [ [] ]
  else List.concat_map (fun op -> List.map (fun rest -> op :: rest) (assignments (n - 1) ops)) ops

(* All ways to choose team A as a non-empty proper subset of 0..n-1. *)
let partitions n =
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun sub -> x :: sub) s
  in
  subsets (List.init n Fun.id)
  |> List.filter (fun a -> a <> [] && List.length a < n)

let run_sequence (type s o r)
    (module T : Object_type.S with type state = s and type op = o and type resp = r) q0 ops =
  List.fold_left (fun q op -> fst (T.apply q op)) q0 ops

(* Q_X by the letter of Definition 4. *)
let q_set (type s o r)
    (module T : Object_type.S with type state = s and type op = o and type resp = r) ~q0
    ~(ops : o array) ~(team_x : int list) =
  let n = Array.length ops in
  arrangements (List.init n Fun.id)
  |> List.filter (fun seq -> match seq with [] -> false | i :: _ -> List.mem i team_x)
  |> List.map (fun seq -> run_sequence (module T) q0 (List.map (fun i -> ops.(i)) seq))

let mem_state (type s o r)
    (module T : Object_type.S with type state = s and type op = o and type resp = r) q qs =
  List.exists (fun q' -> T.compare_state q q' = 0) qs

(* The outer candidate space (initial state x ordered assignment) shared
   by both oracles, as an array so that the sweep can be fanned out
   across domains. *)
let outer_candidates (type s o r)
    (module T : Object_type.S with type state = s and type op = o and type resp = r) n =
  List.concat_map
    (fun q0 -> List.map (fun ops_list -> (q0, Array.of_list ops_list)) (assignments n T.update_ops))
    T.candidate_initial_states
  |> Array.of_list

(* Does any candidate satisfy [p]?  A parallel [find_first] that only
   reports whether it found anything. *)
let any_candidate ?domains candidates p =
  Rcons_par.Pool.find_first ?domains (Array.length candidates) (fun ci ->
      if p candidates.(ci) then Some () else None)
  <> None

(* Definition 4, literally. *)
let is_recording ?domains (Object_type.Pack (module T)) n =
  if n < 2 then invalid_arg "Brute_force.is_recording";
  any_candidate ?domains (outer_candidates (module T) n) (fun (q0, ops) ->
      List.exists
        (fun team_a ->
          let team_b = List.filter (fun i -> not (List.mem i team_a)) (List.init n Fun.id) in
          let q_a = q_set (module T) ~q0 ~ops ~team_x:team_a in
          let q_b = q_set (module T) ~q0 ~ops ~team_x:team_b in
          let disjoint = not (List.exists (fun q -> mem_state (module T) q q_b) q_a) in
          let cond2 = (not (mem_state (module T) q0 q_a)) || List.length team_b = 1 in
          let cond3 = (not (mem_state (module T) q0 q_b)) || List.length team_a = 1 in
          disjoint && cond2 && cond3)
        (partitions n))

(* R_{X,j} by the letter of Definition 2. *)
let r_set (type s o r)
    (module T : Object_type.S with type state = s and type op = o and type resp = r) ~q0
    ~(ops : o array) ~(team_x : int list) ~j =
  let n = Array.length ops in
  arrangements (List.init n Fun.id)
  |> List.filter (fun seq ->
         (match seq with [] -> false | i :: _ -> List.mem i team_x) && List.mem j seq)
  |> List.map (fun seq ->
         let resp_j = ref None in
         let final =
           List.fold_left
             (fun q i ->
               let q', r = T.apply q ops.(i) in
               if i = j then resp_j := Some r;
               q')
             q0 seq
         in
         (Option.get !resp_j, final))

(* Definition 2, literally. *)
let is_discerning ?domains (Object_type.Pack (module T)) n =
  if n < 2 then invalid_arg "Brute_force.is_discerning";
  let mem_pair (r, q) pairs =
    List.exists (fun (r', q') -> T.compare_resp r r' = 0 && T.compare_state q q' = 0) pairs
  in
  any_candidate ?domains (outer_candidates (module T) n) (fun (q0, ops) ->
      List.exists
        (fun team_a ->
          let team_b = List.filter (fun i -> not (List.mem i team_a)) (List.init n Fun.id) in
          List.for_all
            (fun j ->
              let r_a = r_set (module T) ~q0 ~ops ~team_x:team_a ~j in
              let r_b = r_set (module T) ~q0 ~ops ~team_x:team_b ~j in
              not (List.exists (fun p -> mem_pair p r_b) r_a))
            (List.init n Fun.id))
        (partitions n))
