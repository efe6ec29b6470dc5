(* Enumeration helpers for the property-checker searches.

   Both Q_X (Definition 4) and R_{X,j} (Definition 2) depend only on the
   multiset of operations assigned to each team: process indices enter the
   definitions only through the constraint that each process appears at
   most once in a sequence.  Enumerating multisets instead of vectors is an
   exponential symmetry reduction with the same answer. *)

(* All multisets of size [k] over [universe], each as a sorted list. *)
let rec multisets k universe =
  match universe with
  | [] -> if k = 0 then [ [] ] else []
  | op :: rest ->
      let with_j j =
        let prefix = List.init j (fun _ -> op) in
        List.map (fun ms -> prefix @ ms) (multisets (k - j) rest)
      in
      List.concat_map with_j (List.init (k + 1) Fun.id)

(* Splits of [n] processes into two non-empty team sizes (a, b), a <= b.
   The properties of Definitions 2 and 4 are invariant under swapping the
   two teams, so ordered splits with a > b are redundant. *)
let team_splits n =
  let rec go a acc = if a > n - a then List.rev acc else go (a + 1) ((a, n - a) :: acc) in
  go 1 []

(* Cartesian product used when pairing the two teams' multisets. *)
let pairs xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* Pairing a list with itself up to swapping the two components: only
   (x_i, x_j) with i <= j.  For an equal team split (a, a), Definitions 2
   and 4 are invariant under exchanging the two teams' multisets, so the
   mirrored half of the square is redundant -- and because the mirror of
   any valid pair is valid, the first valid pair in the full row-major
   square always has i <= j, so a first-match search over this reduced
   enumeration returns the same witness as one over the full square. *)
let sym_pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) (x :: rest) @ go rest
  in
  go xs

(* |multisets k universe| = C(|universe| + k - 1, k), computed without
   materializing the lists. *)
let multiset_count k universe_size =
  let rec binom n k = if k = 0 then 1 else binom (n - 1) (k - 1) * n / k in
  if universe_size = 0 then if k = 0 then 1 else 0
  else binom (universe_size + k - 1) k

(* The shared candidate space of the witness searches at level n: every
   (initial state, team-A multiset, team-B multiset) with the team-swap
   symmetry of equal splits folded away, in the order of [candidates]
   below.  Both decision procedures and the certificate cache's
   negative-entry revalidation must agree on this enumeration, so it
   lives here.

   The space is addressed by index instead of materialized: it grows as
   C(u + k - 1, k)^2 in the operation count u and team size k, while a
   scan usually stops after a handful of candidates.  Index i maps to its
   candidate through the initial-state block (every state owns the same
   [per_state] run), the team split whose prefix-sum range holds the
   remainder, and then a row-major cell of the split's square (a < b) or
   of its upper triangle (a = b, the [sym_pairs] order). *)

(* The per-state layout of level n over u operations: the team splits
   and the prefix sums of their block sizes ([starts.(s)] is the offset
   of split s; the last entry is the per-state total). *)
let layout ~u n =
  let splits = Array.of_list (team_splits n) in
  let block (a, b) =
    if a = b then
      let c = multiset_count a u in
      c * (c + 1) / 2
    else multiset_count a u * multiset_count b u
  in
  let starts = Array.make (Array.length splits + 1) 0 in
  Array.iteri (fun s split -> starts.(s + 1) <- starts.(s) + block split) splits;
  (splits, starts)

let candidate_count ~initial_states ~ops n =
  let _, starts = layout ~u:(List.length ops) n in
  List.length initial_states * starts.(Array.length starts - 1)

type ('s, 'o) view = {
  states : 's array;
  splits : (int * int) array;
  starts : int array;
  per_state : int;
  msets : 'o list array array; (* [msets.(k)]: the size-k multisets, in [multisets] order *)
}

let view ~initial_states ~ops n =
  let splits, starts = layout ~u:(List.length ops) n in
  {
    states = Array.of_list initial_states;
    splits;
    starts;
    per_state = starts.(Array.length starts - 1);
    msets = Array.init (max n 1) (fun k -> if k = 0 then [||] else Array.of_list (multisets k ops));
  }

let count v = Array.length v.states * v.per_state

(* Largest x in [lo, hi] with [start x <= r], for [start] nondecreasing
   and [start lo <= r]. *)
let rec last_at_most start r lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if start mid <= r then last_at_most start r mid hi else last_at_most start r lo (mid - 1)

let nth v i =
  if i < 0 || i >= count v then invalid_arg "Enumerate.nth: index out of range";
  let q0 = v.states.(i / v.per_state) and r = i mod v.per_state in
  let s = last_at_most (fun s -> v.starts.(s)) r 0 (Array.length v.splits - 1) in
  let r = r - v.starts.(s) and a, b = v.splits.(s) in
  let ms_a = v.msets.(a) and ms_b = v.msets.(b) in
  if a = b then
    (* Row x of the upper triangle holds the c - x cells (x, x..c-1). *)
    let c = Array.length ms_a in
    let row_start x = (x * c) - (x * (x - 1) / 2) in
    let x = last_at_most row_start r 0 (c - 1) in
    (q0, ms_a.(x), ms_a.(x + r - row_start x))
  else
    let cb = Array.length ms_b in
    (q0, ms_a.(r / cb), ms_b.(r mod cb))

(* The reference materialization of the same order, kept for the tests
   that pin [nth] against it. *)
let candidates ~initial_states ~ops n =
  List.concat_map
    (fun q0 ->
      List.concat_map
        (fun (a, b) ->
          let ps =
            if a = b then sym_pairs (multisets a ops)
            else pairs (multisets a ops) (multisets b ops)
          in
          List.map (fun (ops_a, ops_b) -> (q0, ops_a, ops_b)) ps)
        (team_splits n))
    initial_states
