(* Reachability searches underlying the decision procedures.

   [Make (T)] provides, for a fixed deterministic type T:
   - [reachable]: the set Q_X(q0, op_1, ..., op_n) of Definition 4 -- all
     states reachable by applying operations of *distinct* processes in
     some order, the first of which belongs to team X;
   - [responses]: the set R_{X,j} of Definition 2 -- all pairs (r, q) such
     that some sequence of distinct-process operations starting with a
     process of team X and including process j makes op_j return r and
     leaves the object in state q.

   Both searches work on the multiset abstraction: a team is a multiset of
   operations, and "distinct processes" becomes "use each multiset element
   at most once".  Sequences are prefix-closed (every prefix of a valid
   sequence is a valid sequence), so states/pairs are collected at every
   node of the search tree.

   The searches are memoized *compositionally*: the set collected below a
   node depends only on (current state, remaining operation multisets),
   not on the path that reached it, so each node's set is computed once
   and cached in tables that live for the lifetime of the [Make (T)]
   instance.  Because the two teams are interchangeable once the first
   operation has been applied, the cache key sorts the two remaining
   multisets -- the A-first and B-first searches of one candidate, and
   overlapping candidates across scan levels, share every common
   sub-search.  Callers that check many candidates (the witness scans of
   {!Recording} / {!Discerning} and the incremental level scans of
   {!Classify}) instantiate [Make (T)] once and reuse it; the tables are
   mutex-guarded so the parallel candidate sweeps of
   {!Rcons_par.Pool.find_first} may share an instance. *)

module Make (T : Rcons_spec.Object_type.S) = struct
  module State_set = Set.Make (struct
    type t = T.state

    let compare = T.compare_state
  end)

  module Pair_set = Set.Make (struct
    type t = T.resp * T.state

    let compare (r1, s1) (r2, s2) =
      let c = T.compare_resp r1 r2 in
      if c <> 0 then c else T.compare_state s1 s2
  end)

  (* A team's operations with multiplicities.  [ops] holds the distinct
     operations; [counts] the number of processes assigned each one. *)
  type multiset = { ops : T.op array; counts : int array }

  (* Group the sorted list in one linear pass: each element either extends
     the current run or starts a new one.  (An earlier version re-ran
     [List.partition] per distinct operation, which was quadratic.) *)
  let multiset_of_list ops =
    let sorted = List.sort T.compare_op ops in
    let rec group acc = function
      | [] -> List.rev acc
      | op :: rest -> (
          match acc with
          | (o, c) :: tl when T.compare_op o op = 0 -> group ((o, c + 1) :: tl) rest
          | _ -> group ((op, 1) :: acc) rest)
    in
    let grouped = group [] sorted in
    { ops = Array.of_list (List.map fst grouped); counts = Array.of_list (List.map snd grouped) }

  let total ms = Array.fold_left ( + ) 0 ms.counts

  let dec counts i =
    let counts = Array.copy counts in
    counts.(i) <- counts.(i) - 1;
    counts

  (* --- memo tables --- *)

  (* Canonical encoding of a search node.  The remaining multisets are
     rendered as "op-digest:count" runs (zero counts dropped) and the two
     teams' renderings are sorted, because below the first operation the
     searches treat the teams symmetrically. *)
  let ms_key ops_digests counts =
    let b = Buffer.create 32 in
    Array.iteri
      (fun i c -> if c > 0 then Buffer.add_string b (Printf.sprintf "%s:%d;" ops_digests.(i) c))
      counts;
    Buffer.contents b

  let node_key ~state_d ka kb extra =
    let lo, hi = if ka <= kb then (ka, kb) else (kb, ka) in
    String.concat "|" [ state_d; lo; hi; extra ]

  let op_digests ms = Array.map (fun op -> Digest.to_hex (Digest.string (Rcons_spec.Object_type.digest op))) ms.ops

  let memo_lock = Mutex.create ()
  let reach_tbl : (string, State_set.t) Hashtbl.t = Hashtbl.create 256
  let resp_tbl : (string, Pair_set.t) Hashtbl.t = Hashtbl.create 256

  let with_lock f =
    Mutex.lock memo_lock;
    let r = f () in
    Mutex.unlock memo_lock;
    r

  let memoized tbl key compute =
    match with_lock (fun () -> Hashtbl.find_opt tbl key) with
    | Some v -> v
    | None ->
        let v = compute () in
        with_lock (fun () -> if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v);
        v

  (* Q_X: states reachable when the first operation comes from [first] and
     subsequent operations come from what remains of [first] and [other].
     [collect s ca cb] is the set of states collected at and below the
     node (s, ca, cb); it is independent of which team each multiset
     represents, so the memo key may sort them. *)
  let reachable ~q0 ~(first : multiset) ~(other : multiset) =
    let da = op_digests first and db = op_digests other in
    let rec collect s ca cb =
      let key = node_key ~state_d:(T.digest_state s) (ms_key da ca) (ms_key db cb) "" in
      memoized reach_tbl key (fun () ->
          let acc = ref (State_set.singleton s) in
          Array.iteri
            (fun i c ->
              if c > 0 then
                let s', _ = T.apply s first.ops.(i) in
                acc := State_set.union !acc (collect s' (dec ca i) cb))
            ca;
          Array.iteri
            (fun i c ->
              if c > 0 then
                let s', _ = T.apply s other.ops.(i) in
                acc := State_set.union !acc (collect s' ca (dec cb i)))
            cb;
          !acc)
    in
    let found = ref State_set.empty in
    Array.iteri
      (fun i op ->
        if first.counts.(i) > 0 then
          let s', _ = T.apply q0 op in
          found := State_set.union !found (collect s' (dec first.counts i) (Array.copy other.counts)))
      first.ops;
    !found

  (* R_{X,j} where process j is one instance of operation [tracked_op] on
     team [tracked_team].  [team_a]/[team_b] are the full team multisets
     (including the tracked instance, which is removed here); [first] names
     the team X whose member must move first. *)
  let responses ~q0 ~(team_a : multiset) ~(team_b : multiset) ~first
      ~(tracked_team : Rcons_spec.Team.t) ~(tracked_op : T.op) =
    let remove_tracked ms =
      let idx = ref (-1) in
      Array.iteri (fun i op -> if T.compare_op op tracked_op = 0 then idx := i) ms.ops;
      if !idx < 0 || ms.counts.(!idx) = 0 then
        invalid_arg "Search.responses: tracked operation not in its team";
      { ms with counts = dec ms.counts !idx }
    in
    let ta, tb =
      match tracked_team with
      | Rcons_spec.Team.A -> (remove_tracked team_a, team_b)
      | Rcons_spec.Team.B -> (team_a, remove_tracked team_b)
    in
    let da = op_digests ta and db = op_digests tb in
    let tracked_d = Digest.to_hex (Digest.string (Rcons_spec.Object_type.digest tracked_op)) in
    (* [tracked] = None while op_j has not been applied; Some r afterwards.
       [collect s ca cb tracked] is the pair set at and below the node. *)
    let rec collect s ca cb tracked =
      let extra =
        match tracked with
        | None -> tracked_d ^ "?"
        | Some r -> tracked_d ^ "!" ^ Digest.to_hex (Digest.string (Rcons_spec.Object_type.digest r))
      in
      let key = node_key ~state_d:(T.digest_state s) (ms_key da ca) (ms_key db cb) extra in
      memoized resp_tbl key (fun () ->
          let acc =
            ref (match tracked with Some r -> Pair_set.singleton (r, s) | None -> Pair_set.empty)
          in
          Array.iteri
            (fun i c ->
              if c > 0 then
                let s', _ = T.apply s ta.ops.(i) in
                acc := Pair_set.union !acc (collect s' (dec ca i) cb tracked))
            ca;
          Array.iteri
            (fun i c ->
              if c > 0 then
                let s', _ = T.apply s tb.ops.(i) in
                acc := Pair_set.union !acc (collect s' ca (dec cb i) tracked))
            cb;
          (match tracked with
          | None ->
              let s', r = T.apply s tracked_op in
              acc := Pair_set.union !acc (collect s' ca cb (Some r))
          | Some _ -> ());
          !acc)
    in
    let found = ref Pair_set.empty in
    (* First step: a process of team [first] moves, which is either a
       regular instance of that team's multiset or the tracked process when
       it belongs to team [first]. *)
    let start_regular ms ms_counts other_counts flip =
      Array.iteri
        (fun i op ->
          if ms.counts.(i) > 0 then
            let s', _ = T.apply q0 op in
            let set =
              if flip then collect s' (Array.copy other_counts) (dec ms_counts i) None
              else collect s' (dec ms_counts i) (Array.copy other_counts) None
            in
            found := Pair_set.union !found set)
        ms.ops
    in
    (match first with
    | Rcons_spec.Team.A -> start_regular ta ta.counts tb.counts false
    | Rcons_spec.Team.B -> start_regular tb tb.counts ta.counts true);
    if tracked_team = first then begin
      let s', r = T.apply q0 tracked_op in
      found :=
        Pair_set.union !found (collect s' (Array.copy ta.counts) (Array.copy tb.counts) (Some r))
    end;
    !found
end
