(* Reachability searches underlying the decision procedures: Q_X of
   Definition 4 ([reachable]) and R_{X,j} of Definition 2 ([responses]),
   on the multiset abstraction -- a team is a multiset of operations,
   and "distinct processes" means "use each element at most once".
   Sequences are prefix-closed, so states/pairs are collected at every
   node of the search tree; Q_X is the case with no tracked process.

   The searches run on integers.  A context interns each state and
   response as a dense id (by [T.compare_*], so equal values share one),
   memoizes transitions as (state id, universe index) -> (state id,
   response id), so [T.apply] runs once per transition, and interns
   each remaining multiset -- a count vector over [T.update_ops] -- as
   an id, so node keys are injective for any universe and team size.
   The set below a node depends only on (state, remaining multisets,
   tracked operation and response), so it is computed once per context;
   below the first operation the teams are interchangeable, so the key
   sorts the two multiset ids, and the A-first and B-first searches of a
   candidate, and overlapping candidates across levels, share their
   sub-searches.  Callers decide on id sets; ids become values only for
   a witness.

   The -j rule: the instance's one context is never used by two domains
   at once.  [with_ctx] holds its mutex for a whole check, so the
   participants of a {!Rcons_par.Pool.find_first} sweep take turns on
   the warm tables (a context per participant measured no faster: the
   extra one starts cold), and a scan reuses it across all its levels. *)

module Make (T : Rcons_spec.Object_type.S) = struct
  module State_ord = struct
    type t = T.state

    let compare = T.compare_state
  end

  module State_set = Set.Make (State_ord)

  module Pair_set = Set.Make (struct
    type t = T.resp * T.state

    let compare (r1, s1) (r2, s2) =
      let c = T.compare_resp r1 r2 in
      if c <> 0 then c else T.compare_state s1 s2
  end)

  module State_map = Map.Make (State_ord)
  module Resp_map = Map.Make (struct
    type t = T.resp

    let compare = T.compare_resp
  end)

  (* (response id, state id) pairs; Q sets hold (-1, state id). *)
  module Ids = Set.Make (struct
    type t = int * int

    let compare (r1, s1) (r2, s2) = if r1 <> r2 then Int.compare r1 r2 else Int.compare s1 s2
  end)

  (* A team's operations with multiplicities.  [ops] holds the distinct
     operations; [counts] the number of processes assigned each one. *)
  type multiset = { ops : T.op array; counts : int array }

  (* Group the sorted list in one linear pass: each element either extends
     the current run or starts a new one. *)
  let multiset_of_list ops =
    let group acc op =
      match acc with
      | (o, c) :: tl when T.compare_op o op = 0 -> (o, c + 1) :: tl
      | _ -> (op, 1) :: acc
    in
    let grouped = List.rev (List.fold_left group [] (List.sort T.compare_op ops)) in
    { ops = Array.of_list (List.map fst grouped); counts = Array.of_list (List.map snd grouped) }

  let total ms = Array.fold_left ( + ) 0 ms.counts
  let universe = Array.of_list T.update_ops
  let u = Array.length universe

  let index op =
    match Array.find_index (fun o -> T.compare_op o op = 0) universe with
    | Some i -> i
    | None -> invalid_arg "Search: operation outside the declared universe"

  (* An id -> value table that only grows. *)
  type 'a vec = { mutable data : 'a array; mutable len : int }

  let push v x =
    if v.len = Array.length v.data then v.data <- Array.append v.data (Array.make (max 16 v.len) x);
    v.data.(v.len) <- x;
    v.len <- v.len + 1;
    v.len - 1

  (* A search node: the state, the two remaining multisets (sorted),
     and for R_{X,j} the tracked operation and its response (-1 while
     it is pending; both -1 for Q_X). *)
  type node = { s : int; lo : int; hi : int; t : int; r : int }

  module Node = Hashtbl.Make (struct
    type t = node

    let equal a b = a.s = b.s && a.lo = b.lo && a.hi = b.hi && a.t = b.t && a.r = b.r
    let hash k = Hashtbl.hash ((((((((k.s * 31) + k.lo) * 31) + k.hi) * 31) + k.t) * 31) + k.r)
  end)

  let node s a b t r = if a <= b then { s; lo = a; hi = b; t; r } else { s; lo = b; hi = a; t; r }

  type ctx = {
    mutable state_ids : int State_map.t;
    mutable resp_ids : int Resp_map.t;
    states : (T.state * int array) vec; (* row: [2i] next state, [2i+1] response of op i *)
    msets : (int array * int array) vec; (* counts, and the id with one op i fewer *)
    mset_ids : (int array, int) Hashtbl.t;
    memo : Ids.t Node.t;
  }

  let state_id c s =
    match State_map.find_opt s c.state_ids with
    | Some i -> i
    | None ->
        let i = push c.states (s, Array.make (2 * u) (-1)) in
        c.state_ids <- State_map.add s i c.state_ids;
        i

  (* State [s]'s transition row, with operation [i]'s entry filled. *)
  let step c s i =
    let q, row = c.states.data.(s) in
    if row.(2 * i) < 0 then begin
      let q', r = T.apply q universe.(i) in
      row.(2 * i) <- state_id c q';
      row.((2 * i) + 1) <-
        (match Resp_map.find_opt r c.resp_ids with
        | Some k -> k
        | None ->
            let k = Resp_map.cardinal c.resp_ids in
            c.resp_ids <- Resp_map.add r k c.resp_ids;
            k)
    end;
    row

  let next c s i = (step c s i).(2 * i)

  let mset_id c counts =
    match Hashtbl.find_opt c.mset_ids counts with
    | Some m -> m
    | None ->
        let m = push c.msets (counts, Array.make u (-1)) in
        Hashtbl.add c.mset_ids counts m;
        m

  (* [f i m'] for each operation [i] left in multiset [m], where [m'] is
     [m] with one [i] used. *)
  let each c m f =
    let counts, fewer = c.msets.data.(m) in
    for i = 0 to u - 1 do
      if counts.(i) > 0 then begin
        if fewer.(i) < 0 then begin
          let less = Array.copy counts in
          less.(i) <- less.(i) - 1;
          fewer.(i) <- mset_id c less
        end;
        f i fewer.(i)
      end
    done

  (* A team's multiset as an id, less one [drop] when given. *)
  let mset_of c ?drop (ms : multiset) =
    let counts = Array.make u 0 in
    Array.iteri (fun k op -> counts.(index op) <- counts.(index op) + ms.counts.(k)) ms.ops;
    Option.iter (fun i -> counts.(i) <- counts.(i) - 1) drop;
    mset_id c counts

  let create () =
    let vec () = { data = [||]; len = 0 } in
    { state_ids = State_map.empty; resp_ids = Resp_map.empty; states = vec (); msets = vec ();
      mset_ids = Hashtbl.create 16; memo = Node.create 16 }

  let ctx = create ()
  let lock = Mutex.create ()
  let with_ctx f = Mutex.protect lock (fun () -> f ctx)

  let state c i = fst c.states.data.(i)
  let mem_state c q ids = Ids.mem (-1, state_id c q) ids
  let states_of c ids = Ids.fold (fun (_, i) -> State_set.add (state c i)) ids State_set.empty

  let pairs_of c ids =
    let resps = Resp_map.bindings c.resp_ids in
    let resp k = fst (List.find (fun (_, k') -> k' = k) resps) in
    Ids.fold (fun (r, s) -> Pair_set.add (resp r, state c s)) ids Pair_set.empty

  (* The set at and below node (s, a, b).  With a tracked operation [t]
     it collects (response of t, state) once t has run ([r] >= 0) and
     runs t when it is pending; with [t] = -1 it collects every state,
     as (-1, state). *)
  let rec collect c s a b t r =
    let key = node s a b t r in
    match Node.find_opt c.memo key with
    | Some v -> v
    | None ->
        let acc = ref (if t < 0 || r >= 0 then Ids.singleton (r, s) else Ids.empty) in
        each c a (fun i a' -> acc := Ids.union !acc (collect c (next c s i) a' b t r));
        each c b (fun i b' -> acc := Ids.union !acc (collect c (next c s i) a b' t r));
        (if t >= 0 && r < 0 then
           let row = step c s t in
           acc := Ids.union !acc (collect c row.(2 * t) a b t row.((2 * t) + 1)));
        Node.add c.memo key !acc;
        !acc

  (* Q_X: the first operation comes from [first], later ones from what
     remains of [first] and [other]. *)
  let reachable_ids c ~q0 ~first ~other =
    let q0 = state_id c q0 and b = mset_of c other and found = ref Ids.empty in
    each c (mset_of c first) (fun i a' ->
        found := Ids.union !found (collect c (next c q0 i) a' b (-1) (-1)));
    !found

  (* R_{X,j}, where process j is one instance of [tracked_op] on
     [tracked_team].  [team_a]/[team_b] are the full teams (the tracked
     instance is removed here); [first] names the team X whose member
     must move first: a regular member, or the tracked process when it
     belongs to that team. *)
  let responses_ids c ~q0 ~team_a ~team_b ~first ~tracked_team ~tracked_op =
    let ms = match tracked_team with Rcons_spec.Team.A -> team_a | Rcons_spec.Team.B -> team_b in
    if not (Array.exists2 (fun op k -> k > 0 && T.compare_op op tracked_op = 0) ms.ops ms.counts)
    then invalid_arg "Search.responses: tracked operation not in its team";
    let t = index tracked_op in
    let drop team = if tracked_team = team then Some t else None in
    let a = mset_of c ?drop:(drop Rcons_spec.Team.A) team_a
    and b = mset_of c ?drop:(drop Rcons_spec.Team.B) team_b in
    let q0 = state_id c q0 and found = ref Ids.empty in
    let start s a b r = found := Ids.union !found (collect c s a b t r) in
    (match first with
    | Rcons_spec.Team.A -> each c a (fun i a' -> start (next c q0 i) a' b (-1))
    | Rcons_spec.Team.B -> each c b (fun i b' -> start (next c q0 i) a b' (-1)));
    (if tracked_team = first then
       let row = step c q0 t in
       start row.(2 * t) a b row.((2 * t) + 1));
    !found

  let reachable ~q0 ~first ~other =
    with_ctx (fun c -> states_of c (reachable_ids c ~q0 ~first ~other))

  let responses ~q0 ~team_a ~team_b ~first ~tracked_team ~tracked_op =
    with_ctx (fun c ->
        pairs_of c (responses_ids c ~q0 ~team_a ~team_b ~first ~tracked_team ~tracked_op))
end
