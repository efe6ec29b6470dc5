(** Reachability searches underlying the decision procedures: the sets
    Q_X of Definition 4 and R_{X,j} of Definition 2, computed on the
    multiset abstraction of team assignments (see {!Enumerate}).

    Each node's set is memoized in a search context, as ids the context
    interns; contexts live as long as the [Make] instance, so callers
    that reuse it (the witness scans, across candidates and levels)
    share sub-searches.  {!Make.with_ctx} hands the context to one
    caller at a time, so the parallel sweeps of {!Rcons_par.Pool} may
    share an instance.  An operation outside [T.update_ops] raises
    [Invalid_argument]. *)

module Make (T : Rcons_spec.Object_type.S) : sig
  module State_set : Set.S with type elt = T.state
  module Pair_set : Set.S with type elt = T.resp * T.state

  (** A team's operations with multiplicities. *)
  type multiset = { ops : T.op array; counts : int array }

  val multiset_of_list : T.op list -> multiset
  (** Sort and group a team's operation list (one linear grouping pass
      over the [compare_op]-sorted list). *)

  val total : multiset -> int

  (** {2 Id level}: the searches as sets of a context's ids, and their
      values back for a witness. *)

  module Ids : Set.S with type elt = int * int
  (** (response id, state id) pairs; a Q set holds (-1, state id). *)

  type ctx

  val with_ctx : (ctx -> 'a) -> 'a
  (** Run on the instance's context, which no other caller holds
      meanwhile (a mutex, so [with_ctx] must not nest). *)

  val reachable_ids : ctx -> q0:T.state -> first:multiset -> other:multiset -> Ids.t
  val mem_state : ctx -> T.state -> Ids.t -> bool
  val states_of : ctx -> Ids.t -> State_set.t

  val responses_ids :
    ctx ->
    q0:T.state ->
    team_a:multiset ->
    team_b:multiset ->
    first:Rcons_spec.Team.t ->
    tracked_team:Rcons_spec.Team.t ->
    tracked_op:T.op ->
    Ids.t

  val pairs_of : ctx -> Ids.t -> Pair_set.t

  val reachable : q0:T.state -> first:multiset -> other:multiset -> State_set.t
  (** Q_X: all states reachable by applying operations of distinct
      processes in some order, the first of which belongs to team
      [first]; the remaining operations come from what is left of both
      multisets. *)

  val responses :
    q0:T.state ->
    team_a:multiset ->
    team_b:multiset ->
    first:Rcons_spec.Team.t ->
    tracked_team:Rcons_spec.Team.t ->
    tracked_op:T.op ->
    Pair_set.t
  (** R_{first, j} where process j is one instance of [tracked_op] on
      [tracked_team]: all (response of op_j, state at end of sequence)
      pairs over distinct-process sequences starting with a [first]-team
      process and including j.
      @raise Invalid_argument if the tracked operation is not present in
      its declared team. *)
end
