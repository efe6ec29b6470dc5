(** Reachability searches underlying the decision procedures: the sets
    Q_X of Definition 4 and R_{X,j} of Definition 2, computed on the
    multiset abstraction of team assignments (see {!Enumerate}).

    Sequences of distinct-process operations are prefix-closed, so
    states/pairs are collected at every node of the search tree.  The
    set collected below a node depends only on (state, remaining
    multisets), so each node is computed once and cached in tables that
    live for the lifetime of the [Make] instance: candidate checks that
    share sub-searches (the A-first/B-first pair of one candidate, and
    overlapping candidates across levels of an incremental scan) reuse
    each other's work when the caller reuses the instance.  The tables
    are mutex-guarded; sharing an instance across the parallel candidate
    sweeps of {!Rcons_par.Pool} is safe and changes no result. *)

module Make (T : Rcons_spec.Object_type.S) : sig
  module State_set : Set.S with type elt = T.state
  module Pair_set : Set.S with type elt = T.resp * T.state

  (** A team's operations with multiplicities. *)
  type multiset = { ops : T.op array; counts : int array }

  val multiset_of_list : T.op list -> multiset
  (** Sort and group a team's operation list (one linear grouping pass
      over the [compare_op]-sorted list). *)

  val total : multiset -> int

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
