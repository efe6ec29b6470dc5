(** Decision procedure for the n-discerning property (Definition 2 of
    the paper, from Ruppert's characterization of the readable types that
    solve n-process consensus, Theorem 3).

    T is n-discerning if there exist [q0], a two-team partition and
    operations op_1, ..., op_n such that R_{A,j} and R_{B,j} are disjoint
    for every process j, where R_{X,j} collects the (response of op_j,
    final state) pairs over all distinct-process sequences that start
    with a team-X process and include j.  Processes assigned the same
    operation on the same team have identical R-sets, so one tracked
    instance per distinct (team, operation) suffices.  The scan, the
    standalone check and {!witness} are {!Property.Make}'s. *)

include
  Property.S
    with type ('s, 'o, 'r) data = ('s, 'o, 'r) Certificate.discerning_data
     and type packed = Certificate.discerning

val is_discerning : ?domains:int -> Rcons_spec.Object_type.t -> int -> bool
(** [Option.is_some] of {!witness}. *)
