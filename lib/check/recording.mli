(** Decision procedure for the n-recording property (Definition 4 of the
    paper).

    A deterministic type T is n-recording if there exist a state [q0], a
    partition of n processes into two non-empty teams A and B, and
    operations op_1, ..., op_n such that
    + Q_A and Q_B are disjoint,
    + [q0] is not in Q_A, or |B| = 1,
    + [q0] is not in Q_B, or |A| = 1.

    The search enumerates candidate initial states, team sizes (up to the
    team-swap symmetry) and operation multisets per team, deciding each
    candidate exactly by computing Q_A and Q_B.  Answers are exact with
    respect to the type's declared finite operation universe.  The scan,
    the standalone check and {!witness} are {!Property.Make}'s. *)

include
  Property.S
    with type ('s, 'o, 'r) data = ('s, 'o) Certificate.recording_data
     and type packed = Certificate.recording

val is_recording : ?domains:int -> Rcons_spec.Object_type.t -> int -> bool
(** [Option.is_some] of {!witness}. *)
