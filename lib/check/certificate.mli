(** Machine-checkable witnesses produced by the decision procedures and
    consumed by the executable algorithms.

    A {!recording} certificate is exactly the data needed to instantiate
    the recoverable team-consensus algorithm of Figure 2 (Theorem 8): the
    initial state [q0], one operation per process on each team, and the
    computed sets Q_A and Q_B.  A {!discerning} certificate is the data
    needed for the standard team-consensus algorithm of Ruppert's
    characterization (Theorem 3): per-process operations together with
    the response/state sets R_{A,j} and R_{B,j}. *)

type ('s, 'o) recording_data = {
  q0 : 's;
  ops_a : 'o list;  (** operation of each process on team A *)
  ops_b : 'o list;
  q_a : 's list;  (** Q_A(q0, op_1, ..., op_n) *)
  q_b : 's list;
  q0_in_q_a : bool;
  q0_in_q_b : bool;
}

type recording =
  | Recording :
      (module Rcons_spec.Object_type.S
         with type state = 's
          and type op = 'o
          and type resp = 'r)
      * ('s, 'o) recording_data
      -> recording

type ('s, 'o, 'r) discerning_data = {
  dq0 : 's;
  procs : (Rcons_spec.Team.t * 'o) array;  (** team and operation per process *)
  r_a : ('r * 's) list array;  (** R_{A,j} for each process j *)
  r_b : ('r * 's) list array;
}

type discerning =
  | Discerning :
      (module Rcons_spec.Object_type.S
         with type state = 's
          and type op = 'o
          and type resp = 'r)
      * ('s, 'o, 'r) discerning_data
      -> discerning

val recording_teams : recording -> int * int
(** Sizes [(|A|, |B|)] of the certificate's two teams. *)

val symmetry_classes : recording -> int list list
(** Classes of processes made interchangeable by the certificate's
    operation assignment, under the standard pid layout (team A slots
    first, then team B): slots of one team whose operations are
    [compare_op]-equal.  Singleton classes are dropped, so the result is
    [[]] when the certificate carries no symmetry.  Suitable for
    {!Rcons_runtime.Explore.explore}'s [?symmetry] {e only if} the
    workload also gives every member of a class the same input -- the
    explorer cannot check that, the caller must. *)

val discerning_teams : discerning -> int * int
(** Sizes [(|A|, |B|)] of the certificate's two teams. *)

val pp_recording : Format.formatter -> recording -> unit
(** Render a recording certificate, including its Q-sets.  The rendering
    is canonical: two certificates print identically iff they carry the
    same data, which the parallel-determinism tests rely on. *)

val pp_discerning : Format.formatter -> discerning -> unit
(** Render a discerning certificate, including every per-process R-set;
    canonical in the same sense as {!pp_recording}. *)

val validate_recording : recording -> bool
(** Re-check the certificate against Definition 4 from scratch
    (recompute Q_A and Q_B and all three conditions); used by the tests
    to guard against checker bugs. *)
