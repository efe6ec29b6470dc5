(** Mechanization of the case analysis of Appendix H / Figure 8: why two
    processes cannot solve recoverable consensus using stacks (or
    queues) and registers.

    The valency framework (Theorem 14) yields a critical execution after
    which p1 is poised to apply [op1] and p2 to apply [op2] on the same
    object in state [q], with the two next-step extensions of different
    valencies.  The proof refutes criticality by exhibiting, for every
    (q, op1, op2), continuations forcing equal valencies; each forcing
    argument is one of the classification kinds below.  See the
    implementation header for the full discussion, including the role of
    the crash budget and why readable types that permanently record the
    difference (sticky bit, CAS, S_n, readable swap) correctly stay
    {!Inconclusive}. *)

type kind =
  | Commute
      (** op1;op2 and op2;op1 reach the same state (Figure 8a): crash p1
          after both, its solo recovery run outputs the same value. *)
  | Overwrite of [ `Op1_overwrites | `Op2_overwrites ]
      (** One order reaches the state of the overwriting op alone, with
          equal responses for the overwriter (Figure 8b): no crash
          needed, the overwriter's solo run cannot distinguish. *)
  | Crash_confined of { crashes : int; pairs : int }
      (** The difference between the two extensions is confined
          (Figures 8c-8f): p1's solo runs stay in lockstep except at
          response divergences, each of which the adversary erases with
          one crash ([crashes] total), until the states coincide.
          [pairs] is the size of the confinement proof. *)
  | Inconclusive
      (** No forcing argument found: the type may solve 2-process RC. *)

val pp_kind : Format.formatter -> kind -> unit
val forces_equal_valency : kind -> bool

val classify :
  (module Rcons_spec.Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
  ?canon:('s -> 's -> 's * 's) ->
  ?max_pairs:int ->
  ?max_depth:int ->
  ?crash_budget:int ->
  's ->
  'o ->
  'o ->
  kind
(** Classify one critical configuration; [crash_budget] defaults to 2
    (enough for all of Figure 8). *)
