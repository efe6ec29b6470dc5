(** The Appendix H experiment: sweep every reachable critical
    configuration of a type and classify it with {!Pair_class}.  When
    every configuration forces equal valencies, no critical execution of
    a putative 2-process RC algorithm exists, so (by the scaffolding of
    Theorem 14 and Appendix H) [rcons = 1] -- exactly how the paper
    proves [rcons(stack) = 1] and notes the same for the queue. *)

type line = {
  state_str : string;
  op1_str : string;
  op2_str : string;
  kind : Pair_class.kind;
}

type report = {
  subject : string;
  states_explored : int;
  lines : line list;
  conclusive : bool;  (** all configurations force equal valencies *)
}

val reachable_states :
  (module Rcons_spec.Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
  state_depth:int ->
  's list
(** States reachable from the candidate initial states by at most
    [state_depth] operations of the universe. *)

val analyse :
  ?max_pairs:int -> ?max_depth:int -> ?state_depth:int -> Rcons_spec.Object_type.t -> report
(** Generic entry point (no canonicalization).  For the stack and queue
    use {!analyse_stack} / {!analyse_queue}: without canonicalization
    their pair spaces grow unboundedly and configurations come back
    inconclusive. *)

val strip_common_affixes : int list -> int list -> int list * int list
(** Canonicalization for list-shaped states: both components of a
    confinement pair evolve under the same operations, so common
    prefixes and suffixes can be stripped. *)

val analyse_stack :
  ?domain:int -> ?max_pairs:int -> ?max_depth:int -> ?state_depth:int -> unit -> report
val analyse_queue :
  ?domain:int -> ?max_pairs:int -> ?max_depth:int -> ?state_depth:int -> unit -> report

val pp_report : Format.formatter -> report -> unit
(** Every configuration, one line each. *)

val summary : Format.formatter -> report -> unit
(** One-line summary with per-kind counts and the conclusion. *)
