(** Theorem 22: the power of a set of deterministic readable types to
    solve RC is within 1 of the strongest member --
    [n <= rcons(set) <= n + 1] where [n] is the maximum individual
    recording level (lower bound: use the strongest member through
    Theorem 8; upper bound: the critical-object argument of the proof). *)

type analysis = {
  members : (string * Classify.level) list;
  set_level : Classify.level;
  rcons_lower : int;
  rcons_upper : int option;  (** [None] when the set level is unbounded *)
  best : Rcons_spec.Object_type.t option;
}

val analyse : ?limit:int -> Rcons_spec.Object_type.t list -> analysis
(** @raise Invalid_argument on the empty set. *)

val best_certificate :
  ?limit:int -> Rcons_spec.Object_type.t list -> Certificate.recording option
(** A certificate realizing the lower bound, from the strongest readable
    member. *)

val pp : Format.formatter -> analysis -> unit
