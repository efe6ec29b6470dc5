(** The catalogue of object types exercised by the experiments, with the
    consensus / recoverable-consensus numbers known from the literature
    (ground truth for the tests).

    Readability notes: the paper's stack and queue (Appendix H) and the
    classic test-and-set have no READ operation, so the characterizations
    (Theorems 3 and 8) do not tie their structural levels to their
    consensus numbers; their known values come from direct proofs.
    Readable stack/queue variants are strictly stronger types with
    [cons = rcons = infinity]. *)

type expectation = {
  ot : Object_type.t;
  cons_known : int option;  (** [None] = infinity *)
  rcons_known_low : int;
  rcons_known_high : int option;  (** [None] = infinity *)
}

val all : expectation list
(** Register, test-and-set, swap, fetch&add, stack, queue (and readable
    variants), sticky bit, compare&swap, consensus object. *)

val tn : int -> expectation
(** T_n with [cons = n], [rcons] in [[n-2, n-1]] (Proposition 19). *)

val sn : int -> expectation
(** S_n with [cons = rcons = n] (Proposition 21). *)

val find : string -> expectation
(** Lookup by {!Object_type.name}.  @raise Not_found otherwise. *)

val of_name : string -> (Object_type.t, string) result
(** Resolve a user-facing type name: a catalogue name ("sticky-bit"), a
    short alias ("sticky", "tas", "cas", ...), or a parametric "S<n>" /
    "T<n>" (n >= 2; the canonical "S_n" / "T_n" spellings work too).
    Matching is case-insensitive and ignores surrounding whitespace.  This is the one name resolver shared by the CLI
    and the counterexample artifacts (including the replicated-log
    workloads, whose per-slot certificates are derived from these
    types), so a type name stored in a witness file means the same
    object type everywhere.  The [Error] for an unknown name lists
    every name this accepts: aliases, canonical catalogue names and the
    parametric families. *)
