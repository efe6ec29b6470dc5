(** Deterministic sequential object-type specifications.

    A shared object type is defined by its set of states, its update
    operations and a deterministic transition function ({!S.apply}).
    The paper's decision procedures (Definitions 2 and 4) quantify over
    sequences of at most [n] operations performed by distinct processes,
    so a finite universe of candidate operations
    ({!S.update_ops}) and candidate initial states
    ({!S.candidate_initial_states}) suffices to decide the n-discerning
    and n-recording properties exactly with respect to that universe. *)

(** Interface every object type in the catalogue implements. *)
module type S = sig
  type state
  type op
  type resp

  val name : string
  (** Human-readable type name, unique within the catalogue. *)

  val apply : state -> op -> state * resp
  (** [apply q op] is the unique next state and response when [op] is
      performed on an object in state [q] (the type is deterministic). *)

  val compare_state : state -> state -> int
  (** Total order on states (used for set/map containers). *)

  val compare_op : op -> op -> int
  val compare_resp : resp -> resp -> int

  val digest_state : state -> string
  (** Canonical byte representation of a state: two states digest equally
      iff {!compare_state} says they are equal.  The explorer's state
      deduplication fingerprints non-volatile objects with it.  For states
      made of plain data (every catalogue type), {!Object_type.digest} is
      a valid implementation; types whose state has non-canonical
      representations (e.g. unsorted sets) must canonicalize here. *)

  val pp_state : Format.formatter -> state -> unit
  val pp_op : Format.formatter -> op -> unit
  val pp_resp : Format.formatter -> resp -> unit

  val candidate_initial_states : state list
  (** Initial states the property checkers will try for [q0]. *)

  val update_ops : op list
  (** Finite universe of update operations used by the property
      checkers.  For types with infinitely many operations (e.g.
      registers over all integers) this is a representative finite
      sub-language; results are exact with respect to it. *)

  val readable : bool
  (** Whether the type has a READ operation that returns the entire
      state without changing it (footnote 3 of the paper).  Readability
      is required by the sufficiency results (Theorems 3 and 8); the
      necessary conditions hold without it. *)

  val op_kind : op -> Footprint.kind
  (** Step-footprint classification of [op] for the explorer's
      independence relation ({!Rcons_runtime.Explore} with [?por]):
      {!Footprint.Update} for operations that may change the state —
      the classification must be state-independent and conservative, so
      a CAS that happens to fail is still an update — and
      {!Footprint.Read} only for operations that provably never change
      any state.  The READ operation of readable types is not part of
      [update_ops] and is classified by the runtime
      ({!Rcons_runtime.Sim_obj.read}). *)
end

(** An object type packed with its state/op/resp types hidden; the
    currency of the checkers, catalogue and CLI. *)
type t = Pack : (module S with type state = 's and type op = 'o and type resp = 'r) -> t

val name : t -> string
val readable : t -> bool

val fingerprint :
  ?depth:int -> (module S with type state = 's and type op = 'o and type resp = 'r) -> string
(** Canonical behavioural fingerprint: an MD5 hex digest over the
    depth-bounded transition table reachable from
    {!S.candidate_initial_states} under {!S.update_ops}, together with
    the {!S.readable} flag.  Two types fingerprint equally iff they
    behave identically on every operation sequence of length [<= depth]
    (default 8) from a candidate initial state — the fragment explored
    by the n-discerning / n-recording searches for [n <= depth].  States
    are named by BFS discovery index and operations by universe
    position, so catalogue aliases share fingerprints while any change
    to [apply], the universes or [readable] invalidates them.  This is
    the on-disk key of the persisted certificate cache. *)

val fingerprint_t : ?depth:int -> t -> string
(** {!fingerprint} on a packed type. *)

val digest : 'a -> string
(** Canonical digest for plain-data values ([Marshal] with sharing
    expanded): byte equality of digests coincides with structural
    equality.  The default [digest_state] of the whole catalogue and of
    plain cells.  @raise Invalid_argument on a value reaching a function. *)

val digest_to_bytes : bytes -> int -> 'a -> int
(** [digest v] written into the bytes from an offset on, without
    allocating; returns its length.  @raise Failure if it does not fit. *)

(** {2 Pretty-printing helpers shared by the catalogue} *)

val pp_int : Format.formatter -> int -> unit
val pp_bool : Format.formatter -> bool -> unit
val pp_option : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a option -> unit
val pp_list : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a list -> unit
