(** Classification of object types in the consensus and recoverable
    consensus hierarchies.

    For a deterministic readable type T, with respect to its declared
    operation universe:
    - [cons(T)] = max n such that T is n-discerning (Theorem 3, exact);
    - [rcons(T)] is k or k+1 where k = max n such that T is n-recording
      (Theorems 8 and 14), further capped by [rcons <= cons]
      (Corollary 17).

    Both properties are downward closed (Observation 6 and its
    discerning analogue), so the maxima are found by upward scanning.
    A type passing at the scan limit is reported as {!At_least}: no
    finite procedure distinguishes "large" from "infinite" in general. *)

type level = Finite of int | At_least of int

val pp_level : Format.formatter -> level -> unit
val equal_level : level -> level -> bool

val max_level : limit:int -> (int -> bool) -> level
(** [max_level ~limit prop]: largest n in [2, limit] satisfying the
    downward-closed [prop], scanning upwards; [Finite 1] if [prop 2] is
    false (one process can always decide alone).
    @raise Invalid_argument if [limit < 2]. *)

val scan :
  (module Property.S with type packed = 'p) ->
  ?domains:int ->
  ?certs:string ->
  limit:int ->
  Rcons_spec.Object_type.t ->
  level * 'p option
(** [scan (module P) ~limit t]: the largest level in [2, limit] at which
    [t] has property [P], with the witness found at that level ([None]
    at level 1).  The one cache-or-compute scan behind {!classify} and
    [Rcons.recording_witness].

    The scan is incremental: one memoized search instance is shared
    across all levels and the level-n witness seeds the level-(n+1)
    enumeration, so the witness can differ from {!Property.S.witness}'s
    unseeded one.  [?certs] names a {!Cert_cache} directory: each level
    is looked up there first (entries are revalidated before being
    trusted) and recomputed levels are written back, keyed at
    fingerprint depth [max 8 limit].  [?domains] (default 1) fans each
    per-level witness search across that many OCaml 5 domains.  Neither
    knob changes the result.
    @raise Invalid_argument if [limit < 2]. *)

val max_discerning : ?domains:int -> ?limit:int -> ?certs:string -> Rcons_spec.Object_type.t -> level
(** The level of {!scan} for the n-discerning property; default
    [limit] is 8. *)

val max_recording : ?domains:int -> ?limit:int -> ?certs:string -> Rcons_spec.Object_type.t -> level
(** The level of {!scan} for the n-recording property; default [limit]
    is 8. *)

(** Interval [lower, upper]; [upper = None] means no finite upper bound
    was established. *)
type bounds = { lower : int; upper : int option }

val pp_bounds : Format.formatter -> bounds -> unit

val cons_bounds_of : readable:bool -> level -> bounds option
(** Pure derivation of the cons interval from an already-computed
    discerning level; [None] when not readable. *)

val rcons_bounds_of : readable:bool -> discerning:level -> level -> bounds option
(** Pure derivation of the rcons interval from already-computed
    discerning and recording levels; [None] when not readable. *)

type report = {
  type_name : string;
  is_readable : bool;
  discerning : level;
  recording : level;
  cons : bounds option;
  rcons : bounds option;
}

val classify : ?domains:int -> ?limit:int -> ?certs:string -> Rcons_spec.Object_type.t -> report
(** The full report, from exactly one discerning scan and one recording
    scan (the bounds are derived, not re-searched).  [?domains]
    parallelizes the underlying witness searches and [?certs] persists
    per-level results across runs ({!Cert_cache}); neither changes any
    field of the result. *)

val pp_bounds_option : Format.formatter -> bounds option -> unit
val pp_report : Format.formatter -> report -> unit
