(** Lock-free concurrent visited set for the deduplicating explorer.

    Keys are state fingerprints (short digest strings).  The set is a
    single open-addressing table of [string Atomic.t] slots; {!add} is
    one probe plus one CAS on the hot path — no locks anywhere — and the
    table resizes by {e cooperative migration}: when occupancy passes
    3/4, a double-size successor is installed and every thread touching
    the table helps copy it over in chunks before operating on the
    successor.

    {2 Exactly-once claim}

    For every key, exactly one {!add} call in the whole history of the
    set returns [true]; every other call (concurrent or later, from any
    domain) returns [false].  This is the foundation of the parallel
    explorer's exactly-once expansion discipline and hence of its
    schedule-order-independent statistics.  The guarantee holds {e
    across resizes}: migration freezes each old slot (empty slots become
    tombstones, occupied slots are copied) and fresh claims are admitted
    into the successor only after it contains every key of the frozen
    table, so a claim can neither be lost nor doubled by an epoch
    change.  There are no deletions, so every slot transition is
    monotone and the argument needs no ABA caveats. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()]: an empty set.  [capacity] (default 8192,
    rounded up to a power of two) sizes the initial table; the set grows
    without bound, so the value only tunes how soon the first migration
    happens.  Tests pass a tiny capacity to force many resizes. *)

val add : t -> string -> bool
(** [add t key] claims [key]; [true] iff this call is the unique winner
    (see the exactly-once contract above).  Lock-free except while a
    resize is migrating, during which callers cooperatively finish the
    copy (bounded work, then a short wait for peer chunks). *)

val mem : t -> string -> bool
(** [mem t key]: was [key] claimed by some {e completed} [add]?  Safe
    concurrently with adders; linearizes against the claim CAS. *)

val cardinal : t -> int
(** Number of distinct keys claimed so far (one per winning {!add}).
    Exact once concurrent adders have quiesced (the explorer reads it
    after joining its walkers). *)

val elements : t -> string list
(** All distinct keys, in no particular order.  Only meaningful once
    concurrent adders have quiesced (used to serialize the explorer's
    checkpoints). *)

val resizes : t -> int
(** Number of cooperative migrations triggered so far (diagnostics). *)

