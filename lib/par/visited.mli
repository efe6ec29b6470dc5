(** The deduplicating explorer's visited store.

    Keys are state fingerprints (short digest strings).  Each key maps
    to the (sleep mask, depth) pairs the state was expanded under.  The
    store is a fixed number of open-addressing shards, each behind its
    own mutex, so walkers on several domains may claim concurrently.

    {2 Cover rule}

    [claim t key ~mask ~depth] decides whether the caller should expand
    [key].  It returns [false] iff a stored pair [(m, d)] for [key] has
    [m] a subset of [mask] and [d <= depth]: that earlier expansion
    explored at least the transitions this one would (its sleep set was
    no larger) and was not cut off earlier by the step bound.
    Otherwise it records [(mask, depth)] and returns [true]
    (Godefroid--Holzmann--Pirottin's sleep sets with state caching).

    {2 Exactly-once claim}

    {!add} is [claim ~mask:0 ~depth:0].  Every later pair is then
    covered, so for every key exactly one {!add} call in the whole
    history of the store returns [true], and every other call, from
    any domain, returns [false].  The parallel explorer's exactly-once
    expansion, and hence its visit-order-independent statistics, rest on
    this. *)

type t

val create : unit -> t
(** An empty store; it grows without bound. *)

val claim : t -> string -> mask:int -> depth:int -> bool
(** [claim t key ~mask ~depth]: [true] iff no pair stored for [key]
    covers [(mask, depth)] (see the cover rule above); a [true] claim
    records the pair. *)

val add : t -> string -> bool
(** [add t key = claim t key ~mask:0 ~depth:0]: [true] iff this call is
    the unique winner for [key]. *)

val cardinal : t -> int
(** Number of distinct keys claimed so far.  Exact once concurrent
    claimers have quiesced (the explorer reads it after joining its
    walkers). *)

val elements : t -> string list
(** All distinct keys, in no particular order.  Only meaningful once
    concurrent claimers have quiesced (the explorer serializes its
    checkpoints from it). *)
