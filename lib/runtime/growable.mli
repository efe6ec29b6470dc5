(** Unbounded arrays of shared cells, for the paper's infinite arrays
    (D[1..inf] and the consensus instances C_1, C_2, ... of Figure 4;
    footnote 2 allows unboundedly many objects).  Entries materialize on
    demand with a deterministic default, as if the whole array had
    existed from the start; only reads and writes of entries are steps.

    The array registers one canonical digest with the active {!Heap}
    arena (entries sorted by index, default-valued entries elided), so
    state fingerprints do not depend on which default entries happen to
    have been materialized. *)

type 'a t

val make : (int -> 'a) -> 'a t
val cell : 'a t -> int -> 'a Cell.t
val read : 'a t -> int -> 'a
val write : 'a t -> int -> 'a -> unit

val flush : 'a t -> int -> unit
(** Persist barrier for entry [i] (see {!Cell.flush}).  Entries acquire
    cache lines when materialized under a non-eager {!Persist} cache
    (the stepping system's own, or the one ambient at a build); the canonical digest then also covers each entry's
    durable copy and line owner. *)

val peek : 'a t -> int -> 'a
