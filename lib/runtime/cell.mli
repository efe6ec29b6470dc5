(** Shared read/write registers in the simulated non-volatile memory.
    Every {!read}/{!write} is one atomic step of the calling process.

    {!make} registers the cell's contents with the active {!Heap} arena
    (if any) so state fingerprints cover it; cell contents must therefore
    be plain data (digestable with {!Heap.digest}).

    When created under a non-eager {!Persist} cache (the one ambient at
    a build, or the stepping system's own: {!Persist.attach}) the cell
    carries a cache line: writes land in the volatile copy (which
    all reads see -- coherence) and become durable only at a {!flush},
    {!Sim.fence}, or implicitly per the cache policy's crash rule. *)

type 'a t

val make : 'a -> 'a t

val make_unregistered : ?slot:Heap.slot -> 'a -> 'a t
(** A cell that does {e not} register with the active {!Heap} arena;
    for containers (e.g. {!Growable}) that register one canonical digest
    for all their entries instead.  [?slot] is the container's
    fingerprint-cache slot: entry mutations then invalidate the
    container's cached digest.  Still acquires a cache line. *)

val read : 'a t -> 'a
val write : 'a t -> 'a -> unit

val flush : 'a t -> unit
(** Persist barrier for this cell ({!Sim.flush} on its line): after it,
    the last written value cannot be lost to a crash.  Any process may
    flush any cell.  A no-op (but still a step) under eager. *)

val read_persist : ?equal:('a -> 'a -> bool) -> 'a t -> 'a
(** Read a value that is guaranteed durable: read, {!flush}, re-read,
    and retry until both reads agree (link-and-persist).  Exactly
    read + flush + read steps per attempt under every policy.  [equal]
    defaults to structural equality; pass [( == )] for values that
    cannot be structurally compared (e.g. closures). *)

val write_persist : ?equal:('a -> 'a -> bool) -> 'a t -> 'a -> unit
(** Write a value that is guaranteed durable on return: write, {!flush},
    then confirm atomically that the contents still compare [equal] to
    the written value {e and} the cache line is clean, re-writing and
    retrying otherwise.  The clean-line check is what makes this
    crash-robust: a structurally-equal helper write between the flush
    and the confirm re-dirties the line without failing a value
    comparison, and its crash could revert the cell.  Exactly
    write + flush + confirm steps per attempt under every policy.
    [equal] defaults to structural equality. *)

val line : 'a t -> Persist.line option
(** The cell's cache line, if it has one. *)

val footprint : 'a t -> Rcons_spec.Footprint.kind -> Rcons_spec.Footprint.t
(** The cell's step footprint with the given access kind, for code that
    performs compound atomic accesses through raw {!Sim.step} (e.g. the
    read-modify-write of [One_shot.decide] declares the cell with kind
    [Update]).  {!read}/{!write}/{!flush}/{!read_persist} already
    declare their own. *)

val peek : 'a t -> 'a
(** Direct access for set-up/checking code outside the simulation. *)

val peek_persisted : 'a t -> 'a
(** The durable copy (equals {!peek} when the line is clean or absent). *)

val poke : 'a t -> 'a -> unit
(** Out-of-simulation write: durable immediately.  From inside a step
    (a read-modify-write such as [One_shot.decide]) it dirties the
    line like any other write. *)
