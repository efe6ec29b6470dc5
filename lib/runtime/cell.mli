(** One location of the simulated non-volatile memory: a read/write
    register, or the state of a shared object ({!Sim_obj} is a typed
    view of a cell).  Every {!read}/{!write} is one atomic step of the
    calling process.

    {!make} registers the cell's contents with the active {!Heap} arena
    (if any) so state fingerprints cover it.  Without [?digest] the
    contents are digested with {!Rcons_spec.Object_type.digest}, so
    they must be plain data; [?digest] supplies a type's own state
    digest instead.  [?label] (default ["register"]) names the cell's
    read, write and confirm steps in traces.

    When created under a non-eager {!Persist} cache (the one ambient at
    a build, or the stepping system's own: {!Persist.attach}) the cell
    carries a cache line: writes land in the volatile copy (which
    all reads see -- coherence) and become durable only at a {!flush},
    {!Sim.fence}, or implicitly per the cache policy's crash rule.
    The cell is the only holder of a volatile/durable pair: it
    journals both copies for undo and digests both, with the line
    owner, into its fingerprint. *)

type 'a t

val make : ?label:string -> ?digest:('a -> string) -> 'a -> 'a t

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
    flush any cell.  A no-op (but still a step) under eager; no step at
    all in a system built with barriers off ({!Persist.scoped}). *)

val read_persist : 'a t -> 'a
(** Read a value that is guaranteed durable: read, {!flush}, then
    confirm atomically that the contents are still structurally equal
    {e and} the cache line is clean, retrying otherwise
    (link-and-persist).  Exactly read + flush + confirm steps per
    attempt under every policy; exactly {!read} in a system built with
    barriers off. *)

val write_persist : 'a t -> 'a -> unit
(** Write a value that is guaranteed durable on return: write, {!flush},
    then confirm atomically that the contents are still structurally
    equal to the written value {e and} the cache line is clean,
    re-writing and retrying otherwise.  The clean-line check is what
    makes this crash-robust: an equal but physically distinct helper
    write between the flush and the confirm re-dirties the line without
    failing a value comparison, and its crash could revert the cell.
    Exactly write + flush + confirm steps per attempt under every
    policy; exactly {!write} in a system built with barriers off. *)

val confirm : 'a t -> 'a * bool
(** One step observing the contents and whether the cache line is
    clean, atomically: the confirm step of {!read_persist} and
    {!write_persist}, for confirm loops around other primitives (such
    as [One_shot.decide_durable]).  A clean line means the contents are
    durable. *)

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
    line like any other write, unless the value is physically equal to
    the contents (a silent store; the confirms compare structurally). *)
