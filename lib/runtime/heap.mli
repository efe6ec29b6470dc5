(** Registry of the simulated non-volatile heap, for state fingerprinting.

    Shared objects live in ordinary OCaml values closed over by process
    bodies, so the simulator cannot enumerate them by itself.  While an
    arena is {!activate}d on the current domain, the shared-object
    constructors ({!Cell.make}, {!Growable.make}, {!Sim_obj.make}, the
    algorithm output logs) {!register} a digest thunk for their
    non-volatile state; {!snapshot_into} concatenates the digests in
    registration order.  Registration order is deterministic because
    system builders are deterministic, which is what makes
    {!Sim.fingerprint_digest} replay-stable.

    With no active arena — the default, and always the case outside
    [Explore.explore ~dedup:true] — {!register} is a no-op, so ordinary
    simulations pay nothing.

    The active arena is domain-local ([Domain.DLS]): each parallel
    explorer walker builds and runs one system at a time on its own
    domain, and objects created lazily {e during} execution (Growable
    entries, the on-demand consensus instances of Figure 4) keep
    registering into the arena of the system currently running. *)

type t

val create : unit -> t
(** A fresh, empty arena (not yet active). *)

val activate : t -> unit
(** Make [a] the current domain's active arena; replaces any previous
    one.  Callers that nest (the explorer) save {!current} and restore
    it when done. *)

val deactivate : unit -> unit
(** No active arena on this domain (registration becomes a no-op). *)

val current : unit -> t option

val active : unit -> bool

val register : (unit -> string) -> unit
(** Register a digest thunk for one non-volatile object into the active
    arena; no-op if none.  The thunk is called at every snapshot, so it
    must digest the object's {e current} state, and it must not mention
    process ids (see {!register_sym_c}). *)

type slot
(** A cache slot for one registered digest: a snapshot recomputes the
    digest only while the slot is dirty and otherwise appends the cached,
    already length-prefixed bytes, so digest thunks run O(mutations since
    the last snapshot) times.  The emitted bytes are identical either
    way. *)

val register_c : (unit -> string) -> slot option
(** Cached variant of {!register}: returns the slot ([None] when no
    arena is active).  The caller {e must} {!touch} the slot on every
    mutation of the digested state — including from undo-journal restore
    closures — or snapshots go stale.  Reserved for the runtime's own
    containers; arbitrary instrumentation should keep using
    {!register}. *)

val register_sym_c : (int array option -> string) -> slot option
(** Like {!register_c}, for objects whose digest mentions process ids
    (cache-line owners, per-process output logs).  The thunk receives
    the process relabeling of the snapshot being taken
    ([perm.(old_pid) = new_pid]; [None] = identity) and must digest the
    object {e as relabeled} — the explorer's process-symmetry
    canonicalization snapshots the heap under candidate relabelings.
    Relabeled ([?perm]) snapshots always recompute these slots (their
    bytes depend on the perm); the cache serves identity snapshots
    only. *)

val touch : slot option -> unit
(** Mark the slot dirty: the next snapshot recomputes its digest.
    [None] is a no-op, so call sites pass their stored [slot option]
    directly. *)

val digest : 'a -> string
(** Canonical digest of a plain-data value (Marshal with sharing
    expanded): byte equality coincides with structural equality.  Values
    capturing closures are digested by code pointer, which is stable
    within one binary. *)

val digest_to_bytes : bytes -> int -> 'a -> int
(** [digest_to_bytes b ofs v] writes [digest v] into [b] starting at
    [ofs] and returns its length, without allocating the string.
    @raise Failure if it does not fit in [b]. *)

val snapshot_into : ?perm:int array -> Buffer.t -> t -> unit
(** [snapshot_into b a] appends the concatenated (length-prefixed)
    digests of every object registered in [a], in registration order:
    the non-volatile half of a state fingerprint.  [?perm] relabels
    processes ([perm.(old) = new]) in every pid-bearing digest (see
    {!register_sym_c}); omitted = identity, byte-identical to the
    pre-symmetry format.  Appending to a caller-owned buffer lets batch
    fingerprinting reuse one scratch buffer across many states. *)
