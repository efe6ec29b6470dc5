(** Simulated asynchronous shared-memory system with individual process
    crashes and recoveries (the paper's independent-crash model).

    Each process is ordinary OCaml code that performs the {!Step} effect
    for every shared-memory access; the handler suspends the process at
    each access so a driver can interleave processes one access at a time
    (the model's "steps").  {!crash} discards the process's delimited
    continuation -- exactly the loss of volatile local memory, program
    counter included -- and re-arms the process to re-execute its code
    from the beginning.  Shared objects live in the ordinary OCaml heap,
    which plays the role of non-volatile memory: crashes never touch it.

    Process bodies must be deterministic (they are re-executed after
    crashes and by the {!Explore} replayer) and must not catch the
    internal {!Crashed} exception.  Code between two steps executes
    atomically with respect to crashes: a crash can only be observed at a
    step boundary, which is faithful because local state is lost anyway
    and shared state changes only at steps. *)

type _ Effect.t +=
  | Step : string option * Rcons_spec.Footprint.t option * (unit -> 'a) -> 'a Effect.t

exception Crashed
(** Used internally to unwind discarded continuations. *)

val step : ?label:string -> ?fp:Rcons_spec.Footprint.t -> (unit -> 'a) -> 'a
(** [step f] performs one atomic shared-memory access: the simulated
    process suspends, and [f] runs atomically when the driver schedules
    the process's next step.  [label] optionally names the object
    touched, for the critical-execution explorer; [fp] optionally
    declares the access's step footprint ({!Rcons_spec.Footprint.t}) for
    the partial-order-reducing explorer — an access without one is
    treated as touching everything. *)

type t

type event = Stepped of int | Crash_event of int

val create : n:int -> (int -> unit -> unit) -> t
(** [create ~n body_of]: a system of [n] processes; process [i] runs
    [body_of i] from the beginning at start and after every crash.  The
    system captures the ambient {!Persist} cache (see {!cache}) and
    {!Heap} arena. *)

val num_procs : t -> int

val cache : t -> Persist.cache option
(** The write-back cache the system was built under ({!Persist.scoped}),
    which it carries for its whole life: [None] for the seed model
    (eager at flush cost 1).  Explorers read a workload's persistency
    model here. *)

val finished : t -> int -> bool
(** Has this process's current run completed?  (A later {!crash}
    restarts it.) *)

val all_finished : t -> bool

val started : t -> int -> bool
(** Has the process taken a step since its last (re)start?  Crashing a
    process that has not is a no-op in the model. *)

val pending_label : t -> int -> string option
(** The label of the access process [i] is suspended on, if any --
    the "poised to apply an operation on O" of Theorem 14's proof. *)

val pending_footprint : t -> int -> Rcons_spec.Footprint.t option
(** The footprint of the access process [i] is suspended on; [None] for
    unstarted processes (the first access of a run is unknown until the
    run executes), finished processes, and accesses that declared none.
    Callers must treat [None] as {!Rcons_spec.Footprint.Global}. *)

val crash_count : t -> int -> int
val step_count : t -> int -> int
val total_steps : t -> int

val events : t -> event list
(** All step/crash events, oldest first. *)

val step_proc : t -> int -> bool
(** Run process [i] for one step (up to and including its next
    shared-memory access, or to completion).  Always [true].

    @raise Invalid_argument on an out-of-range pid, a finished process
    (consult {!finished} first, or {!crash} it to restart it), or an
    {!abandon}ed system -- all three previously no-oped silently, hiding
    scheduling bugs. *)

val crash : t -> int -> unit
(** Crash process [i]: local state lost, shared heap untouched, code
    restarts from the beginning at its next step.  Crashing a finished
    process restarts it too (a recovered process may run its algorithm
    again; agreement must cover its repeated outputs) -- deliberately
    {e not} an error, unlike stepping one: crashing processes after a
    completed run and re-running them, and the simultaneous-crash model
    ({!Adversary.Simultaneous}), rely on it.  Under a non-eager
    {!Persist} cache, first applies the cache's loss semantics to the
    lines process [i] owns.

    @raise Invalid_argument on an out-of-range pid or an {!abandon}ed
    system. *)

val flush : ?fp:Rcons_spec.Footprint.t -> Persist.line option -> unit
(** Persist barrier: write one location's cache line back to durable
    memory.  Takes [flush_cost] labelled steps (default 1) regardless of
    the system's policy -- under eager it is a semantic no-op -- so
    annotated algorithms keep an identical schedule-tree shape across
    policies.  [fp] attributes the barrier steps to the flushed
    container for the partial-order reduction (flushes of distinct
    objects commute).  Exposed through [Cell.flush] / [Growable.flush] /
    [Sim_obj.flush]; only process bodies may call it. *)

val fence : unit -> unit
(** Persist barrier: write back {e every} line the calling process owns.
    After a fence, none of the caller's earlier writes can be lost to
    its crash.  Same step-count contract as {!flush}. *)

val crash_all : t -> unit
(** The simultaneous-crash model of Section 2. *)

val abandon : t -> unit
(** Release every pending continuation without re-arming.  Dropping a
    captured effect continuation leaks its fiber stack, so code that
    builds and discards many systems (the explorer) must call this
    before dropping a system.  Idempotent; stepping or crashing an
    abandoned system raises [Invalid_argument]. *)

(** {2 Checkpoint/restore (the explorer's rollback strategy)}

    While an {!Undo} journal is installed on the current domain, every
    mutation of simulated state journals a restore entry, so the
    explorer can return to any earlier point of the current schedule in
    O(mutations since that point) instead of replaying the prefix from
    the root.  One-shot effect continuations cannot be snapshotted;
    {!rollback} rebuilds each affected process by re-running its body
    and feeding back the values its completed steps returned (recorded
    while the journal is installed), skipping the step thunks — the
    heap effects were already rolled back.  The rebuilt process is
    poised on exactly the step it was poised on at the mark, and step
    results keep their physical identity. *)

type mark
(** A point in the current schedule, valid while the journal that
    produced it is installed and not yet rolled back past it. *)

val mark : t -> mark
(** Take a checkpoint of the system's current state.  Cheap: records
    the journal extent only. *)

val rollback : t -> mark -> unit
(** Restore the system (shared heap, cache lines, process control
    state, allocator counters, event log) to the state at [mark].
    Call it only between steps, on the domain that took the mark, with
    the same journal still installed.  Marks taken after [mark] are
    invalidated.  Without an installed journal this is a no-op.
    @raise Invalid_argument on an {!abandon}ed system, a mark beyond
    the journal tip, or if a process body turns out not to be
    deterministic (the rebuild desynchronizes). *)

val fingerprint_digest : ?graded:bool -> ?perm:int array -> t -> string
(** The 16-byte MD5 of the canonical fingerprint of the global state,
    for the deduplicating explorer: the non-volatile heap snapshot of
    the {!Heap} arena the system was created under, plus each process's
    control state -- cumulative step/crash counts, finished flag,
    pending label, and the {e volatile observation trace}: a 16-byte
    running digest [MD5 (trace ‖ Heap.digest v)] folded over the values
    its steps returned since its last (re)start, which pins a
    deterministic body's continuation.  The chain is order- and
    segmentation-sensitive, reset by a crash, and keeps each process's
    section constant-size however long the run.  Equal digests imply
    equal futures, up to MD5 collisions, provided all shared state lives
    in registered containers ({!Cell}, {!Growable}, {!Sim_obj}, the
    output logs) and step results are plain data.

    Stable under replay: re-executing the same schedule against a fresh
    system from the same deterministic builder yields the same digest.
    The fingerprint bytes go to a domain-local scratch buffer reused
    across calls.  These digests are the visited-set keys and the
    checkpoint entries, so a change of fingerprint format versions the
    checkpoint format ({!Explore.checkpoint_of_json}).

    [graded = false] (default [true]) drops the cumulative per-process
    step/crash counts and records only the {e total} crashes used:
    remaining crash budget is all a state's futures depend on, so many
    graded states collapse (the discarded prefix of a crashed run
    disappears entirely).  The resulting state graph is no longer graded
    by depth; only the sequential reduced explorer modes use it.
    [perm] relabels processes ([perm.(old) = new]) in both the control
    sections and the heap snapshot — see {!relabelings}; the explorer's
    symmetry reduction keys states by the least digest over a
    relabeling group.

    @raise Invalid_argument if the system was created with no active
    {!Heap} arena (fingerprinting off). *)

val relabelings : classes:int list list -> int -> int array list
(** [relabelings ~classes n]: every relabeling of [n] processes that
    permutes pids within each class and fixes all others, identity
    first.  A class lists processes that are interchangeable — same
    code, same input (Figure 2 team members, tournament leaves); the
    {e caller} is responsible for that symmetry actually holding.

    @raise Invalid_argument on out-of-range pids or overlapping
    classes. *)
