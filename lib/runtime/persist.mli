(** Pluggable persistency model: a volatile write-back cache between
    simulated processes and the non-volatile heap.

    Under [Eager] (the default: no cache at all, or an [Eager] cache)
    every shared write is durable the moment its step
    executes -- the seed model, bit-identical in behavior and in
    fingerprints.  Under [Lossy]/[Torn], writes land in a volatile
    cache line first and a crash of process [p] loses (or, under
    [Torn], loses {e some of}) the lines [p] last wrote that were not
    yet written back with a flush or fence barrier.  Reads always see
    the volatile copy (cache coherence); only crash recovery observes
    the durable copy. *)

type policy = Eager | Lossy | Torn

val policy_to_string : policy -> string

val policy_of_string : string -> policy
(** Inverse of [policy_to_string]; raises [Invalid_argument] otherwise. *)

type cache
(** A write-back cache: the set of dirty lines of one simulated system,
    plus the policy, the flush cost and whether barriers run. *)

type line
(** One cache line = one shared location.  Created by [Cell] (which
    also backs [Growable] entries and [Sim_obj] objects) under a
    non-[Eager] cache. *)

val policy : cache -> policy
val flush_cost : cache -> int

val owner : ?perm:int array -> line -> int option
(** Pid of the latest writer of a dirty line; [None] when the line is
    clean (volatile copy = durable copy).  [?perm] relabels that pid
    ([perm.(old) = new], as in {!Heap.register_sym_c}).  Shared
    locations fold this into their registered digests so cache state
    enters [Sim.fingerprint_digest]. *)

(** {2 Choosing the cache at build time}

    A system's cache is chosen when the system is built: {!scoped} makes
    a fresh cache of the requested policy ambient on the current domain
    while [f] builds, {!Cell} attaches the lines of the locations
    created to it, and {!Sim.create} captures it.  From then on the system
    carries its cache: its steps, lazily created objects and barriers
    read the cache from the step context ({!in_step}), never the ambient
    slot, so what is ambient after the build does not matter.

    Whether persist barriers run is part of the cache model too, so
    the algorithms carry no flag: they always call [Cell.flush],
    [Cell.read_persist], [Cell.write_persist] and [Sim.fence], which a
    system built with barriers off runs as nothing, [Cell.read],
    [Cell.write] and nothing -- the paper's barrier-free figures, step
    for step.  Confirm loops that are not a [Cell] primitive ask
    {!barriers}. *)

val scoped : ?flush_cost:int -> ?barriers:bool -> policy -> (unit -> 'a) -> 'a
(** [scoped ?flush_cost ?barriers policy f] runs [f] (a system build)
    under a fresh ambient cache of [policy] and restores the previously
    ambient cache afterwards (exception-safe).  A barrier takes
    [flush_cost] (default 1) steps; [barriers] (default [false]) says
    whether barriers run at all.  The defaults with [Eager] install
    {e no} cache: the seed model, byte for byte.
    @raise Invalid_argument when [flush_cost < 1]. *)

val current : unit -> cache option
(** The ambient cache of the current domain. *)

val restore : cache option -> unit
(** Make [saved] ambient again: [restore (current ())] brackets code
    that may build under other caches. *)

(** {2 Hooks for [Sim] and [Cell]} *)

type step_ctx
(** The (cache, pid) context of one process's steps on a cache-backed
    system. *)

val step_ctx : cache -> int -> step_ctx
(** The context of pid [i]'s steps; [Sim.create] builds one per
    process. *)

val in_step : step_ctx -> ('a -> 'b) -> 'a -> 'b
(** [in_step sc f x] brackets one resumption of a simulated process
    -- one step under [Sim.step_proc], a whole quantum of steps under
    [Sim.run_steps], always the same process: it runs [f x] under the
    step context that [attach], [dirty], [fence_here],
    {!barrier_steps} and {!barriers} consult, and clears it however
    [f] exits. *)

val barrier_steps : unit -> int
(** Steps one flush/fence barrier takes in the system executing the
    current step: its flush cost if built with barriers on, else 0
    (also outside any step). *)

val barriers : unit -> bool
(** [barrier_steps () > 0]. *)

val attach :
  ?touch:(unit -> unit) -> persist:(unit -> unit) -> revert:(unit -> unit) -> unit -> line option
(** Attach a line for a freshly created shared location: to the cache
    of the system executing the current step (an object created lazily
    by a step), or, outside any step, to the ambient cache (a build).
    A system built with no cache sets no step context, so an object
    one of its steps creates sees the ambient slot, which is empty
    outside a {!scoped} build.
    [persist] copies volatile -> durable, [revert] the reverse.
    [touch] (default no-op) is called after every line-state mutation
    (ownership change, write-back, crash handling) so the owning
    object can invalidate its {!Heap} fingerprint-cache slot.  Returns
    [None] (and the location behaves write-through) when that cache is
    absent or [Eager].  Line-state mutations are
    undo-journaled while a {!Undo} journal is recording, including the
    line-id allocation (the [Torn] crash rule keys on ids). *)

val dirty : line -> unit
(** Record a write to the line's volatile copy.  Inside a step, marks
    the line dirty with the stepping pid as owner; outside any step
    (set-up [poke]s), persists immediately. *)

val flush_line : line -> unit
(** Write the line back (body of a flush barrier step).  Any process may
    flush any line. *)

val fence_here : unit -> unit
(** Write back every line owned by the pid executing the current step
    (body of a fence barrier step). *)

val on_crash : cache -> pid:int -> crashes:int -> unit
(** Apply the policy's crash semantics to every line owned by [pid].
    [crashes] is the pid's crash count before this crash; the [Torn]
    rule persists a line iff [(line id + crashes) mod 2 = 0] -- a
    deterministic, traversal-order-independent function of fingerprinted
    data, keeping deduplication sound. *)
