(** Pluggable persistency model: a volatile write-back cache between
    simulated processes and the non-volatile heap.

    Under [Eager] (the default ambient state: no cache at all, or an
    [Eager] cache) every shared write is durable the moment its step
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
    plus the policy and the flush cost. *)

type line
(** One cache line = one shared location.  Created by the shared-object
    constructors ([Cell], [Growable], [Sim_obj]) when a non-[Eager]
    cache is ambient. *)

val create : ?flush_cost:int -> policy -> cache
(** [flush_cost] (default 1, must be >= 1) is the number of simulated
    steps one flush/fence barrier costs. *)

val policy : cache -> policy
val flush_cost : cache -> int

val owner : line -> int option
(** Pid of the latest writer of a dirty line; [None] when the line is
    clean (volatile copy = durable copy).  Shared objects fold this
    into their registered digests so cache state enters
    [Sim.fingerprint_digest]. *)

val cache_of : line -> cache

(** {2 Ambient cache (domain-local, mirrors [Heap] arenas)} *)

val activate : cache -> unit
val deactivate : unit -> unit
val current : unit -> cache option

val restore : cache option -> unit
(** [restore (current ())] brackets code that may activate caches. *)

val scoped : ?flush_cost:int -> policy -> (unit -> 'a) -> 'a
(** Run with a fresh ambient cache of the given policy; restores the
    previously ambient cache afterwards (exception-safe). *)

(** {2 Hooks for [Sim] and the shared-object constructors} *)

val in_step : cache -> int -> (unit -> 'a) -> 'a
(** Bracket one simulator step of pid [i] on a cache-backed system:
    establishes the (cache, pid) step context that [dirty] and
    [fence_here] consult. *)

val attach :
  ?touch:(unit -> unit) -> persist:(unit -> unit) -> revert:(unit -> unit) -> unit -> line option
(** Attach a line for a freshly created shared location to the ambient
    cache.  [persist] copies volatile -> durable, [revert] the reverse.
    [touch] (default no-op) is called after every line-state mutation
    (ownership change, write-back, crash handling) so the owning
    object can invalidate its {!Heap} fingerprint-cache slot.  Returns
    [None] (and the location behaves write-through) when no cache is
    ambient or the ambient cache is [Eager].  Line-state mutations are
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

val dirty_count : cache -> int
(** Number of dirty lines (diagnostics and tests). *)
