(** Recoverable replicated log: a chain of recoverable-consensus
    instances with a quorum-counter committed prefix.

    Each of the [slots] log positions is decided by its own recoverable
    team-consensus instance ({!Rcons_algo.Team_consensus}, Figure 2 of
    the paper) instantiated from one recording certificate; every member
    of a team proposes the same per-(team, slot) value, so the
    certificate's {!Rcons_check.Certificate.symmetry_classes} stay sound
    for the symmetry-reducing explorer.  On top of the per-slot
    instances sit two shared structures in the non-volatile heap:

    - the {e chain}: [decided.(slot)], a register caching each slot's
      decision so recovery can replay the prefix without re-running
      consensus; and
    - the {e quorum counter} (modeled on the Wasp QC module, see
      SNIPPETS.md): [votes.(pid)] is the length of the prefix process
      [pid] has durably completed, and the {b committed prefix} is the
      largest [li] such that at least a majority of processes have a
      {e durable} vote [>= li] -- volatile progress commits nothing.

    A process crashing mid-append loses its volatile state and restarts
    its whole body: recovery reads its own durable vote, replays the
    chain prefix it advertises (counted in {!recovery_steps}), and
    resumes appending from there -- re-entering a slot's consensus
    instance mid-decision is exactly the crash-restart the Figure 2
    algorithm is built for.

    Built with barriers on ({!Rcons_runtime.Persist.scoped}
    [~barriers]), the log follows the persist-barrier discipline for
    the write-back cache models: a slot's decision is made durable
    (write + link-and-persist read, retried until the durable copy
    holds a decision) {e before} the vote that advertises it is
    flushed.  Built without barriers, the lossy cache model breaks
    per-slot agreement -- the committed witness in [_counterexamples/]
    replays the shrunk schedule.  [vote_first] inverts the barrier order (vote durable
    before the decision) as a negative control: the explorer exhibits a
    committed slot whose decision a crash un-persists. *)

type t

val instance :
  ?faithful:bool ->
  ?vote_first:bool ->
  slots:int ->
  Rcons_check.Certificate.recording ->
  t * Rcons_runtime.Sim.t
(** The log and the simulated system running it on [num_procs]
    processes.  The log's shared state (per-slot consensus instances,
    chain, quorum counter) is allocated under the ambient
    {!Rcons_runtime.Persist} cache and {!Rcons_runtime.Heap} arena, and
    the observation log, conflict flag and checker watermark register
    with the arena so {!check_exn} stays a state property for the
    deduplicating explorer.  Each process recovers (replays the durable
    prefix its vote advertises), then appends every remaining slot in
    order.  [faithful] is passed to each slot's
    {!Rcons_algo.Team_consensus.create}; [vote_first] (default [false])
    enables the negative-control barrier order.  Pids
    [0 .. |A| - 1] are the certificate's team A, and each proposes one
    value per (team, slot).

    @raise Invalid_argument when [slots < 1]. *)

val num_procs : t -> int

val committed : t -> int
(** The committed prefix length: largest [li] such that a majority of
    processes have a durable vote [>= li], read from the durable copies
    ([peek_persisted]) -- callable from checking code at any point,
    including mid-crash. *)

val check_exn : fail:(string -> unit) -> t -> unit
(** Invariant checker for the explorer (and the random sweeps): per-slot
    agreement and validity over the observation logs, no
    committed-prefix regression against the watermark, and durability of
    every committed slot's decision.  Reads only Heap-registered state,
    so it is sound under [?dedup].  [fail] is called with a one-line
    diagnosis on the first violated property
    (e.g. {!Rcons_runtime.Explore.fail}). *)

val decided_value : t -> slot:int -> int option
(** The slot's decided value if any -- a volatile out-of-simulation peek
    of the chain register.  The service layer acknowledges an append
    with it once the slot is inside the committed prefix.

    @raise Invalid_argument on an out-of-range slot. *)

val recovery_steps : t -> int array
(** Per-process count of slots replayed from the chain during
    recoveries (a copy; meta-observation for the harness/bench). *)

val recoveries : t -> int array
(** Per-process count of body re-entries after a crash (a copy). *)

val note_crash : t -> pid:int -> unit
(** Record a crash marker in the history and sample {!committed} into
    the committed trace (call from {!Rcons_runtime.Adversary.run}'s
    [on_crash]). *)

val committed_trace : t -> int list
(** The {!committed} readouts sampled by {!note_crash}, oldest first,
    followed by the current one. *)

val verdict : t -> Rcons_history.Conditions.log_verdict
(** {!Rcons_history.Conditions.prefix_durability} of the recorded
    history over {!committed_trace}.  Mutates nothing, so it may be
    called at any point. *)
