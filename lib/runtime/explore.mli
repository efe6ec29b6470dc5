(** Bounded exhaustive schedule exploration (stateless model checking).

    Enumerates every schedule of a freshly created system -- each point
    chooses a step of an unfinished process or a crash of a started,
    unfinished process (at most [max_crashes] crashes) -- and runs the
    user invariant after every choice.  Process bodies must be
    deterministic: a system is rebuilt by re-executing its schedule
    prefix.

    One walker keeps one live system per (sub)tree, applies each choice
    in place, and returns the system to the fork point before the next
    sibling under one of two backtrack strategies.  By default it rolls
    back: {!Sim.mark} / {!Sim.rollback} over the {!Undo} journal, so a
    sibling costs the steps since the fork instead of the whole prefix.
    [?undo:false] selects the rebuild strategy, the correctness oracle:
    no journal, and each restore replays the fork point's prefix into a
    fresh system.  Only the restore differs, so both strategies produce
    byte-identical statistics, violations, and checkpoints in every
    mode.

    Pruning: crashing a process that has not stepped since its last
    (re)start is a no-op in the model and is skipped, which also prunes
    consecutive duplicate crashes.

    {2 Deduplication}

    With [?dedup:true] the tree is explored as a {e state graph}: every
    reached state is fingerprinted ({!Sim.fingerprint_digest} -- non-volatile
    heap snapshot plus per-process control state) and the visited
    store ({!Rcons_par.Visited}) ensures each distinct state is
    expanded exactly once; later encounters count as {!stats.dedup_hits}
    and are pruned.  Two schedules reaching the same fingerprint have
    identical futures, so pass/violation outcomes are preserved, but the
    statistics change meaning: [nodes] counts state-graph edges walked
    (not tree edges), [schedules] counts final states reached, and
    [distinct_states] reports the visited-set size.  Because the
    fingerprint includes cumulative per-process step/crash counts the
    state graph is graded by depth, making every statistic independent
    of visit order -- see the parallel contract below.  Dedup is {b off
    by default}: raw tree counts are what the paper-facing tables
    report, and fingerprinting requires all shared state to live in
    registered containers ({!Cell}, {!Growable}, {!Sim_obj}, the output
    logs).

    {2 Partial-order reduction}

    With [?por:true] the walker runs the classic sleep-set algorithm
    over the independence relation derived from step footprints
    ({!Rcons_spec.Footprint}): once a child subtree has been explored,
    later sibling subtrees skip any first move that commutes with it, so
    interleavings that differ only by swaps of adjacent independent
    transitions are explored once ({!stats.por_pruned} counts the
    skips).  Crashes never commute with their victim's steps, commute
    with other crashes only while at least two crash credits remain, and
    commute with other processes' steps only under the eager persistency
    model.  Sleep sets prune {e interleavings}, never {e states}: every
    reachable state is still visited, and the invariants here are state
    properties, so a reduced run finds a violation iff the raw run does
    -- though possibly via a different schedule, which still replays
    concretely.  Raw por composes with parallel walkers (frontier items
    carry their sleep sets) and stays bit-identical to the sequential
    reduced run.  [por + dedup] switches to {e ungraded} fingerprints
    (total crashes only) and the visited store's sleep-mask cover rule
    (Godefroid--Holzmann--Pirottin): the strongest reduction, but its
    statistics are visit-order dependent, so it requires [domains = 1].

    {2 Symmetry reduction}

    [?symmetry:classes] (requires [dedup]) canonicalizes fingerprints
    over the group of process relabelings generated by the given classes
    ({!Sim.relabelings}); states that are relabelings of one another
    collapse to one visited-set entry, and {!stats.symmetry_hits} counts
    edge targets whose canonical digest beat their identity labeling.
    Each class lists pids that are genuinely interchangeable -- same
    code, same input -- and the {b caller} is responsible for that
    symmetry holding (e.g. {!Rcons_check.Certificate.symmetry_classes}).
    Explored schedules remain concrete, so replay is unchanged.

    {2 Parallel exploration}

    With [?domains > 1] the schedule tree is split at [frontier_depth]:
    the top of the tree is walked sequentially, and the frontier
    subtrees are fanned out through one {!Rcons_par.Pool.find_first},
    each re-executed with its own fresh systems.  One frontier driver
    serves both modes.

    Statistics are merged in frontier (= DFS = lexicographic) order, and
    in raw mode the violation reported, if any, is the one at the
    smallest frontier index -- the one the sequential DFS would have
    raised first -- so completed runs are bit-identical to
    [?domains:1].  A walker right of a known violation learns it is
    superseded ({!Rcons_par.Pool.superseded}) and stops mid-walk.  In
    dedup mode, walkers share the visited set; exactly-once expansion
    makes the merged statistics identical to the sequential dedup run on
    any domain count, and a violation found by any walker cancels every
    walker and triggers one sequential deduplicating re-run whose first
    violation is, again, deterministic.  (The dedup
    violation schedule can differ from the raw-mode one -- dedup prunes
    some paths to a violating state -- but never between dedup runs.)

    {2 Budgeted, resumable exploration}

    [?node_budget] (sequential mode only) is the explorer's only budget:
    without it a walk runs until the tree (or state graph) is
    exhausted; with it the run is {e preemptible}.  When the budget
    trips, the explorer raises {!Interrupted} carrying a serializable
    {!checkpoint} -- the DFS cursor (the schedule prefix of the first
    node {e not yet counted}), the statistics of everything already
    explored, (under dedup) the visited store with each state's
    (sleep mask, depth) covers, and the run's {!Schedule.provenance}.
    Passing the checkpoint back via [?resume_from] re-descends the
    cursor spine without re-counting it, skips the fully-explored
    subtrees to its left (under [por] they join the spine node's sleep
    set), and continues the DFS exactly where it stopped: the final
    statistics -- and any violation found -- are {b bit-identical} to
    an uninterrupted run in every sequential mode (raw, dedup, por,
    symmetry and their combinations), no matter how many times the run
    is cut and resumed.  Checkpoints serialize to JSON
    ({!save_checkpoint} / {!load_checkpoint}); a resume whose
    provenance differs from the checkpoint's -- another crash budget,
    reduction, persistency model, workload [?fingerprint] or step
    bound -- is refused. *)

type choice = Schedule.choice = Step_choice of int | Crash_choice of int

val pp_schedule : Format.formatter -> choice list -> unit

(** An invariant violation: the offending schedule plus the provenance
    of the run that found it (origin, parameters, workload fingerprint
    -- see {!Schedule.provenance}).  [v_provenance] is always [Some]
    when the exception escapes {!explore}; it is [None] only for
    violations raised by other layers that attach their own provenance
    (the adversary harnesses). *)
type violation = {
  v_msg : string;
  v_schedule : choice list;
  v_provenance : Schedule.provenance option;
}

exception Violation of violation

(** Exploration totals.  [schedules] counts completed schedules (leaves;
    under dedup, distinct final states), [nodes] counts tree edges
    visited (under dedup, state-graph edges walked), [max_depth] is the
    deepest point reached.  [dedup_hits] (edges pruned because their
    target state was already claimed) and [distinct_states] (visited-set
    size, root included) are [0] unless [dedup] was on.  [por_pruned]
    (children skipped because they were in the node's sleep set) is [0]
    unless [por]; [symmetry_hits] (walked edges whose target's canonical
    digest beat its identity labeling) is [0] unless [symmetry]. *)
type stats = {
  schedules : int;
  nodes : int;
  max_depth : int;
  dedup_hits : int;
  distinct_states : int;
  por_pruned : int;
  symmetry_hits : int;
}

exception Violation_found of string
(** Raised by invariant checkers (via {!fail}) inside [mk]'s checker. *)

val fail : string -> 'a
(** Raise {!Violation_found}: how an invariant checker reports a
    violation to the explorer (and to the random drivers' sweeps). *)

type checkpoint
(** A resumable cut of an interrupted sequential exploration: DFS
    cursor, accumulated statistics, visited-store contents (dedup mode),
    and the provenance of the run that cut it. *)

exception Interrupted of checkpoint
(** A [node_budget] tripped; the checkpoint resumes the run
    ({!explore}'s [?resume_from]) to bit-identical final results. *)

val checkpoint_stats : checkpoint -> stats
(** Statistics of the region explored before the interrupt (these are
    final for that region: resuming continues from them). *)

val checkpoint_to_json : checkpoint -> Json.t
(** Writes format version 4: a [provenance] object
    ({!Schedule.provenance_to_json}), the statistics, the cursor, and
    [visited] as ["<digest> <mask>:<depth> ..."] strings, one per
    claimed state with its covers in claim order; digests are hex MD5s
    of {!Sim.fingerprint_digest}'s fixed-width sections and summed
    heap digest. *)

val checkpoint_of_json : Json.t -> checkpoint
(** Reads exactly format version 4, every field required.
    @raise Invalid_argument with a one-line diagnosis on a malformed
    checkpoint or one of any other version (unversioned, versions 1 to
    3, or newer), naming the version: an older checkpoint does not
    record the reductions it ran under, or (version 3) holds digests of
    an older fingerprint format that no state of this build matches, so
    resuming it could silently finish a different exploration. *)

val save_checkpoint : file:string -> checkpoint -> unit
(** Serialize atomically: the JSON is written to [file ^ ".tmp"] and
    renamed over [file], so a crash of the writing process can never
    leave a truncated checkpoint where [?resume_from] expects a valid
    one. *)

val load_checkpoint : file:string -> checkpoint
(** @raise Invalid_argument on a corrupt or truncated file (the message
    names the parse offset or the missing field), [Sys_error] on an
    unreadable one. *)

val apply_choice : Sim.t -> choice -> unit
(** Replay one schedule choice against a system (= {!Schedule.apply}). *)

val explore :
  ?max_crashes:int ->
  ?domains:int ->
  ?frontier_depth:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?symmetry:int list list ->
  ?node_budget:int ->
  ?resume_from:checkpoint ->
  ?fingerprint:string ->
  ?undo:bool ->
  mk:(unit -> Sim.t * (unit -> unit)) ->
  unit ->
  stats
(** [explore ~mk ()] where [mk ()] builds a fresh system together with an
    invariant checker (raising via {!fail}).  [max_crashes] defaults to
    1.  A schedule longer than the fixed step bound of 10 000 choices
    raises {!Violation} ("wait-freedom"); the provenance of checkpoints
    and violations records that bound as [max_steps].

    [?domains] (default 1 = sequential) distributes frontier subtrees
    across that many OCaml 5 domains; [?frontier_depth] (default 4,
    clamped to >= 1) is the depth at which the tree is split.  [mk] is
    then called concurrently from several domains, so it must build
    genuinely fresh, unshared state on every call -- which the replay
    semantics already require.

    [mk] owns the workload's persistency model: it builds each system
    under its own write-back cache ({!Persist.scoped} inside [mk], as
    [Counterexample.mk] does), which the system carries.  The explorer
    reads the model off the first system [mk] returns ({!Sim.cache}) for
    the crash/step independence of [?por] and for the [persist] /
    [flush_cost] provenance parameters (absent for eager at cost 1);
    nothing ambient around the call matters.

    [?dedup] (default [false]) turns on state-space deduplication (see
    above).  Each replayed system is then built under a fresh {!Heap}
    arena; the arena active before the call, if any, is restored on
    exit.

    [?por] (default [false]) turns on sleep-set partial-order reduction
    and [?symmetry] on process-symmetry canonicalization (see above).
    Both default off, and with both off every mode is byte-identical to
    the unreduced explorer.  [por + dedup] and [symmetry] without
    [dedup] have restrictions listed above; [por] supports at most 30
    processes (sleep masks are bit-packed).

    [?node_budget] (nodes counted by {e this} invocation -- a resumed
    run gets a fresh allowance) makes the run preemptible: the budget
    trip raises {!Interrupted} with a {!checkpoint}, and [?resume_from]
    continues a checkpointed run (see above).  A [node_budget] below 1
    or a negative [max_crashes] raises [Invalid_argument] before
    anything runs.  The budget and resume require [domains = 1]
    ([Invalid_argument] otherwise).  A resume builds the root system
    once (the provenance names its persistency model) and, before any
    node is counted, raises [Invalid_argument] (one line naming both
    provenances) unless the run's provenance equals the checkpoint's.
    A checkpoint whose cursor is empty -- one of a {e completed}
    exploration -- then returns its statistics unchanged instead of
    re-walking the tree.

    [?fingerprint] is an optional workload identifier (object-type
    digest) recorded in the provenance, so that counterexample artifacts
    can refuse replay against the wrong workload and a checkpoint
    refuses a resume on a different one.

    [?undo] (default [true]) selects the backtrack strategy: rollback
    over the undo journal, or with [false] the rebuild oracle.  Both
    cut identical checkpoints and either resumes any checkpoint.

    @raise Invalid_argument if [max_crashes < 0]. *)
