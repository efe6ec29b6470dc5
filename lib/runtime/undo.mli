(** Domain-local undo journal: the foundation of the explorer's
    rollback backtrack strategy.

    While a journal is installed, every mutation of simulated state
    pushes a restore closure via {!log}; {!mark} captures the stack
    extent and {!rollback_to} pops back to it, running the closures
    newest-first.  Rolling back to a mark therefore restores the whole
    simulation — cell contents, cache-line state, process counters,
    container growth, digest registrations, allocator counters — to its
    state when the mark was taken, without replaying the schedule
    prefix.

    With no journal installed every hook degenerates to one branch, so
    code outside the explorer's rollback strategy (unit tests, checkers,
    the rebuild oracle behind [Explore.explore ~undo:false]) is
    unaffected.

    Counters (restores, entries pushed, peak footprint) accumulate
    journal-locally and flush to {!Rcons_par.Pool.Telemetry} on
    {!uninstall}. *)

val install : unit -> unit
(** Install a fresh journal on the calling domain.  Raises
    [Invalid_argument] if one is already installed (the explorer pairs
    install/uninstall with [Fun.protect]). *)

val uninstall : unit -> unit
(** Retire the domain's journal (if any): flush its counters to
    {!Rcons_par.Pool.Telemetry} and drop it.  Pending entries are
    discarded, not run. *)

val installed : unit -> bool

val recording : unit -> bool
(** True when mutations should journal themselves: a journal is
    installed, no rollback is in progress, and no recorded step values
    are being re-fed.  Call sites whose restore closure captures
    non-trivial state guard on this before allocating it ({!log}
    re-checks internally either way). *)

val log : (unit -> unit) -> unit
(** Push a restore closure.  No-op unless {!recording}. *)

val mark : unit -> int
(** The journal's current extent (0 with no journal). *)

val rollback_to : int -> unit
(** Pop entries newest-first down to a {!mark}, running each.  Restore
    closures run with recording disabled, so the mutations they re-apply
    do not journal themselves.  No-op with no journal installed; raises
    [Invalid_argument] if the mark lies beyond the current tip (a
    use-after-rollback bug in the caller). *)

val feeding : unit -> bool
(** True while {!Sim.rollback} is rebuilding a process continuation by
    re-feeding recorded step values.  Step bodies are skipped during the
    feed, but bookkeeping around them re-runs; non-idempotent
    instrumentation (history appends, recovery counters) must check this
    flag and skip itself. *)

val with_feeding : (unit -> 'a) -> 'a
(** Run with the {!feeding} flag set (exception-safe). *)

(** {2 Hot-path handles}

    [Domain.DLS.get] costs a few indirections; paths that consult the
    journal on every simulated step (the simulator's step/crash/rebuild
    machinery) amortize it by capturing the domain's journal slot once.
    The handle is the {e slot}, not the journal: it stays valid across
    install/uninstall cycles, and must only be used from the domain that
    created it (like everything else here). *)

type handle

val handle : unit -> handle
(** The calling domain's journal slot. *)

val h_installed : handle -> bool
val h_recording : handle -> bool

val h_log : handle -> (unit -> unit) -> unit
(** {!log} through a handle (same no-op semantics). *)
