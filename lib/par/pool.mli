(** Domain pool with deterministic result merging: the one place in
    the library that spawns domains.

    Both combinators evaluate a function on the index range [0, n) and
    combine the per-index results so that the outcome is {e independent
    of the number of domains}: running with [?domains:1] (the default)
    and with any larger value yields the same value, bit for bit.  This
    is the determinism contract the parallel decision procedures
    ({!Rcons_check.Recording}, {!Rcons_check.Discerning} and the
    {!Rcons_check.Brute_force} oracles), the parallel schedule explorer
    ({!Rcons_runtime.Explore}) and the service soak ([Rcons_service.Soak])
    rely on.  [map] and [find_first] share one range driver; [map] is
    the scan that never stops early.
    Determinism comes from the {e merge} of per-index results, never
    from the schedule, so it survives any claim order and any clamping
    of the domain count.

    {2 Execution model}

    Two mechanisms keep parallel overhead proportional to the work
    rather than to the call count:

    - {b A granularity cutoff.}  Every combinator runs indices inline on
      the calling domain until {!sequential_cutoff} seconds have
      elapsed, and only fans out the remainder.  Small scans never spawn
      a domain; a scan that does fan out is guaranteed to carry at least
      a grace period of work, which amortizes the per-job spawn cost.
    - {b One shared cursor.}  Participants claim the remaining indices
      one at a time off an atomic counter, so indices are handed out in
      order.  A [find_first] hit usually sits near the front of the
      range; in-order claims keep every participant there, and a claim
      at or above the smallest hit so far ends the claimer's loop.

    Worker domains are spawned per job and joined before the combinator
    returns — never parked in a persistent pool, because on OCaml 5
    every live domain participates in stop-the-world minor collections
    and parked idle domains measurably tax allocation-heavy sequential
    phases.  A fresh domain per job also means worker domain-local state
    (heap arenas, persistency caches) never leaks between jobs.

    With [domains <= 1], inside a worker (nested calls run inline — they
    never nest fan-outs), or when the range drains within the grace
    period, everything runs on the calling domain with no atomics.

    The user function may be called from any domain, at most once per
    index ([map]) and at most once per index that is still able to
    affect the merged result ([find_first]).  It must be
    pure with respect to shared state; exceptions it raises are
    re-raised in the caller after all participants have quiesced. *)

val available_domains : unit -> int
(** The runtime's recommended domain count for this machine
    ([Domain.recommended_domain_count ()]); at least 1. *)

val resolve_domains : int option -> int
(** [resolve_domains d] normalizes a user-facing [?domains] knob:
    [None] and values [<= 1] mean sequential (returns 1); [Some k] is
    returned as is.  The pool clamps each job to at most
    [max 4 (available_domains ())] participants, so a generous CLI flag
    cannot fork-bomb the runtime; since determinism is merge-based, the
    clamp is invisible in results. *)

val map : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [map ~domains n f] is [Array.init n f] evaluated on up to [domains]
    domains.  Result order is index order regardless of execution
    order. *)

val find_first : ?domains:int -> int -> (int -> 'a option) -> 'a option
(** [find_first ~domains n f]: the value of [f i] for the {e smallest}
    [i] with [f i <> None] — exactly what a sequential left-to-right
    [find_map] over the range returns.  Parallel participants claim the
    range in index order off one cursor; an atomic lowest-success-so-far
    watermark stops each of them at its first claim at or above the
    smallest hit so far, so indices above the answer start only while
    the answer itself is still being evaluated. *)

val superseded : unit -> bool
(** [superseded ()], called from inside a [find_first] function, is
    true once some smaller index has returned [Some]: the current
    index's result will be discarded, so a long evaluation may give up
    early and return anything.  False in sequential scans, in the grace
    period and outside any scan.  The explorer's parallel raw walkers
    poll it to abandon subtrees right of a violation mid-walk. *)

(** {2 Tuning} *)

val sequential_cutoff : unit -> float
(** Current grace period in seconds (default 0.001).  Each combinator
    call runs inline until this much wall time has elapsed before
    fanning out. *)

val set_sequential_cutoff : float -> unit
(** Override the grace period (seconds; clamped to [>= 0]).  [0.] fans
    out immediately — the test suite uses this to force every combinator
    through the parallel paths regardless of how fast the work is. *)

(** {2 Telemetry}

    Cheap global counters for benchmarking; never consulted by the
    combinators themselves. *)
module Telemetry : sig
  type snapshot = {
    jobs : int;  (** parallel jobs submitted to the pool *)
    chunks : int;
        (** index claims off a parallel job's cursor, each participant's
            loop-ending claim included *)
    seq_cutoffs : int;  (** calls completed inside the grace period *)
    restores : int;
        (** explorer rollbacks to a journal mark ({!Rcons_runtime.Sim.rollback}) *)
    undo_entries : int;  (** undo-journal entries pushed *)
    undo_bytes_peak : int;
        (** high-water estimate of a journal's in-memory footprint
            (entries at the deepest point x an approximate closure size);
            raise-only across domains, so [diff] reports the bracket's
            end value rather than a subtraction *)
    rehashes_full : int;
        (** fingerprint components whose digest thunk actually ran *)
    rehashes_saved : int;
        (** fingerprint components served from an undo-maintained cache
            slot without recomputing *)
  }

  val snapshot : unit -> snapshot
  (** Current counter values (monotone since program start). *)

  val diff : snapshot -> snapshot -> snapshot
  (** [diff after before]: per-field subtraction, for bracketing a
      workload ([undo_bytes_peak] excepted — see its doc). *)

  val note_undo : restores:int -> entries:int -> bytes_peak:int -> unit
  (** Batched contribution from an undo journal being retired: add
      [restores]/[entries] to the global counters and raise the global
      byte peak to at least [bytes_peak]. *)

  val note_rehashes : full:int -> saved:int -> unit
  (** Batched contribution from one fingerprint snapshot: how many
      component digests were recomputed vs served from cache. *)
end
