(** One hosted shard of the recoverable-consensus service: a
    {!Rcons_universal.Runiversal} counter (or a {!Rcons_log.Rlog}
    replicated log) served by a bounded worker pool of simulated
    processes, multiplexing its client sessions under injected
    crash/recover churn.

    An instance is a fully self-contained deterministic discrete-event
    simulation: its own adversary, its own RNGs (seeded from
    [(seed, id)]), its own {!Rcons_runtime.Persist} cache, its own
    admission queue, sessions and worker [Sim].  {!run} drives it from
    creation to completion on the calling domain and returns a plain-data
    {!report}; running the same config twice -- on any domain -- yields
    structurally equal reports, which is what lets the service layer
    partition instances across domains without changing any result.

    {2 Engine shape (one tick)}

    wake sleeping client fibers -> open-loop arrivals -> dispatch
    batches to idle workers (or start a log generation) -> churn:
    adversary crash decision ({!Rcons_runtime.Adversary.decide}), run
    each busy worker's quantum in one resumption
    ({!Rcons_runtime.Sim.run_steps}: nothing is decided between its
    steps), close recovery intervals ->
    deliver completions -> sweep deadlines (timeout answers) -> windowed
    online check at drain points.

    Every client is a {!Session} fiber running one retry loop: the
    closed-loop sessions first, then one single-op fiber per open-loop
    arrival, created when it arrives (so op ids follow arrival order)
    and drawing its backoff jitter from one RNG shared by all open-loop
    fibers.  Fibers are woken and swept in index order.  The churn step
    is the same for both backends; it is the only caller of the
    adversary.

    Crashes arrive only at tick boundaries (quantum-granular crash
    points); recovery is the model's own: the crashed worker re-runs its
    body, and {!Rcons_universal.Runiversal.invoke}'s idempotent
    [(pid, op-id)] registry (or the log's durable-vote replay) turns the
    re-execution into recovery replay.

    The engine's shape is fixed, not configured: a universal instance
    serves through 3 workers, dispatches batches of up to 4 ops, steps
    a busy worker at most 6 simulated steps per tick, and cuts a check
    window every 24 completed ops; a log generation takes up to 4
    slots; clients retry under {!Backoff.default}.

    {2 Online checking}

    The durable-linearizability checker runs over bounded history
    windows cut at drain points (dispatch pauses until in-flight batches
    complete), respecting {!Rcons_history.Linearizability.check}'s
    62-operation bound: a window holds at most its 24 trigger ops plus
    the 3 x 4 ops in flight when it fired.  Each window starts from the
    peeked abstract state after the previous one, so an acknowledged effect
    lost to a later crash fails the {e next} window (one-window
    detection lag).  Log instances check per generation:
    {!Rcons_log.Rlog.check_exn} plus the prefix-durability verdict.  Any
    failure raises {!Violation} -- the soak aborts, never limps on. *)

exception Violation of { instance : int; tick : int; msg : string }

type kind = Universal | Log

type config = {
  id : int;  (** instance id; also salts every per-instance seed *)
  seed : int;
  kind : kind;
  adversary : Rcons_runtime.Adversary.policy;
  persist : Rcons_runtime.Persist.policy;
  flush_cost : int;
  annotated : bool;
      (** persist barriers on ([true], the hardened service); [false] is
          the negative control that the online checkers must catch under
          a non-eager policy *)
  queue_cap : int;  (** admission bound; beyond it submissions shed *)
  sessions : int;  (** closed-loop client sessions (effect fibers) *)
  ops_per_session : int;
  open_rate : float;  (** open-loop arrivals per tick (0 = closed-loop only) *)
  open_ops : int;
      (** total open-loop arrivals; each is a one-op client fiber that
          retries like a session's op and may give up *)
  cert : Rcons_check.Certificate.recording option;  (** required for [Log] *)
  max_ticks : int;  (** hard stop; hitting it reports [r_stuck] *)
}

val validate : config -> unit
(** @raise Invalid_argument on inconsistent knobs (zero queue cap,
    negative session counts, open ops without a rate, log without
    certificate, log generations over the 62-op bound, ...). *)

(** Plain data (histograms are int arrays), so cross-domain determinism
    tests compare whole reports with [(=)]. *)
type report = {
  r_id : int;
  r_kind : string;
  r_ticks : int;
  r_sim_steps : int;
  r_submitted : int;  (** distinct ops that reached admission at least once *)
  r_acked : int;  (** ops whose success was delivered to the client *)
  r_completed : int;  (** ops the object applied (acked or not) *)
  r_completed_unacked : int;  (** applied after the client gave up *)
  r_gave_up : int;  (** submitted, never acknowledged *)
  r_retries : int;  (** re-submissions of an already submitted op *)
  r_timeouts : int;  (** Timeout answers delivered *)
  r_overloads : int;  (** Overloaded answers delivered *)
  r_shed : int;  (** admission rejections *)
  r_admitted : int;
  r_queue_high_water : int;
  r_crashes_delivered : int;
  r_crashes_requested : int;
  r_recoveries : int;  (** interrupted-work recovery intervals closed *)
  r_checks_run : int;
  r_generations : int;  (** log generations completed *)
  r_stuck : bool;  (** hit [max_ticks] with work outstanding *)
  r_latency : Metrics.hist;  (** submit -> ack, in ticks *)
  r_recovery : Metrics.hist;  (** crash -> interrupted work completed, in ticks *)
  r_replay : Metrics.hist;  (** log: slots replayed per process recovery *)
  r_commit_trace : string;  (** canonical commit order, for digesting *)
}

val run : config -> report
(** Drive the instance to completion (every open-loop op arrived, every
    client fiber finished, queue drained, final checks passed) or to
    [max_ticks].

    @raise Violation on any online or final checker failure, including a
    lost acknowledged op. *)
