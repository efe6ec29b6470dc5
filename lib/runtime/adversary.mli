(** Pluggable, seeded crash adversaries: the unified fault-injection
    engine.

    Every randomized experiment in the repository drives its simulated
    system through this module instead of hand-rolling crash logic.  An
    adversary is a {!policy} (which crash model, per Golab's taxonomy of
    independent vs. simultaneous and bounded vs. unbounded failures)
    instantiated with a seed; {!run} drives a system to completion,
    {e recording the schedule it chose}, so every random run is
    replayable: feeding the recorded schedule to {!Schedule.apply}
    against a fresh system reproduces the execution choice for choice.

    {2 Determinism contract}

    The schedule produced by [(seed, policy)] is a pure function of the
    seed, the policy, and the (deterministic) system under test: the
    adversary draws only from its own [Random.State], never from global
    or domain-local state, so the same run performed on any domain -- or
    under any [?domains] count elsewhere in the process -- yields the
    same schedule bit for bit ([test/test_adversary.ml] checks this
    across domain counts 1/2/4).

    {2 Stream contract}

    One internal crash-opportunity rule serves {!run} and {!decide}, and
    it is the only code that draws a crash from the RNG: at each
    opportunity where a crash is possible (crash budget left, some
    process eligible, inside the policy's window) it draws one [float]
    against [crash_prob], and on a firing one [int] per victim.  {!run}
    adds one [int] per step when it picks the next process at random;
    [Simultaneous] draws nothing.  {!run} charges crashes to a budget
    fresh for each call, {!decide} to one spent over the adversary's
    lifetime.  Every seeded EXPERIMENTS.md table and the service commit
    digests depend on this order; [test/test_adversary.ml] pins it. *)

exception Stuck of string
(** A bounded run did not finish within its step budget; with finitely
    many crashes this indicates a violation of recoverable
    wait-freedom. *)

exception Body_failure of string
(** A process body raised during {!run}: the algorithm under test
    failed, carrying the body's message ({!Schedule.body_failure}).  It
    is a violation, as it is in the explorer and the shrinker. *)

(** Crash models.  All probabilistic policies stop injecting once
    [max_crashes] is reached (the paper's finitely-many-crashes
    assumption), and never crash a process that has not taken a step
    since its last (re)start (a model no-op). *)
type policy =
  | Uniform of { crash_prob : float; max_crashes : int }
      (** Independent crashes: at each point, with probability
          [crash_prob], crash a uniformly chosen started process. *)
  | Storm of { crash_prob : float; burst : int; max_crashes : int }
      (** Bursty crash-storm: crash opportunities fire as in [Uniform],
          but each firing crashes up to [burst] distinct started
          processes back to back -- recoveries pile up. *)
  | Targeted of { victims : int list; crash_prob : float; max_crashes : int }
      (** Only processes in [victims] ever crash: an adversary with a
          grudge (the tournament's critical-path processes, say). *)
  | Simultaneous of { crash_at : int list }
      (** The Figure 4 / Section 2 model: round-robin stepping, with
          {e all} processes crashing whenever the total step count
          reaches one of [crash_at] (deterministic; no randomness). *)
  | Quiescent of { period : int; active : int; crash_prob : float; max_crashes : int }
      (** Crash opportunities only during the first [active] steps of
          every [period]-step window; the remaining steps are a
          quiescent window in which recoveries run undisturbed. *)

val pp_policy : Format.formatter -> policy -> unit

val policy_names : string list
(** The valid policy names, in declaration order: the single source the
    CLI's error messages and {!policy_of_string} both draw from. *)

val policy_of_string :
  ?crash_prob:float ->
  ?max_crashes:int ->
  ?burst:int ->
  ?crash_at:int list ->
  ?period:int ->
  ?active:int ->
  string ->
  (policy, string) result
(** Resolve a policy by name (case-insensitive), instantiated with the
    given knobs (defaults: [crash_prob 0.2], [max_crashes 6], [burst 2],
    [crash_at [5; 17]], [period 12], [active 4]).
    [Error] is the one-line diagnosis CLI callers print before exiting
    2: it lists {!policy_names} for an unknown name, and names the
    setting for a value out of range ([crash_prob] outside [[0, 1]],
    negative [max_crashes] or [active], [burst] or [period] below 1). *)

type t
(** An instantiated adversary: a policy plus a private RNG.  Running it
    mutates the RNG, so one [t] drives a {e sequence} of runs
    reproducible from its creation seed (the sweep pattern of the bench
    experiments). *)

val create : ?seed:int -> policy -> t
(** [create ~seed policy] (default seed 42) seeds the adversary's
    private [Random.State] with [[| seed |]].

    @raise Invalid_argument on the settings {!policy_of_string} rejects. *)

val of_rng : rng:Random.State.t -> policy -> t
(** Wrap an externally owned RNG (a sweep sharing one stream across
    runs).

    @raise Invalid_argument as {!create}. *)

val crashes_injected : t -> int
(** Crashes actually delivered over the adversary's lifetime, across
    every {!run} and {!decide} call — churn {e delivered}, as opposed to
    the churn {!crashes_requested}.  Soak harnesses assert on it so
    "survived the storm" is never vacuously true of a storm that never
    broke. *)

val crashes_requested : t -> int
(** The policy's crash allowance: [max_crashes] for the probabilistic
    policies; for [Simultaneous], the number of crash-all {e firings}
    (each firing crashes every process, so delivered may exceed it). *)

val decide : t -> eligible:int list -> total_steps:int -> int list
(** One crash opportunity of the policy for a caller that owns its own
    scheduler (the service engine), instead of handing the whole run to
    {!run}: given the processes currently {e eligible} to crash (started
    and alive — the caller's responsibility) and the system's cumulative
    step count, return the victims to crash now ([[]] most of the time).
    The returned victims are counted as injected; the caller must
    actually crash them.  Unlike {!run}'s per-call budget, the
    [max_crashes] budget (and the [Simultaneous] threshold list) here
    is spent over the adversary's lifetime.  It is the same crash rule
    as {!run}'s, but the streams are not interchangeable ({!run} also
    draws its step picks): dedicate a [t] to either {!run} or
    {!decide}. *)

type outcome = {
  crashes : int;  (** crashes injected *)
  steps : int;  (** total steps driven *)
  schedule : Schedule.choice list;  (** the full recorded schedule *)
}

val run : ?max_steps:int -> ?record:bool -> ?on_crash:(int -> unit) -> t -> Sim.t -> outcome
(** Drive the system to completion under the adversary's policy.
    [max_steps] (default 1_000_000) bounds the run ({!Stuck} beyond it);
    [record] (default [true]) controls whether the schedule is kept
    ([schedule = []] when off -- the high-iteration sweeps that only
    need counts turn it off); [on_crash pid] is invoked after every
    injected crash (history instrumentation).

    A process body that raises is a violation, as in the explorer: the
    run stops with {!Body_failure}.  A harness error (a [Sim.] or
    [Schedule.] defensive check) and any other exception escape as
    they are.

    @raise Stuck when the step budget runs out.
    @raise Body_failure when a process body raises. *)

val round_robin : ?max_steps:int -> Sim.t -> unit
(** Fault-free round-robin stepping until every process finishes:
    {!run} under [Simultaneous { crash_at = [] }].

    @raise Stuck when the step budget (default 1_000_000) runs out. *)
