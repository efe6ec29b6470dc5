(** Schedules -- sequences of step/crash choices -- and their metadata.

    A schedule is the currency of the whole fault-injection subsystem:
    the exhaustive explorer ({!Explore}) enumerates them, the seeded
    adversaries ({!Adversary}) sample and record them, the shrinker
    ({!Shrink}) minimizes them, and counterexample artifacts serialize
    them.  {!apply} replays one choice against a live system; replaying
    a recorded schedule against a fresh system built by the same
    deterministic builder reproduces the run exactly.

    {!provenance} is the self-description attached to violations and
    artifacts: where the schedule came from (exhaustive exploration or a
    named adversary policy), under which seed and parameters, and on
    which workload (an object-type fingerprint), so a witness file is
    replayable without the conversation that produced it. *)

type choice = Step_choice of int | Crash_choice of int

val pp_choice : Format.formatter -> choice -> unit
val pp : Format.formatter -> choice list -> unit

val apply : Sim.t -> choice -> unit
(** Replay one choice: [Step_choice i] steps process [i] (a no-op if it
    already finished), [Crash_choice i] crashes it. *)

val body_failure : exn -> string option
(** The one rule telling an algorithm failure from a harness error:
    [Some msg] when the exception is an [Invalid_argument msg] or
    [Failure msg] raised by a process body -- a violation of the
    algorithm under test.  [None] for the harness's own defensive
    checks, whose messages name their [Sim.] or [Schedule.] entry point,
    and for every other exception: those are not the algorithm's and
    must escape.  {!apply_guarded}, {!Adversary.run} and the service's
    churn loop all classify through it. *)

val apply_guarded : Sim.t -> choice -> (unit, string) result
(** {!apply}, with a {!body_failure} returned as
    [Error "uncaught exception in process body: <msg>"], the violation
    message the explorer and the shrinker report.  Every other exception
    escapes. *)

val crashes : choice list -> int
(** Number of crash choices in the schedule. *)

val to_json : choice list -> Json.t
(** Compact array of ["s<pid>"] / ["c<pid>"] strings. *)

val of_json : Json.t -> choice list
(** @raise Invalid_argument on malformed input. *)

(** Where a schedule came from: enough to re-derive it. *)
type provenance = {
  origin : string;  (** ["explore"] or ["adversary:<policy>"] *)
  seed : int option;  (** adversary seed, when the origin is seeded *)
  params : (string * string) list;
      (** rendered knobs: crash budget, crash rate, dedup flag, ... *)
  fingerprint : string option;
      (** object-type / workload fingerprint (see
          {!Rcons.Counterexample}) tying the schedule to the system it
          was recorded against *)
}

val provenance_to_json : provenance -> Json.t
val provenance_of_json : Json.t -> provenance
val pp_provenance : Format.formatter -> provenance -> unit
