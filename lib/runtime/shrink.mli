(** Delta-debugging minimization of violating schedules.

    A violating schedule found by an adversary sweep or a deep
    exploration can be hundreds of choices long, most of them
    irrelevant.  {!minimize} applies Zeller-Hildebrandt ddmin to the
    schedule, using replay-from-scratch as the oracle: a candidate
    sub-schedule is kept only if replaying it against a fresh system
    (built by the same deterministic [mk] used to find the violation)
    still trips the invariant checker.  The result is {e 1-minimal}: no
    single choice can be removed without losing the violation -- a
    human-readable witness.

    Soundness is by construction: every accepted candidate was
    re-checked to violate, so the shrunk schedule always reproduces a
    violation (not necessarily with the original message -- a shorter
    schedule may trip a logically earlier check).  Termination is by
    measure: every accepted step strictly shrinks the schedule. *)

val check :
  mk:(unit -> Sim.t * (unit -> unit)) -> Schedule.choice list -> (string * int) option
(** [check ~mk sched] replays [sched] against a fresh system, running
    the invariant checker after every choice.  [Some (msg, used)] means
    the checker raised [msg] after the first [used] choices (so the tail
    beyond [used] is dead weight); [None] means the full replay passed.
    Never raises {!Explore.Violation_found}; abandons the system either
    way. *)

val minimize :
  mk:(unit -> Sim.t * (unit -> unit)) ->
  Schedule.choice list ->
  (Schedule.choice list * string) option
(** [minimize ~mk sched] ddmin-minimizes a violating schedule, returning
    the 1-minimal schedule and the violation message it reproduces;
    [None] if [sched] does not violate in the first place (nothing to
    shrink).  At most 100 000 oracle replays run; if they run out, the
    best schedule found so far is returned (still violating, possibly
    not 1-minimal). *)
