(** Crash-aware correctness conditions from Section 4 of the paper:
    strict linearizability (an operation pending at its process's crash
    linearizes before the crash or not at all) versus recoverable
    linearizability (the recovery may complete it later).

    The paper observes that without volatile shared memory RUniversal
    satisfies only the weaker condition; the test suite exhibits
    concrete RUniversal histories that are recoverably but not strictly
    linearizable, and the experiment harness measures how often they
    occur.  Durable linearizability (persisted effects survive crashes)
    coincided with the plain check under the seed write-through model;
    with the [Persist] write-back cache it is checked for real against
    the history's [Persist] markers; see the implementation header. *)

val strict_operations :
  ('o, 'r) History.t -> ('o, 'r) History.operation list
(** Operations with intervals tightened to end at the first crash of
    their process while pending. *)

val strictly_linearizable : ('s, 'o, 'r) Linearizability.spec -> ('o, 'r) History.t -> bool
val recoverably_linearizable : ('s, 'o, 'r) Linearizability.spec -> ('o, 'r) History.t -> bool

val durable_operations :
  ('o, 'r) History.t -> ('o, 'r) History.operation list
(** Operations transformed for durable linearizability: ops with a
    [History.Persist] marker are mandatory; completed ops without one,
    followed by any crash, become optional with a free response (like
    pending ops -- the effect may have been lost with a volatile cache
    line); completed ops with no subsequent crash stay mandatory. *)

val durably_linearizable : ('s, 'o, 'r) Linearizability.spec -> ('o, 'r) History.t -> bool
(** {!Linearizability.check} over {!durable_operations}: every operation
    persisted before a crash must appear in the linearization,
    un-persisted completed operations may vanish. *)

val durable_window :
  after:int -> ('o, 'r) History.t -> ('o, 'r) History.operation list
(** {!durable_operations} restricted to operations with tags [> after]:
    one window of a long-running history, for online checkers that must
    respect {!Linearizability.check}'s 62-operation bound.  The caller
    owns the watermark and the window's initial state (the abstract
    state after the already-checked prefix).

    Cost: the events since the invocation of tag [after + 1] (tags are
    dense and increase with invocation order), not the whole history.
    Same tags, processes, operations, responses, optionality and order
    as the filtered {!durable_operations}; the [inv]/[res] indices count
    from the window's first event, a constant shift that
    {!Linearizability.check} does not see. *)

val durably_linearizable_window :
  ('s, 'o, 'r) Linearizability.spec -> init:'s -> ('o, 'r) History.operation list -> bool
(** {!Linearizability.check} of one {!durable_window}, started from
    [init] instead of the specification's initial state.  Sound online
    checking with one-window detection lag: an acknowledged effect
    reverted by a {e later} crash makes the {e next} window's responses
    inconsistent with its peeked initial state. *)

type verdict = { recoverable : bool; strict : bool; durable : bool }

val classify : ('s, 'o, 'r) Linearizability.spec -> ('o, 'r) History.t -> verdict

(** {2 Prefix durability of the replicated-log API}

    Correctness contract of the recoverable replicated log
    ([Rcons_log.Rlog]): per-slot agreement, monotonicity of the
    committed-prefix readout sampled by the harness, and durable
    linearizability of the log treated as one object. *)

type 'v log_op = Append of { slot : int; value : 'v }
(** The log's one API operation: propose [value] for [slot]; the
    response is the slot's decided value (the proposal of whoever won
    that slot's consensus instance). *)

type log_verdict = { slot_agreement : bool; prefix_monotone : bool; durable_lin : bool }

val log_verdict_ok : log_verdict -> bool

val prefix_durability :
  committed_trace:int list -> ('v log_op, 'v) History.t -> log_verdict
(** Full prefix-durability check: per-slot agreement (every pair of
    completed APPENDs on the same slot returned the same value),
    monotonicity of [committed_trace] (the committed-prefix watermark
    sampled after every crash and at the end -- a regression means a
    quorum of durable votes was lost, i.e. a committed slot went back in
    time), and {!durably_linearizable} of the history against the log's
    sequential specification (APPEND to a free slot installs its
    proposal and returns it; APPEND to a decided slot returns the
    decided value). *)
