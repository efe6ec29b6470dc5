(** RUniversal: the recoverable universal construction of Section 4 /
    Figure 7 -- Herlihy's universal construction carried to the
    independent-crash model, with all shared variables in non-volatile
    memory and recoverable consensus deciding each next pointer of the
    operation list.

    Every operation becomes a list node; the list order is the
    linearization order.  A process announces its node and repeatedly
    helps append announced nodes (round-robin priority gives
    wait-freedom) until its own node has a sequence number.  Recovery
    simply re-runs ApplyOperation for the last announced node: the RC
    instances, node fields and announce/head arrays all survive in
    non-volatile memory, so each operation takes effect exactly once. *)

(** Sequential specification of the implemented object. *)
type ('s, 'o, 'r) seq_spec = { init : 's; apply : 's -> 'o -> 's * 'r }

type ('s, 'o, 'r) node = {
  tag : int * int;  (** (pid, invocation index); (-1, -1) for the dummy *)
  hist_tag : int;
  node_op : 'o option;  (** [None] only for the dummy node *)
  seq : int Rcons_runtime.Cell.t;  (** 0 until appended *)
  new_state : 's option Rcons_runtime.Cell.t;
  response : 'r option Rcons_runtime.Cell.t;
  next : ('s, 'o, 'r) node rc;
}

(** A pluggable recoverable-consensus instance (the paper's RC); the
    default is an atomic one-shot object, and the Figure 2 + tournament
    algorithm can be plugged in to exercise the full paper pipeline. *)
and 'v rc = { propose : int -> 'v -> 'v }

type ('s, 'o, 'r) t

val create :
  ?history:('o, 'r) Rcons_history.History.t ->
  ?make_rc:(unit -> ('s, 'o, 'r) node rc) ->
  n:int ->
  ('s, 'o, 'r) seq_spec ->
  ('s, 'o, 'r) t
(** With [?history], invocations and responses are recorded for
    linearizability checking.

    Persist barriers come from the build
    ({!Rcons_runtime.Persist.scoped} [~barriers]).  With them on:
    flushed writes, link-and-persist reads, a flushed and re-read
    one-shot RC as the default [make_rc], and [History.Persist] markers
    certifying each completed operation's durability (consumed by
    [Conditions.durably_linearizable]); a semantic no-op (but extra
    steps) under the eager model.  With them off, Figure 7 step for
    step.  An explicit [make_rc] replaces the default; it is the
    caller's job to make it durable. *)

val invoke : ('s, 'o, 'r) t -> pid:int -> index:int -> 'o -> 'r
(** Figure 7's Universal(op), idempotent per (pid, index): re-invoking
    with the same tag -- what the recovery function does -- reuses the
    announced node and returns the recorded response instead of
    re-executing the operation. *)

val linearization : ('s, 'o, 'r) t -> ('s, 'o, 'r) node list
(** Appended nodes in list order (out-of-simulation inspection). *)

val applied_count : ('s, 'o, 'r) t -> int

val current_state : ('s, 'o, 'r) t -> 's
(** The abstract state after the last appended operation (the
    specification's [init] when nothing is appended yet) -- a volatile
    out-of-simulation peek.  The service layer's windowed online checker
    uses it as the initial state of the next history window. *)
