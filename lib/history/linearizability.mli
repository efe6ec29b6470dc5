(** Linearizability checking (Wing-Gong style search with memoization).

    A history is linearizable w.r.t. a sequential specification if some
    total order of its operations (i) respects real time, (ii) is legal
    for the specification, and (iii) matches every completed operation's
    response.  Pending operations -- no response, e.g. cut off by a final
    crash -- may either take effect or be dropped, matching the
    persistent/recoverable linearizability conditions discussed in
    Section 4: our histories close crash-interrupted operations at their
    recovery's response, so a response always certifies the operation
    took effect exactly once. *)

type ('s, 'o, 'r) spec = {
  init : 's;
  apply : 's -> 'o -> 's * 'r;
  equal_resp : 'r -> 'r -> bool;
}

val max_ops : int
(** The largest history {!check} accepts: 62 operations (one bit each
    in the search's linearized-set mask). *)

val check : ('s, 'o, 'r) spec -> ('o, 'r) History.operation list -> bool
(** @raise Invalid_argument on histories of more than {!max_ops}
    operations. *)

val check_history : ('s, 'o, 'r) spec -> ('o, 'r) History.t -> bool
