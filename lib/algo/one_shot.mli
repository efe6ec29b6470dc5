(** One-shot recoverable consensus from a single atomic consensus-style
    primitive (a sticky cell: the first proposal is recorded forever).
    The "hardware" RC instance used for the next-pointers of the
    universal construction (Section 4) and as the default C_r of
    Figure 4.  Recoverability is immediate: the winner persists in
    non-volatile memory and repeated proposals return it. *)

type 'v t

val create : unit -> 'v t

val decide : 'v t -> 'v -> 'v
(** Atomic propose (one step): returns the recorded winner, installing
    [v] if none yet. *)

val decide_durable : 'v t -> 'v -> 'v
(** Durable propose for the write-back cache model: propose, flush the
    sticky cell, then confirm ({!Rcons_runtime.Cell.confirm}) that the
    winner is still there {e and} the line is clean, retrying
    otherwise.  The returned winner is durable: a value read-back alone
    would accept a winner its proposer crashed and re-proposed between
    the flush and the read-back.  Exactly {!decide} in a
    system built with barriers off ({!Rcons_runtime.Persist.scoped}).
    Winners are compared structurally, so they must be plain data. *)

val poll : 'v t -> 'v option
(** Read the decision without proposing (one step). *)

val peek : 'v t -> 'v option
(** Out-of-simulation inspection. *)
