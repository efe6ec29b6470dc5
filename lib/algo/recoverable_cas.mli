(** A recoverable compare-and-swap object from an ordinary atomic CAS
    and registers, in the style of Attiya, Ben-Baruch and Hendler's
    construction (Section 5 of the paper: replacing CAS objects with
    recoverable CAS makes any read/CAS algorithm recoverable).

    Values in the underlying object are tagged with (owner, attempt);
    before overwriting a tagged value, a process records the observation
    in the owner's evidence row.  Together these give detectability: a
    process that crashed right after a successful CAS discovers the
    outcome on recovery even if its value has been overwritten since.

    Invocations are identified by strictly increasing per-process attempt
    numbers and are idempotent: re-entering {!cas} with the same attempt
    (what a restarted process does) returns the recorded outcome.  On
    tag-induced interference the operation retries while the current
    value still equals [expected] (lock-free, as in the original). *)

type 'v t

val create : n:int -> 'v -> 'v t
(** [create ~n initial]: a recoverable CAS over plain-data values of
    type ['v] (compared structurally) for processes [0 .. n-1]. *)

val read_value : 'v t -> 'v
(** Read the current value (one step). *)

val cas : 'v t -> int -> attempt:int -> expected:'v -> desired:'v -> bool
(** [cas t pid ~attempt ~expected ~desired]: recoverable CAS; [true] iff
    this attempt installed [desired].  Idempotent per (pid, attempt);
    attempts of one process must use increasing numbers. *)

(** Post-crash status of an attempt, per the detectability guarantee. *)
type status = Succeeded | Failed | Unresolved

val recover : 'v t -> int -> attempt:int -> status
(** Never re-executes anything; [Unresolved] means the attempt provably
    took no effect yet (it may be re-issued). *)
