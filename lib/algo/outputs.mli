(** Output log for consensus executions.  Every value a process returns
    is appended -- a process may output several times across
    crash/recovery cycles, and agreement must hold over {e all} outputs.
    Recording is a meta-observation, not a shared-memory step.

    The verdict is kept as values are recorded, so {!agreement_ok},
    {!validity_ok} and {!check_exn} cost O(1): the first value recorded
    plus two flags, restored with the history by the same
    [Undo.aside] inverse when the explorer rolls a recording back. *)

type 'v t = {
  inputs : 'v array;
  outputs : 'v list array;
  mutable first : 'v option;  (** the first value recorded, if any *)
  mutable disagree : bool;  (** some recorded value differs from [first] *)
  mutable invalid : bool;  (** some recorded value is no process's input *)
  mutable slot : Rcons_runtime.Heap.slot option;
      (** fingerprint cache slot; [record] touches it *)
}

val make : inputs:'v array -> 'v t
val record : 'v t -> int -> 'v -> unit

val system : inputs:'v array -> (unit -> int -> 'v -> 'v) -> Rcons_runtime.Sim.t * 'v t
(** [system ~inputs make_decide]: the consensus system every harness
    runs -- one process per input, process [i] recording
    [decide i inputs.(i)] -- with its output log.  The log is made
    first, then [make_decide ()] builds the algorithm's objects, then
    the system: under an active [Heap] arena the log registers before
    those objects, and fingerprint bytes follow that order. *)

val all : 'v t -> 'v list
val decided : 'v t -> int -> bool

val agreement_ok : 'v t -> bool
(** No two output values produced (by any processes, in any runs) are
    different. *)

val validity_ok : 'v t -> bool
(** Every output value is the input value of some process. *)

val check_exn : fail:(string -> unit) -> 'v t -> unit
(** Call [fail] on the first violated property: agreement before
    validity. *)
