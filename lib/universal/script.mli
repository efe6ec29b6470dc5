(** Crash-restartable workloads over a RUniversal object.

    A process body performing several operations in sequence must not
    re-execute completed operations when restarted after a crash.  The
    runner keeps a per-process non-volatile progress counter: a
    restarted body skips to the first incomplete operation, whose
    idempotent {!Runiversal.invoke} is the recovery path of Figure 7. *)

type ('s, 'o, 'r) t
(** The runner: per-process progress counters and recorded responses. *)

val system :
  ?history:('o, 'r) Rcons_history.History.t ->
  ?make_rc:(unit -> Runiversal.tag Runiversal.rc) ->
  ('s, 'o, 'r) Runiversal.seq_spec ->
  'o array array ->
  ('s, 'o, 'r) Runiversal.t * ('s, 'o, 'r) t * Rcons_runtime.Sim.t
(** [system spec scripts]: the one Figure 7 system builder.  It makes
    the universal object ({!Runiversal.create}, with [?history] and
    [?make_rc] as there) for one process per script, then the runner,
    then the system, in which process [pid] performs [scripts.(pid)] in
    order and, after a crash, resumes at its first incomplete
    operation.  The process count and every per-process array come from
    [scripts], so a process body never indexes past them.  Under a heap
    arena the object's cells register before the runner's progress
    counters; the build reads the ambient cache model
    ({!Rcons_runtime.Persist.scoped}). *)

val response : ('s, 'o, 'r) t -> int -> int -> 'r option
(** [response t pid k]: the recorded response of [pid]'s [k]-th
    operation, if completed (meta-observation). *)
