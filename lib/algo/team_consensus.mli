(** Recoverable team consensus from a readable n-recording type: the
    algorithm of Figure 2 of the paper, instantiated with a
    machine-derived recording certificate (Theorem 8).

    The paper's code assumes [q0] is not in Q_B; when the certificate has
    [q0] in Q_B (hence, by disjointness, not in Q_A) the team roles are
    swapped internally -- callers always address teams in the
    certificate's own labelling.  Processes update O when they find it in
    state [q0]; a {e lone} process on (code) team B instead yields to
    team A when some team-A process has already written its input
    (lines 19-20), which is what makes the algorithm safe when [q0] can
    recur inside Q_A (Lemma 7). *)

type 'v t = {
  decide : Rcons_spec.Team.t -> int -> 'v -> 'v;
      (** [decide team slot v]: run DECIDE(v) as the [slot]-th process of
          [team].  Must be called from inside a simulated process; when
          the process crashes, its whole run restarts and re-enters this
          code from the beginning, exactly as in the model. *)
  size_a : int;
  size_b : int;
}

val create : ?faithful:bool -> Rcons_check.Certificate.recording -> 'v t
(** [faithful] (default [true]) keeps the |B| = 1 guard of line 19.
    [~faithful:false] reproduces the broken variant discussed after
    Lemma 7 -- with two processes on the yielding team it violates
    agreement, and the model checker exhibits the paper's bad scenario
    (a negative control for the whole toolchain).

    Persist barriers come from the build ({!Rcons_runtime.Persist.scoped}
    [~barriers]): flushed writes, link-and-persist reads, and a retry of
    the update while O durably reads [q0].  Without them this is Figure
    2 step for step, which violates agreement under [Lossy] (see
    [_counterexamples/]).  With them it is {e not} correct on every
    type: the retry is keyed on the value [q0], which recurs in S_n and
    T_n, and [rcons explore --type S2 --annotated --max-crashes 0 --dedup
    --por] exits 1 with a 36-step schedule even under eager (the top
    ROADMAP item). *)

val system :
  ?faithful:bool ->
  inputs:'v * 'v ->
  Rcons_check.Certificate.recording ->
  Rcons_runtime.Sim.t * 'v Outputs.t
(** [system ~inputs:(a, b) cert]: the one Figure 2 system builder.  One
    process per certificate slot, team A's first: process [i < |A|] runs
    DECIDE([a]) as team A's slot [i], the others DECIDE([b]) as team B's
    slot [i - |A|].  Built through {!Outputs.system}, so under a heap
    arena the output log registers before the algorithm's objects.  The
    build reads the ambient cache model: wrap it in
    {!Rcons_runtime.Persist.scoped} for a weak-persistency or
    barrier-carrying system. *)
