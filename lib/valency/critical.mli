(** The valency argument of Theorem 14 (Figure 3), exhibited on real
    algorithms: explore a bounded E_A-style schedule space (steps of all
    processes, budgeted crashes of p0 only), compute decision sets of
    prefixes, walk to a *critical execution* -- a bivalent prefix all of
    whose one-step extensions are univalent -- and report what every
    process is poised on.

    On correct consensus/RC systems the walk terminates and, matching
    the proof's "standard argument", the report shows every process
    poised on the same consensus object (labelled steps; registers and
    reads cannot separate valencies).  Keep the systems tiny: the
    decision-set computation replays the whole subtree. *)

module Int_set : Set.S with type elt = int

type report = {
  prefix : Rcons_runtime.Schedule.choice list;
      (** the critical execution, oldest choice first: steps of any
          process, [Crash_choice 0] for a crash of p0 *)
  decision_sets : Int_set.t list;
      (** valency of each process's next step (singleton = univalent) *)
  poised_on : string option list;
      (** label of the shared access each process is suspended on *)
}

exception Search_space_exhausted of string

val decisions :
  ?max_crashes:int ->
  ?max_depth:int ->
  mk:(unit -> Rcons_runtime.Sim.t * int Rcons_algo.Outputs.t) ->
  Rcons_runtime.Schedule.choice list ->
  Int_set.t
(** Decision set of a prefix: every value recorded in the output log of
    some maximal extension.  The prefix is most recent choice first, as
    built internally; pass [] for the initial configuration.  [mk]
    builds a fresh system with its log, e.g. {!Rcons_algo.Outputs.system}
    or the Figure 2 build of [Rcons.Counterexample.team_system]. *)

val find_critical :
  ?max_crashes:int ->
  ?max_depth:int ->
  mk:(unit -> Rcons_runtime.Sim.t * int Rcons_algo.Outputs.t) ->
  unit ->
  report
(** @raise Search_space_exhausted when the initial configuration is
    univalent or the bounds are hit. *)

val pp_report : Format.formatter -> report -> unit
(** The prefix prints as {!Rcons_runtime.Schedule.pp} does:
    [step(p0); crash(p0); ...]. *)
