(** Replayable counterexample artifacts.

    A violation found by the model checker or an adversary sweep is only
    worth something if it survives the process that found it: this
    module packages a violating schedule together with a
    self-describing {e workload} (which system to rebuild) and the
    {!Rcons_runtime.Schedule.provenance} of the run that found it, as a
    small JSON file (conventionally under [_counterexamples/]).  Anyone
    -- CI, a colleague, a future session -- can then {!replay} the file
    against a freshly built system and watch the violation fire again,
    or be told that it no longer does (a fixed bug, or a stale witness).

    The workload is either the Figure 2 team-consensus harness -- an
    object type (by catalogue name), the recording level whose
    certificate instantiates the algorithm, the faithful/broken variant
    switch, and the two team inputs -- or, with [log_slots] set, the
    replicated-log harness ({!Rcons_log.Rlog}) built over per-slot
    instances of the same certificate.  Certificates are re-derived at
    replay time by the same deterministic witness search that produced
    them, so the artifact stores {e names}, not marshalled closures, and
    stays readable and diffable.

    {!minimize} runs the delta-debugging shrinker
    ({!Rcons_runtime.Shrink}) over the artifact's schedule, recording
    the original length in [shrunk_from]: the committed witness is the
    1-minimal, human-readable schedule. *)

(** Which system to rebuild: the Figure 2 team-consensus harness. *)
type workload = {
  type_name : string;  (** resolved via {!Rcons_spec.Catalogue.of_name} *)
  level : int;  (** recording level; team sizes come from the certificate *)
  faithful : bool;  (** [false] = the broken variant (negative control) *)
  input_a : int;
  input_b : int;
  persist : Rcons_runtime.Persist.policy;
      (** persistency model the system is built under (default [Eager]) *)
  annotated : bool;  (** persist-annotated algorithm variant *)
  flush_cost : int;  (** steps per persist barrier *)
  log_slots : int option;
      (** [Some k]: the {!Rcons_log.Rlog} replicated-log harness with
          [k] slots instead of the single team-consensus instance (the
          team-input fields are then unused -- the log derives one
          proposal per (team, slot)) *)
}

val team2 :
  ?faithful:bool ->
  ?level:int ->
  ?inputs:int * int ->
  ?persist:Rcons_runtime.Persist.policy ->
  ?annotated:bool ->
  ?flush_cost:int ->
  string ->
  workload
(** [team2 name] (defaults: [faithful:true], [level:2],
    [inputs:(111, 222)], [persist:Eager], [annotated:false],
    [flush_cost:1]): the standard workload on type [name].  The
    persistency fields only alter the canonical string (and hence the
    fingerprint) when non-default, so pre-existing eager artifacts keep
    their stored fingerprints; absent JSON fields likewise default to
    the eager model. *)

val log :
  ?faithful:bool ->
  ?level:int ->
  ?persist:Rcons_runtime.Persist.policy ->
  ?annotated:bool ->
  ?flush_cost:int ->
  slots:int ->
  string ->
  workload
(** [log ~slots name]: the replicated-log workload on type [name] --
    JSON kind ["replicated-log"], canonical prefix ["replicated-log:"]
    -- with one {!Rcons_algo.Team_consensus} instance per slot and the
    quorum-counter committed prefix checked by
    {!Rcons_log.Rlog.check_exn}.  Same defaults as {!team2}.
    @raise Invalid_argument when [slots < 1]. *)

val fingerprint : workload -> string
(** Hex digest of the canonical workload description; stored in
    provenance records to tie a schedule to the system it was recorded
    against. *)

val symmetry_classes : workload -> (int list list, string) result
(** Interchangeable-process classes of the workload
    ({!Rcons_check.Certificate.symmetry_classes} of its certificate),
    for {!Rcons_runtime.Explore.explore}'s [?symmetry].  Sound for this
    workload because every member of a team shares one input value.
    [Ok []] when the certificate carries no symmetry. *)

val team_system :
  workload -> (unit -> Rcons_runtime.Sim.t * int Rcons_algo.Outputs.t, string) result
(** The Figure 2 team-consensus build behind {!mk}: resolve the
    certificate once, then each call builds a fresh system -- team A's
    processes first, each team member proposing its team's input --
    under the workload's persistency model
    ({!Rcons_runtime.Persist.scoped}), and returns it with its output
    log.  The system carries its cache ({!Rcons_runtime.Sim.cache}), so
    nothing about its run depends on what is ambient afterwards.
    [Error] as for {!mk}, and for a replicated-log workload. *)

val mk : workload -> (unit -> Rcons_runtime.Sim.t * (unit -> unit), string) result
(** Resolve the workload into a system builder suitable for
    {!Rcons_runtime.Explore.explore} / {!Rcons_runtime.Shrink}: the
    {!team_system} build with the agreement/validity checker, or the
    replicated log with {!Rcons_log.Rlog.check_exn}, built under the
    workload's persistency model like {!team_system}.  [Error] if the
    type name does not resolve or the type has no recording witness at
    the requested level. *)

(** A counterexample: workload + violating schedule + metadata. *)
type t = {
  workload : workload;
  msg : string;  (** the violation message the schedule reproduces *)
  schedule : Rcons_runtime.Schedule.choice list;
  shrunk_from : int option;  (** original length, when minimized *)
  provenance : Rcons_runtime.Schedule.provenance option;
}

val of_violation : workload -> Rcons_runtime.Explore.violation -> t

val minimize : ?max_checks:int -> t -> (t, string) result
(** Shrink the schedule to 1-minimality ({!Rcons_runtime.Shrink}),
    recording the original length in [shrunk_from].  [Error] if the
    workload fails to build or the schedule does not violate. *)

val replay : t -> [ `Violated of string | `Passed ]
(** Rebuild the workload and re-run the schedule.  [`Violated msg]: the
    invariant checker fired (msg may differ from [t.msg] if the checks
    are reordered); [`Passed]: the full schedule no longer violates --
    the witness is stale.
    @raise Invalid_argument if the workload does not build or the
    artifact's provenance fingerprint does not match the workload. *)

val to_json : t -> Rcons_runtime.Json.t
val of_json : Rcons_runtime.Json.t -> t

val save : file:string -> t -> unit
val load : file:string -> t
(** @raise Invalid_argument (or [Sys_error]) on unreadable input. *)
