(** Public facade of the reproduction of "When Is Recoverable Consensus
    Harder Than Consensus?" (Delporte-Gallet, Fatourou, Fauconnier,
    Ruppert; PODC 2022).

    {ul
    {- {!Spec}: deterministic sequential object types and the catalogue
       (registers, TAS, CAS, stack, queue, T_n, S_n, ...).}
    {- {!Check}: decision procedures for the n-discerning (Definition 2)
       and n-recording (Definition 4) properties; cons / rcons bounds
       (Theorems 3, 8, 14); certificates; a brute-force oracle.}
    {- {!Runtime}: the simulated crash-recovery shared-memory system
       (non-volatile heap, schedule drivers, bounded model checker).}
    {- {!Algo}: the paper's algorithms -- Figure 2 team consensus, the
       Appendix B tournament, Figure 4 simultaneous-crash RC, and the
       crash-free Ruppert baseline.}
    {- {!Universal}: RUniversal, the recoverable universal construction
       of Figure 7, with derived recoverable objects.}
    {- {!History}: operation histories and linearizability checking.}
    {- {!Valency}: the Appendix H impossibility analysis
       (rcons(stack) = 1).}
    {- {!Par}: the work-sharing domain pool behind every [?domains]
       knob, with its deterministic-merge contract.}} *)

module Spec = Rcons_spec
module Check = Rcons_check
module Runtime = Rcons_runtime
module Algo = Rcons_algo
module Universal = Rcons_universal
module History = Rcons_history
module Valency = Rcons_valency
module Par = Rcons_par

module Log = Rcons_log
(** The recoverable replicated log ({!Rcons_log.Rlog}): per-slot
    recoverable-consensus instances chained under a quorum-counter
    committed prefix, with crash-recovery replay. *)

module Service = Rcons_service
(** The crash-churn soak service ({!Rcons_service}): many hosted
    instances, client sessions as effect fibers, bounded admission with
    load shedding, retry/timeout/backoff, and online durability
    checking under injected crash churn. *)

module Counterexample = Counterexample
(** Replayable counterexample artifacts: a violating schedule packaged
    with a self-describing workload and provenance, as diffable JSON
    (conventionally under [_counterexamples/]). *)

val classify :
  ?domains:int -> ?limit:int -> ?certs:string -> Spec.Object_type.t -> Check.Classify.report
(** Where does a type sit in the two hierarchies?  Decides the
    n-discerning and n-recording levels up to [limit] (default 8) and
    derives interval bounds on cons(T) and rcons(T).  [domains]
    (default 1) fans each witness search across that many OCaml 5
    domains; [certs] names a {!Check.Cert_cache} directory that persists
    per-level results across runs (entries are revalidated before being
    trusted).  The report is independent of both. *)

val recording_witness :
  ?domains:int -> ?certs:string -> Spec.Object_type.t -> int -> Check.Certificate.recording option
(** The witness search behind {!solve_rc}: {!Check.Classify.scan} for
    the n-recording property over levels 2..n, each seeded by the level
    below, optionally through the persisted certificate cache.  The
    certificate does not depend on [certs] or [domains]; it can differ
    from the unseeded {!Check.Recording.witness}.
    @raise Invalid_argument if [n < 2]. *)

val solve_rc :
  ?domains:int -> ?certs:string -> Spec.Object_type.t -> n:int -> (int -> 'v -> 'v) option
(** Build an n-process recoverable-consensus decision function from any
    readable type that is n-recording (Theorem 8 + the tournament of
    Appendix B); [None] when the checker finds no n-recording witness.
    The resulting [decide pid v] must run inside a simulated process
    ({!Runtime.Sim}); it tolerates crashes and recoveries.  [domains]
    parallelizes the witness search; the certificate found -- and hence
    the derived algorithm -- does not depend on it. *)

val make_recoverable :
  ?history:('o, 'r) History.History.t ->
  ?make_rc:(unit -> Universal.Runiversal.tag Universal.Runiversal.rc) ->
  ('s, 'o, 'r) Universal.Runiversal.seq_spec ->
  'o array array ->
  ('s, 'o, 'r) Universal.Runiversal.t * ('s, 'o, 'r) Universal.Script.t * Runtime.Sim.t
(** [make_recoverable spec scripts]: a wait-free recoverable object from
    any sequential specification, via the universal construction of
    Figure 7, with the system in which process [pid] runs
    [scripts.(pid)] crash-restartably ({!Universal.Script.system}). *)

