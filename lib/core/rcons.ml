(* Public facade of the reproduction of "When Is Recoverable Consensus
   Harder Than Consensus?" (Delporte-Gallet, Fatourou, Fauconnier,
   Ruppert; PODC 2022).

   The sub-libraries are re-exported under short names:

   - {!Spec}: deterministic sequential object types and the catalogue
     (registers, TAS, CAS, stack, queue, T_n, S_n, ...).
   - {!Check}: decision procedures for the n-discerning (Definition 2) and
     n-recording (Definition 4) properties; consensus / recoverable-
     consensus bounds (Theorems 3, 8, 14); certificates.
   - {!Runtime}: the simulated crash-recovery shared-memory system
     (non-volatile heap, schedulers, bounded model checker).
   - {!Algo}: the paper's algorithms -- Figure 2 team consensus, the
     Appendix B tournament, Figure 4 simultaneous-crash RC, baselines.
   - {!Universal}: RUniversal, the recoverable universal construction of
     Figure 7, with derived recoverable objects.
   - {!History}: operation histories and linearizability checking.
   - {!Valency}: the Appendix H impossibility analysis (rcons(stack) = 1).

   The toplevel functions below cover the common workflows. *)

module Spec = Rcons_spec
module Check = Rcons_check
module Runtime = Rcons_runtime
module Algo = Rcons_algo
module Universal = Rcons_universal
module History = Rcons_history
module Valency = Rcons_valency
module Par = Rcons_par

(* The recoverable replicated log built over per-slot RC instances, with
   its quorum-counter committed prefix (PR 8). *)
module Log = Rcons_log

(* The crash-churn soak service (PR 9): many hosted instances, client
   sessions as effect fibers, bounded admission, retry/backoff, online
   durability checking. *)
module Service = Rcons_service

(* Replayable counterexample artifacts (workload + violating schedule +
   provenance), shared by the CLI's replay command, the bench negative
   controls, and CI. *)
module Counterexample = Counterexample

(* Where does a type sit in the two hierarchies?  Decides the n-discerning
   and n-recording levels up to [limit] and derives interval bounds on
   cons(T) and rcons(T).  [domains] fans the underlying witness searches
   across OCaml 5 domains without changing the report. *)
let classify = Check.Classify.classify

(* The n-recording witness behind [solve_rc] and the randomized log:
   the seeded level scan of {!Check.Classify.scan} up to [n], so the
   certificate (and hence the algorithm) is the same with or without
   the cache (up to level [Cert_cache.key_depth]; above it a cached
   witness is re-proved, see {!Check.Classify.scan}).  Every entry is
   keyed at the one fingerprint depth [Cert_cache.key_depth], so this
   scan and a [classify] run share entries whatever their limits. *)
let recording_witness ?domains ?certs ot n =
  match Check.Classify.scan (module Check.Recording) ?domains ?certs ~limit:n ot with
  | Check.Classify.At_least _, w -> w
  | Check.Classify.Finite _, _ -> None

(* Build an n-process recoverable-consensus decision function from any
   readable type that is n-recording (Theorem 8 + the tournament of
   Appendix B).  Returns None when the checker finds no n-recording
   witness.  The resulting [decide pid v] must be run inside a simulated
   process (see {!Runtime.Sim}); it tolerates crashes and recoveries. *)
let solve_rc ?domains ?certs ot ~n =
  match recording_witness ?domains ?certs ot n with
  | None -> None
  | Some cert -> Some (Algo.Tournament.recoverable_consensus cert ~n)

(* A wait-free recoverable object from a sequential specification, by
   the universal construction of Figure 7, with the system running one
   crash-restartable script per process over it. *)
let make_recoverable = Universal.Script.system
