(* E12 -- weak persistency: algorithm x persistency policy x crash
   pattern.

   The seed model (Eager) persists every shared write at its step; the
   Lossy/Torn policies interpose a volatile write-back cache, so a crash
   loses (all / a deterministic half of) the victim's un-flushed lines.

   Series 1: Figure 2 team consensus, un-annotated vs persist-annotated,
   under seeded random crash adversaries.  Violations of the un-annotated
   algorithm under Lossy/Torn surface two ways: as disagreement between
   survivors, or as an uncaught invariant exception in a process body
   ("R_A empty") when a crash reverts state the algorithm assumed durable
   -- which [Adversary.run] reports as [Body_failure]; both are counted.

   Series 2: the RUniversal counter (Figure 7), plain vs durable
   linearizability of the recorded history.  Annotated responses flush
   before returning, so the annotated rows stay durably linearizable at
   every crash rate; plain linearizability is allowed to fail there
   (an un-flushed completed operation may legitimately vanish).

   Series 3: exhaustive model checking (<= 1 crash, with state-space
   dedup -- sound because cache state enters [Sim.fingerprint_digest]): the
   un-annotated algorithm has a genuine violating schedule under Lossy
   (the shrunk witness is committed as
   _counterexamples/e12_fig2_lossy.json and replayed in CI); the
   annotated variant passes the same sweep, at the extra cost of its
   barrier steps (visible in the node counts, scaled by --flush-cost). *)

open Rcons.Runtime

module Cex = Rcons.Counterexample

let policy_str = Persist.policy_to_string
let policies = [ Persist.Eager; Persist.Lossy; Persist.Torn ]

(* --- Series 1: Figure 2 under random crash adversaries --- *)

(* [w] carries the policy: every build runs under its own cache. *)
let sweep_fig2 name w ~crash_prob ~iters ~seed =
  let system = Util.ok_or_fail (Cex.team_system w) in
  let ok = ref 0 and disagree = ref 0 and aborted = ref 0 and stuck = ref 0 in
  let crashes = ref 0 in
  for i = 1 to iters do
    let sim, outputs = system () in
    let rng = Random.State.make [| Util.seed seed; i |] in
    let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob; max_crashes = 6 }) in
    match (Adversary.run ~record:false adv sim).Adversary.crashes with
    | c ->
        crashes := !crashes + c;
        if Rcons.Algo.Outputs.agreement_ok outputs && Rcons.Algo.Outputs.validity_ok outputs
        then incr ok
        else incr disagree
    | exception Adversary.Body_failure _ -> incr aborted
    | exception Adversary.Stuck _ -> incr stuck
  done;
  Util.row
    "%-26s %-7s crash-rate=%-5.2f %5d/%d ok   disagree=%-4d abort=%-4d stuck=%-4d avg-crashes=%4.2f@."
    name (policy_str w.Cex.persist) crash_prob !ok iters !disagree !aborted !stuck
    (float_of_int !crashes /. float_of_int iters)

(* --- Series 2: RUniversal histories, plain vs durable linearizability --- *)

let sweep_universal ~annotated ~policy ~crash_prob ~iters ~seed =
  let open Rcons.Universal in
  let spec = Derived.lin_spec Derived.counter in
  let lin_ok = ref 0 and dlin_ok = ref 0 and aborted = ref 0 and stuck = ref 0 in
  let rng = Random.State.make [| Util.seed seed |] in
  for _ = 1 to iters do
    Persist.scoped ~barriers:annotated policy (fun () ->
        let history = Rcons.History.History.create () in
        let u = Runiversal.create ~history ~n:2 Derived.counter in
        let scripts = [| [| Derived.Incr; Derived.Get |]; [| Derived.Incr |] |] in
        let runner = Script.create u ~n:2 ~max_ops:2 in
        let sim = Sim.create ~n:2 (fun pid () -> Script.run runner pid scripts.(pid)) in
        (* crashes land in the history: durable linearizability needs
           them to decide which completed operations are optional *)
        let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob; max_crashes = 4 }) in
        match
          Adversary.run ~record:false
            ~on_crash:(fun pid -> Rcons.History.History.crash history ~pid)
            adv sim
        with
        | _ ->
            if Rcons.History.Linearizability.check_history spec history then incr lin_ok;
            if Rcons.History.Conditions.durably_linearizable spec history then incr dlin_ok
        | exception Adversary.Body_failure _ -> incr aborted
        (* a crash-revert loop that exhausts the step budget: a
           recoverable-wait-freedom failure of the un-annotated
           construction under weak persistency *)
        | exception Adversary.Stuck _ -> incr stuck)
  done;
  Util.row
    "%-26s %-7s crash-rate=%-5.2f lin=%4d/%-5d durable-lin=%4d/%-5d abort=%-3d stuck=%d@."
    (if annotated then "RUniversal +barriers" else "RUniversal")
    (policy_str policy) crash_prob !lin_ok iters !dlin_ok iters !aborted !stuck

(* --- Series 3: exhaustive <= 1 crash --- *)

let exhaustive name w =
  let mk = Util.ok_or_fail (Cex.mk w) in
  let run () = Explore.explore ~max_crashes:1 ~dedup:true ~mk () in
  let policy = w.Cex.persist and flush_cost = w.Cex.flush_cost in
  (match Util.time_it (fun () -> try Ok (run ()) with Explore.Violation v -> Error v) with
  | Ok stats, dt ->
      Util.row "%-26s %-7s flush-cost=%d  no violation   %6d schedules %8d nodes (%.1fs)@."
        name (policy_str policy) flush_cost stats.Explore.schedules stats.Explore.nodes dt
  | Error v, dt ->
      Util.row "%-26s %-7s flush-cost=%d  VIOLATION at depth %d: %s (%.1fs)@." name
        (policy_str policy) flush_cost
        (List.length v.Explore.v_schedule)
        v.Explore.v_msg dt)

let run () =
  Util.section "E12: weak persistency -- algorithm x policy x crash pattern";
  Util.row "[Figure 2 team consensus, random adversaries, 400 runs per row]@.";
  let types = [ ("sticky-bit (n=2)", "sticky", 2); ("S_3 (n=3)", "S3", 3) ] in
  List.iteri
    (fun i (name, typ, level) ->
      List.iter
        (fun annotated ->
          let name = if annotated then name ^ " +barriers" else name in
          List.iter
            (fun policy ->
              List.iter
                (fun crash_prob ->
                  sweep_fig2 name
                    (Cex.team2 ~level ~annotated ~persist:policy typ)
                    ~crash_prob ~iters:400 ~seed:(1200 + i))
                [ 0.15; 0.4 ])
            policies)
        [ false; true ])
    types;
  Util.row "@.[RUniversal counter, n = 2, 200 runs per row]@.";
  List.iter
    (fun annotated ->
      List.iter
        (fun policy ->
          List.iter
            (fun crash_prob ->
              sweep_universal ~annotated ~policy ~crash_prob ~iters:200 ~seed:1300)
            [ 0.1; 0.25 ])
        policies)
    [ false; true ];
  Util.row "@.[exhaustive model checking, <= 1 crash, dedup on]@.";
  List.iter
    (fun annotated ->
      let name = if annotated then "sticky-bit (n=2) +barriers" else "sticky-bit (n=2)" in
      List.iter
        (fun persist -> exhaustive name (Cex.team2 ~annotated ~persist "sticky"))
        policies)
    [ false; true ];
  (* barrier cost scales with --flush-cost; correctness does not *)
  exhaustive "sticky-bit (n=2) +barriers"
    (Cex.team2 ~annotated:true ~persist:Persist.Lossy ~flush_cost:3 "sticky");
  Util.row
    "@.The un-annotated algorithm's Lossy violation above is the committed witness@.";
  Util.row
    "(_counterexamples/e12_fig2_lossy.json, ddmin-shrunk, replayed in CI); the@.";
  Util.row "annotated variant passes the identical sweep at every policy.@."
