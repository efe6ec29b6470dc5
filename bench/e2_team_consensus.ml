(* E2 -- Figure 2 / Theorem 8: the recoverable team-consensus algorithm,
   driven by machine-derived certificates.

   Rows report, per certificate and crash rate, the number of random
   crash-injected executions driven and the number that satisfied
   agreement + validity (the paper's claim: all of them), plus average
   steps and crashes.  A final row gives the exhaustive model-checking
   count for one representative certificate. *)

open Rcons.Runtime
module Cex = Rcons.Counterexample

(* Figure 2 at [level] on type [name], teams proposing 111 and 222. *)
let system name level = Util.ok_or_fail (Cex.team_system (Cex.team2 ~level name))

let sweep name system ~iters ~crash_prob ~seed =
  (* One adversary per sweep: its private RNG threads through all
     [iters] runs, reproducible from the seed. *)
  let adv =
    Adversary.create ~seed:(Util.seed seed)
      (Adversary.Uniform { crash_prob; max_crashes = 10 })
  in
  let ok = ref 0 and steps = ref 0 and crashes = ref 0 in
  for _ = 1 to iters do
    let sim, outputs = system () in
    crashes := !crashes + (Adversary.run ~record:false adv sim).Adversary.crashes;
    steps := !steps + Sim.total_steps sim;
    if Rcons.Algo.Outputs.agreement_ok outputs && Rcons.Algo.Outputs.validity_ok outputs then
      incr ok
  done;
  Util.row "%-18s crash-rate=%-5.2f %6d/%d correct   avg-steps=%5.1f avg-crashes=%4.2f@." name
    crash_prob !ok iters
    (float_of_int !steps /. float_of_int iters)
    (float_of_int !crashes /. float_of_int iters)

let run () =
  Util.section "E2 (Figure 2): recoverable team consensus under crash adversaries";
  let systems =
    [
      ("S_3", system "S3" 3);
      ("S_5", system "S5" 5);
      ("T_4 (at n=2)", system "T4" 2);
      ("sticky-bit", system "sticky" 4);
      ("compare&swap", system "cas" 3);
      ("readable-stack", system "readable-stack" 3);
    ]
  in
  List.iteri
    (fun i (name, system) ->
      List.iter
        (fun crash_prob -> sweep name system ~iters:1000 ~crash_prob ~seed:(100 + i))
        [ 0.0; 0.2; 0.4 ])
    systems;
  (* exhaustive model checking, one representative (two participants;
     deeper configurations live in the test suite) *)
  let mk = Util.ok_or_fail (Cex.mk (Cex.team2 "S2")) in
  let stats, dt = Util.time_it (fun () -> Explore.explore ~max_crashes:1 ~mk ()) in
  Util.row
    "@.exhaustive (S_2 cert, 2 procs, <=1 crash): %d schedules, %d nodes, depth %d -- no violation (%.1fs)@."
    stats.Explore.schedules stats.Explore.nodes stats.Explore.max_depth dt
