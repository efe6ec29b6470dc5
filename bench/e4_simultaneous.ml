(* E4 -- Figure 4 / Theorem 1: recoverable consensus under simultaneous
   crashes, built from standard consensus instances.

   The series reports, per process count and number of simultaneous
   crash events, the rounds (consensus instances) consumed and the total
   steps, over many runs -- the shape claimed by the paper/appendix: one
   round without crashes, rounds growing (at most linearly) with the
   number of crash events, unbounded in the limit (Golab's lower bound
   says bounded space is impossible). *)

open Rcons.Runtime
open Rcons.Algo

let make_consensus () =
  let c = One_shot.create () in
  { Simultaneous_rc.propose = (fun _pid v -> One_shot.decide c v) }

let run_once ~n ~crash_events ~seed =
  let rc = Simultaneous_rc.create ~n ~make_consensus in
  let sim, outputs =
    Outputs.system ~inputs:(Array.init n (fun i -> (i + 1) * 10)) (fun () ->
        Simultaneous_rc.decide rc)
  in
  let rng = Random.State.make [| Util.seed seed |] in
  let crash_at =
    List.init crash_events (fun i -> 2 + (i * (4 + Random.State.int rng 5)))
  in
  ignore
    (Adversary.run ~record:false (Adversary.create (Adversary.Simultaneous { crash_at })) sim);
  let ok = Outputs.agreement_ok outputs && Outputs.validity_ok outputs in
  (ok, Simultaneous_rc.rounds_used rc, Sim.total_steps sim)

let run () =
  Util.section "E4 (Figure 4): RC under simultaneous crashes from consensus instances";
  Util.row "%-6s %-14s %-10s %-12s %-12s %s@." "n" "crash-events" "correct" "avg-rounds"
    "max-rounds" "avg-steps";
  List.iter
    (fun n ->
      List.iter
        (fun crash_events ->
          let iters = 200 in
          let ok = ref 0 and rounds = ref 0 and max_rounds = ref 0 and steps = ref 0 in
          for seed = 1 to iters do
            let o, r, s = run_once ~n ~crash_events ~seed in
            if o then incr ok;
            rounds := !rounds + r;
            max_rounds := max !max_rounds r;
            steps := !steps + s
          done;
          Util.row "%-6d %-14d %6d/%-4d %-12.2f %-12d %.1f@." n crash_events !ok iters
            (float_of_int !rounds /. float_of_int iters)
            !max_rounds
            (float_of_int !steps /. float_of_int iters))
        [ 0; 1; 2; 4; 8 ])
    [ 2; 4; 6 ]
