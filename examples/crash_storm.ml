(* Crash storm: recoverable consensus vs its non-recoverable baseline
   under increasingly hostile crash schedules.

     dune exec examples/crash_storm.exe

   For each crash rate, many random executions are driven for both
   algorithms on the same kind of 2-process system:

   - the Figure 2 algorithm (from the swap-free sticky-bit certificate)
     must never fail, whatever the crash rate (Theorem 8);
   - Ruppert's standard team-consensus algorithm on the swap register
     (consensus number 2!) works perfectly at crash rate 0 and starts
     failing as soon as crashes are enabled -- a crashed process swaps a
     second time and destroys the evidence of who went first.

   This is the paper's title, observed: recoverable consensus is strictly
   harder than consensus for some types. *)

open Rcons.Runtime
module Outputs = Rcons.Algo.Outputs

let uniform rng crash_prob =
  Adversary.of_rng ~rng (Adversary.Uniform { crash_prob; max_crashes = 6 })

let run_figure2 rng crash_prob =
  let cert =
    match Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 2 with
    | Some c -> c
    | None -> assert false
  in
  let sim, outputs =
    Outputs.system ~inputs:[| 1; 2 |] (fun () ->
        Rcons.Algo.Tournament.recoverable_consensus cert ~n:2)
  in
  ignore (Adversary.run ~record:false (uniform rng crash_prob) sim);
  Outputs.agreement_ok outputs && Outputs.validity_ok outputs

let run_baseline rng crash_prob =
  let cert =
    match Rcons.Check.Discerning.witness Rcons.Spec.Swap.default 2 with
    | Some c -> c
    | None -> assert false
  in
  let sim, outputs =
    Outputs.system ~inputs:[| 1; 2 |] (fun () ->
        Rcons.Algo.Tournament.standard_consensus cert ~n:2)
  in
  match Adversary.run ~record:false (uniform rng crash_prob) sim with
  | _ -> Outputs.agreement_ok outputs && Outputs.validity_ok outputs
  | exception Adversary.Body_failure _ ->
      (* the baseline's internal invariant broke: also a failure *)
      false

let () =
  let iters = 2000 in
  Format.printf "%-12s %-22s %s@." "crash rate" "Figure 2 (recoverable)" "Ruppert baseline";
  Format.printf "%s@." (String.make 58 '-');
  List.iter
    (fun crash_prob ->
      let rng = Random.State.make [| 42 |] in
      let ok_fig2 = ref 0 and ok_base = ref 0 in
      for _ = 1 to iters do
        if run_figure2 rng crash_prob then incr ok_fig2;
        if run_baseline rng crash_prob then incr ok_base
      done;
      Format.printf "%-12.2f %6d/%d ok %18d/%d ok@." crash_prob !ok_fig2 iters !ok_base iters)
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ];
  Format.printf
    "@.The recoverable algorithm never fails; the baseline degrades with the crash rate.@.";
  (* The other adversary policies, on the recoverable algorithm: a storm
     (bursts of simultaneous victims) and a quiescent-window adversary
     (crashes only in the first half of each 8-step window).  Recording
     is on, so each run yields a replayable schedule. *)
  Format.printf "@.Hostile policies against the Figure 2 algorithm (seed 7):@.";
  let cert = Option.get (Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 2) in
  List.iter
    (fun pol ->
      let sim, outputs =
        Outputs.system ~inputs:[| 1; 2 |] (fun () ->
            Rcons.Algo.Tournament.recoverable_consensus cert ~n:2)
      in
      let o = Adversary.run (Adversary.create ~seed:7 pol) sim in
      let ok = Outputs.agreement_ok outputs && Outputs.validity_ok outputs in
      Format.printf "  %-40s %s, %d crashes, %d steps@."
        (Format.asprintf "%a" Adversary.pp_policy pol)
        (if ok then "ok" else "VIOLATION")
        o.Adversary.crashes o.Adversary.steps)
    [
      Adversary.Storm { crash_prob = 0.3; burst = 2; max_crashes = 6 };
      Adversary.Quiescent { period = 8; active = 4; crash_prob = 0.3; max_crashes = 6 };
      Adversary.Targeted { victims = [ 0 ]; crash_prob = 0.3; max_crashes = 6 };
    ]
