(* E3 -- Theorem 14 and the paper's title, dynamically: algorithms that
   are only as strong as standard consensus BREAK under crash-recovery.

   Series 1: Ruppert's (crash-free-correct) team consensus on the swap
   register vs the Figure 2 algorithm, across crash rates -- the baseline
   degrades, the recoverable algorithm does not (cf. examples/crash_storm).

   Series 2: negative control -- the Figure 2 algorithm with the |B| = 1
   guard of line 19 removed is caught by the model checker, reproducing
   the bad scenario discussed after Lemma 7. *)

open Rcons.Runtime
module Outputs = Rcons.Algo.Outputs

let uniform rng crash_prob =
  Adversary.of_rng ~rng (Adversary.Uniform { crash_prob; max_crashes = 6 })

let run_recoverable rng crash_prob =
  let cert = Option.get (Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 2) in
  let sim, outputs =
    Outputs.system ~inputs:[| 1; 2 |] (fun () ->
        Rcons.Algo.Tournament.recoverable_consensus cert ~n:2)
  in
  ignore (Adversary.run ~record:false (uniform rng crash_prob) sim);
  Outputs.agreement_ok outputs && Outputs.validity_ok outputs

let run_baseline rng crash_prob =
  let cert = Option.get (Rcons.Check.Discerning.witness Rcons.Spec.Swap.default 2) in
  let sim, outputs =
    Outputs.system ~inputs:[| 1; 2 |] (fun () ->
        Rcons.Algo.Tournament.standard_consensus cert ~n:2)
  in
  match Adversary.run ~record:false (uniform rng crash_prob) sim with
  | _ -> Outputs.agreement_ok outputs && Outputs.validity_ok outputs
  | exception Adversary.Body_failure _ -> false

let run () =
  Util.section "E3 (Theorem 14): consensus algorithms break under crashes; RC algorithms don't";
  let iters = 2000 in
  Util.row "%-12s %-24s %s@." "crash-rate" "Figure 2 (sticky bit)" "Ruppert baseline (swap)";
  List.iter
    (fun crash_prob ->
      let rng = Random.State.make [| Util.seed 42 |] in
      let ok_rc = ref 0 and ok_base = ref 0 in
      for _ = 1 to iters do
        if run_recoverable rng crash_prob then incr ok_rc;
        if run_baseline rng crash_prob then incr ok_base
      done;
      Util.row "%-12.2f %6d/%-17d %6d/%d@." crash_prob !ok_rc iters !ok_base iters)
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ];
  (* negative control: the broken Figure 2 variant is caught, the raw
     violating schedule is shrunk to a 1-minimal witness, and the result
     is saved as a replayable artifact under _counterexamples/. *)
  let module Cex = Rcons.Counterexample in
  let w = Cex.team2 ~faithful:false ~level:3 "sticky" in
  let mk = match Cex.mk w with Ok mk -> mk | Error e -> failwith e in
  (match Explore.explore ~max_crashes:0 ~mk ~fingerprint:(Cex.fingerprint w) () with
  | _ -> Util.row "@.negative control FAILED: broken variant not caught@."
  | exception Explore.Violation v ->
      Util.row "@.negative control: Figure 2 without the |B|=1 guard -> %s@." v.Explore.v_msg;
      Util.row "  raw counterexample: %d choices@." (List.length v.Explore.v_schedule);
      let cex = Cex.of_violation w v in
      (match Cex.minimize cex with
      | Error e -> Util.row "  shrink FAILED: %s@." e
      | Ok min ->
          Util.row "  shrunk to %d: %a@."
            (List.length min.Cex.schedule)
            Explore.pp_schedule min.Cex.schedule;
          (try Unix.mkdir "_counterexamples" 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let file = Filename.concat "_counterexamples" "e3_negative.json" in
          Cex.save ~file min;
          Util.row "  artifact: %s (rcons_cli explore --replay %s)@." file file))
