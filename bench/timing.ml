(* Bechamel micro-benchmarks: one [Test.make] per paper table/figure,
   timing the computation that regenerates it (decision procedures,
   algorithm executions, sweeps).  Run with `main.exe --timing`. *)

open Bechamel
open Toolkit

let team_s3 =
  lazy (Util.ok_or_fail (Rcons.Counterexample.team_system (Rcons.Counterexample.team2 ~level:3 "S3")))
let cert_sticky = lazy (Option.get (Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 4))

let run_team_consensus () =
  let sim, _ = Lazy.force team_s3 () in
  Rcons.Runtime.Adversary.round_robin sim

let run_tournament_rc () =
  let cert = Lazy.force cert_sticky in
  let n = 4 in
  let inputs = Array.init n (fun i -> i) in
  let outputs = Rcons.Algo.Outputs.make ~inputs in
  let decide = Rcons.Algo.Tournament.recoverable_consensus cert ~n in
  let body pid () = Rcons.Algo.Outputs.record outputs pid (decide pid inputs.(pid)) in
  let sim = Rcons.Runtime.Sim.create ~n body in
  Rcons.Runtime.Adversary.round_robin sim

let run_simultaneous () =
  let n = 4 in
  let make_consensus () =
    let c = Rcons.Algo.One_shot.create () in
    { Rcons.Algo.Simultaneous_rc.propose = (fun _ v -> Rcons.Algo.One_shot.decide c v) }
  in
  let inputs = Array.init n (fun i -> i) in
  let outputs = Rcons.Algo.Outputs.make ~inputs in
  let rc = Rcons.Algo.Simultaneous_rc.create ~n ~make_consensus in
  let body pid () =
    Rcons.Algo.Outputs.record outputs pid (Rcons.Algo.Simultaneous_rc.decide rc pid inputs.(pid))
  in
  let sim = Rcons.Runtime.Sim.create ~n body in
  Rcons.Runtime.Adversary.(
    ignore (run ~record:false (create (Simultaneous { crash_at = [ 5; 15 ] })) sim))

let run_universal () =
  let n = 4 in
  let u = Rcons.Universal.Runiversal.create ~n Rcons.Universal.Derived.counter in
  let runner = Rcons.Universal.Script.create u ~n ~max_ops:3 in
  let sim =
    Rcons.Runtime.Sim.create ~n (fun pid () ->
        Rcons.Universal.Script.run runner pid
          [| Rcons.Universal.Derived.Incr; Rcons.Universal.Derived.Get; Rcons.Universal.Derived.Incr |])
  in
  Rcons.Runtime.Adversary.round_robin sim

let tests () =
  [
    Test.make ~name:"E1/fig1: classify sticky bit (limit 4)"
      (Staged.stage (fun () -> ignore (Rcons.classify ~limit:4 Rcons.Spec.Sticky_bit.t)));
    Test.make ~name:"E2/fig2: team consensus run (S_3 cert)" (Staged.stage run_team_consensus);
    Test.make ~name:"E2/fig2: tournament RC run (n=4, sticky)" (Staged.stage run_tournament_rc);
    Test.make ~name:"E4/fig4: simultaneous-crash RC run (n=4)" (Staged.stage run_simultaneous);
    Test.make ~name:"E5/fig5: T_6 6-discerning decision"
      (Staged.stage (fun () ->
           ignore (Rcons.Check.Discerning.is_discerning (Rcons.Spec.Tn.make 6) 6)));
    Test.make ~name:"E6/fig6: S_5 5-recording witness"
      (Staged.stage (fun () ->
           ignore (Rcons.Check.Recording.witness (Rcons.Spec.Sn.make 5) 5)));
    Test.make ~name:"E7/fig7: universal counter workload (n=4)" (Staged.stage run_universal);
    Test.make ~name:"E8/fig8: stack impossibility sweep"
      (Staged.stage (fun () -> ignore (Rcons.Valency.Impossibility.analyse_stack ())));
    Test.make ~name:"S5/rcas: one recoverable CAS (solo)"
      (Staged.stage (fun () ->
           let t = Rcons.Algo.Recoverable_cas.create ~n:1 0 in
           let sim =
             Rcons.Runtime.Sim.create ~n:1 (fun pid () ->
                 ignore (Rcons.Algo.Recoverable_cas.cas t pid ~attempt:1 ~expected:0 ~desired:1))
           in
           Rcons.Runtime.Adversary.round_robin sim));
    Test.make ~name:"E9/thm22: recording level of a 3-type set"
      (Staged.stage (fun () ->
           List.iter
             (fun ot -> ignore (Rcons.Check.Classify.max_recording ~limit:4 ot))
             [ Rcons.Spec.Register.default; Rcons.Spec.Swap.default; Rcons.Spec.Sn.make 3 ]));
  ]

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let grouped = Test.make_grouped ~name:"rcons" ~fmt:"%s %s" (tests ()) in
  let raw_results = Benchmark.all cfg instances grouped in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  Analyze.merge ols instances results

let () =
  Bechamel_notty.Unit.add Instance.monotonic_clock
    (Measure.unit Instance.monotonic_clock)

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results

let run () =
  Util.section "Timing (Bechamel): cost of regenerating each table/figure";
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let results = benchmark () in
  img (window, results) |> Notty_unix.eol |> Notty_unix.output_image
