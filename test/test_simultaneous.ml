(* Tests of the Figure 4 algorithm: recoverable consensus under
   simultaneous crashes built from standard consensus instances
   (Theorem 1, experiment E4). *)

open Rcons_runtime
open Rcons_algo

let system ~n =
  let rc = Simultaneous_rc.create ~n ~make_consensus:Helpers.one_shot_consensus in
  let sim, outputs =
    Outputs.system ~inputs:(Array.init n (fun i -> (i + 1) * 10)) (fun () ->
        Simultaneous_rc.decide rc)
  in
  (sim, outputs, rc)

let check outputs =
  Alcotest.(check bool) "agreement" true (Outputs.agreement_ok outputs);
  Alcotest.(check bool) "validity" true (Outputs.validity_ok outputs);
  Alcotest.(check bool) "all decided" true
    (Array.for_all (fun l -> l <> []) outputs.Outputs.outputs)

let test_no_crashes () =
  List.iter
    (fun n ->
      let sim, outputs, rc = system ~n in
      Adversary.round_robin sim;
      check outputs;
      Alcotest.(check int) (Printf.sprintf "n=%d one round suffices" n) 1
        (Simultaneous_rc.rounds_used rc))
    [ 1; 2; 3; 5 ]

let test_single_simultaneous_crash () =
  List.iter
    (fun crash_at ->
      let sim, outputs, _ = system ~n:3 in
      Adversary.(
        ignore (run ~record:false (create (Simultaneous { crash_at = [ crash_at ] })) sim));
      check outputs)
    [ 1; 2; 3; 5; 8; 13 ]

let test_repeated_simultaneous_crashes () =
  let sim, outputs, rc = system ~n:4 in
  Adversary.(
    ignore (run ~record:false (create (Simultaneous { crash_at = [ 3; 9; 17; 26; 40 ] })) sim));
  check outputs;
  Alcotest.(check bool) "multiple rounds consumed" true (Simultaneous_rc.rounds_used rc >= 2)

let test_rounds_grow_with_crashes () =
  (* the round count is the algorithm's space/time cost; it must grow at
     most linearly in the crash count and be >= 1 *)
  let rounds_for crashes =
    let sim, outputs, rc = system ~n:3 in
    let crash_at = List.init crashes (fun i -> 4 + (7 * i)) in
    Adversary.(ignore (run ~record:false (create (Simultaneous { crash_at })) sim));
    check outputs;
    Simultaneous_rc.rounds_used rc
  in
  let r0 = rounds_for 0 and r4 = rounds_for 4 in
  Alcotest.(check int) "no crashes, one round" 1 r0;
  Alcotest.(check bool) "crashes consume rounds" true (r4 >= r0);
  Alcotest.(check bool) "boundedly many rounds" true (r4 <= 6)

let test_every_process_may_crash_midway () =
  (* crash exactly when some processes are inside C_r.decide *)
  List.iter
    (fun seed ->
      let sim, outputs, _ = system ~n:4 in
      let crash_at = [ (seed mod 7) + 1; (seed mod 7) + 9 ] in
      Adversary.(ignore (run ~record:false (create (Simultaneous { crash_at })) sim));
      check outputs)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_pluggable_consensus_ruppert () =
  (* plug the Ruppert sticky-bit tournament in as C_r: the full paper
     stack (characterization -> certificate -> algorithm) as the
     consensus building block of Figure 4 *)
  let n = 3 in
  let cert = Helpers.disc_cert_of Rcons_spec.Sticky_bit.t n in
  let make_consensus () =
    let decide = Tournament.standard_consensus cert ~n in
    { Simultaneous_rc.propose = decide }
  in
  let sim, outputs =
    Outputs.system ~inputs:[| 5; 6; 7 |] (fun () ->
        Simultaneous_rc.(decide (create ~n ~make_consensus)))
  in
  Adversary.(ignore (run ~record:false (create (Simultaneous { crash_at = [ 5; 19 ] })) sim));
  check outputs

let test_agreement_across_restart_outputs () =
  (* a process that decides, is wiped by a later simultaneous crash and
     re-runs must output the same value again *)
  let sim, outputs, _ = system ~n:2 in
  Adversary.round_robin sim;
  Sim.crash_all sim;
  Adversary.round_robin sim;
  check outputs;
  Array.iter
    (fun outs -> Alcotest.(check bool) "decided at least twice" true (List.length outs >= 2))
    outputs.Outputs.outputs

let suite =
  [
    Alcotest.test_case "no crashes: one round" `Quick test_no_crashes;
    Alcotest.test_case "single simultaneous crash" `Quick test_single_simultaneous_crash;
    Alcotest.test_case "repeated simultaneous crashes" `Quick test_repeated_simultaneous_crashes;
    Alcotest.test_case "round count vs crash count" `Quick test_rounds_grow_with_crashes;
    Alcotest.test_case "crashes inside consensus calls" `Quick test_every_process_may_crash_midway;
    Alcotest.test_case "pluggable C_r: Ruppert tournament" `Quick test_pluggable_consensus_ruppert;
    Alcotest.test_case "agreement across restarts" `Quick test_agreement_across_restart_outputs;
  ]
