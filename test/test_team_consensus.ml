(* Tests of the Figure 2 recoverable team-consensus algorithm, driven by
   machine-derived recording certificates (experiment E2).

   Coverage:
   - crash-free correctness on every certificate the checker produces;
   - randomized crash-injecting adversaries (thousands of schedules);
   - bounded exhaustive model checking for two participants with crashes
     (the 17-second two-crash configuration is marked `Slow);
   - the tricky q0-in-Q_A / |B| = 1 path (S_n certificates exercise it
     after the internal team swap);
   - the negative control: removing the |B| = 1 guard of line 19
     reproduces the agreement violation described after Lemma 7, and the
     model checker finds it. *)

open Rcons_runtime

let certs () =
  [
    ("S_2", Helpers.cert_of (Rcons_spec.Sn.make 2) 2);
    ("S_3", Helpers.cert_of (Rcons_spec.Sn.make 3) 3);
    ("S_4", Helpers.cert_of (Rcons_spec.Sn.make 4) 4);
    ("sticky", Helpers.cert_of Rcons_spec.Sticky_bit.t 3);
    ("cas", Helpers.cert_of Rcons_spec.Cas.default 3);
    ("consensus-object", Helpers.cert_of Rcons_spec.Consensus_obj.default 4);
    ("readable-stack", Helpers.cert_of Rcons_spec.Stack.readable_variant 3);
    ("readable-queue", Helpers.cert_of Rcons_spec.Queue.readable_variant 3);
  ]

let test_crash_free_all_certs () =
  List.iter
    (fun (name, cert) ->
      let sys = Helpers.team_system cert () in
      Adversary.round_robin sys.Helpers.sim;
      (try sys.Helpers.check () with Explore.Violation_found m -> Alcotest.fail (name ^ ": " ^ m));
      Alcotest.(check bool) (name ^ ": everyone decided") true
        (Array.for_all (fun l -> l <> []) sys.Helpers.outputs.Rcons_algo.Outputs.outputs))
    (certs ())

let test_random_crashes_all_certs () =
  List.iteri
    (fun i (name, cert) ->
      try
        Helpers.random_sweep
          ~mk:(fun () -> Helpers.team_system cert ())
          ~iters:400 ~crash_prob:0.2 ~max_crashes:8 ~seed:(1000 + i)
      with Explore.Violation_found m -> Alcotest.fail (name ^ ": " ^ m))
    (certs ())

let test_subset_participation () =
  (* Proposition 30 relies on team consensus still working when only a
     subset of each team participates. *)
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 5) 5 in
  List.iter
    (fun (use_a, use_b) ->
      Helpers.random_sweep
        ~mk:(fun () -> Helpers.team_system cert ~use_a ~use_b ())
        ~iters:200 ~crash_prob:0.2 ~max_crashes:6 ~seed:77)
    [ (1, 1); (1, 2); (1, 3) ]

let test_exhaustive_one_crash () =
  List.iter
    (fun (name, cert) ->
      let stats =
        Helpers.exhaustive ~mk:(fun () -> Helpers.team_system cert ~use_a:1 ~use_b:1 ()) ~max_crashes:1
      in
      Alcotest.(check bool) (name ^ ": explored schedules") true (stats.Explore.schedules > 100))
    [ ("S_3", Helpers.cert_of (Rcons_spec.Sn.make 3) 3); ("sticky", Helpers.cert_of Rcons_spec.Sticky_bit.t 2) ]

let test_exhaustive_two_crashes_s3 () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 3) 3 in
  let stats =
    Helpers.exhaustive ~mk:(fun () -> Helpers.team_system cert ~use_a:1 ~use_b:1 ()) ~max_crashes:2
  in
  Alcotest.(check bool) "survived full two-crash exploration" true (stats.Explore.schedules > 10_000)

(* S_n's canonical certificate has q0 = (B,0) in Q_B with |A| = 1, so the
   algorithm internally swaps the teams and must exercise the
   lone-process-yields path (line 20 of Figure 2): the cert's team A
   (swapped to code team B) has exactly one process.  Verify the
   certificate has the tricky shape, then hammer it. *)
let test_tricky_q0_in_q_shape () =
  match Helpers.cert_of (Rcons_spec.Sn.make 3) 3 with
  | Rcons_check.Certificate.Recording (_, d) as cert ->
      Alcotest.(check bool) "q0 is in one of the Q sets" true
        (d.Rcons_check.Certificate.q0_in_q_a || d.Rcons_check.Certificate.q0_in_q_b);
      let lone_team_size =
        if d.Rcons_check.Certificate.q0_in_q_a then List.length d.Rcons_check.Certificate.ops_b
        else List.length d.Rcons_check.Certificate.ops_a
      in
      Alcotest.(check int) "the opposite team is a singleton" 1 lone_team_size;
      Helpers.random_sweep
        ~mk:(fun () -> Helpers.team_system cert ())
        ~iters:500 ~crash_prob:0.25 ~max_crashes:10 ~seed:31

(* Negative control: drop the |B| = 1 guard (Figure 2, line 19).  The
   paper's scenario needs two processes on team B: one starts, sees
   R_A = bot and is poised to update; a team-A process writes R_A; the
   other team-B process yields to A; the first team-B process then updates
   O first, so later readers see Q_B and output B's value -- agreement is
   violated.  The model checker must find it without any crashes.

   The certificate must have two processes on the team subject to the
   yield rule *after* the internal orientation swap; the sticky bit's
   3-recording witness (A = {stick 0}, B = {stick 1, stick 1}, q0 in
   neither Q set) has that shape, whereas S_n's does not (its cert team B
   becomes the singleton code team after the swap). *)
let test_broken_variant_caught () =
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t 3 in
  match
    Helpers.exhaustive
      ~mk:(fun () -> Helpers.team_system ~faithful:false cert ())
      ~max_crashes:0
  with
  | _ -> Alcotest.fail "expected an agreement violation in the broken variant"
  | exception Explore.Violation { v_msg = msg; _ } ->
      Alcotest.(check string) "agreement violated" "agreement violated" msg

(* The faithful algorithm passes the exact same exploration. *)
let test_faithful_variant_passes () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 3) 3 in
  let stats = Helpers.exhaustive ~mk:(fun () -> Helpers.team_system cert ()) ~max_crashes:0 in
  Alcotest.(check bool) "explored" true (stats.Explore.schedules > 100)

let test_outputs_are_team_inputs () =
  let cert = Helpers.cert_of Rcons_spec.Cas.default 4 in
  let sys = Helpers.team_system cert () in
  Adversary.round_robin sys.Helpers.sim;
  List.iter
    (fun v -> Alcotest.(check bool) "output is 111 or 222" true (v = 111 || v = 222))
    (Rcons_algo.Outputs.all sys.Helpers.outputs)

let test_decide_requires_written_register () =
  (* Returning a team's register before anyone wrote it is a bug; the
     implementation guards it with an exception.  A single process on team
     A deciding alone must return its own input, never hit the guard. *)
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t 2 in
  let tc : int Rcons_algo.Team_consensus.t = Rcons_algo.Team_consensus.create cert in
  let out = ref None in
  let body _pid () = out := Some (tc.Rcons_algo.Team_consensus.decide Rcons_spec.Team.A 0 5) in
  let t = Sim.create ~n:1 body in
  Adversary.round_robin t;
  Alcotest.(check (option int)) "solo decider returns own input" (Some 5) !out

let suite =
  [
    Alcotest.test_case "crash-free on all certificates" `Quick test_crash_free_all_certs;
    Alcotest.test_case "random crash sweeps on all certificates" `Quick test_random_crashes_all_certs;
    Alcotest.test_case "subset participation (Prop 30)" `Quick test_subset_participation;
    Alcotest.test_case "exhaustive, <=1 crash" `Quick test_exhaustive_one_crash;
    Alcotest.test_case "exhaustive, <=2 crashes (S_3)" `Slow test_exhaustive_two_crashes_s3;
    Alcotest.test_case "tricky q0-in-Q path (S_3)" `Quick test_tricky_q0_in_q_shape;
    Alcotest.test_case "negative control: missing |B|=1 guard caught" `Quick
      test_broken_variant_caught;
    Alcotest.test_case "faithful variant passes the same exploration" `Quick
      test_faithful_variant_passes;
    Alcotest.test_case "outputs are team inputs" `Quick test_outputs_are_team_inputs;
    Alcotest.test_case "solo decider" `Quick test_decide_requires_written_register;
  ]
