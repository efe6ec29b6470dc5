(* Tests of the Appendix B tournament: full n-process recoverable
   consensus built from team-consensus instances, plus the stable-input
   transformation from the introduction. *)

open Rcons_runtime
open Rcons_algo

let test_rc_crash_free_various_n () =
  List.iter
    (fun n ->
      let cert = Helpers.cert_of Rcons_spec.Cas.default n in
      let sys = Helpers.rc_system cert ~n () in
      Adversary.round_robin sys.Helpers.sim;
      sys.Helpers.check ();
      Alcotest.(check bool)
        (Printf.sprintf "n=%d all decided" n)
        true
        (Array.for_all (fun l -> l <> []) sys.Helpers.outputs.Outputs.outputs))
    [ 2; 3; 4; 5 ]

let test_rc_random_crashes () =
  List.iter
    (fun (n, iters) ->
      let cert = Helpers.cert_of (Rcons_spec.Sn.make n) n in
      Helpers.random_sweep
        ~mk:(fun () -> Helpers.rc_system cert ~n ())
        ~iters ~crash_prob:0.15 ~max_crashes:(3 * n) ~seed:(13 * n))
    [ (2, 500); (3, 400); (4, 200); (6, 100) ]

let test_rc_exhaustive_n2 () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let stats = Helpers.exhaustive ~mk:(fun () -> Helpers.rc_system cert ~n:2 ()) ~max_crashes:1 in
  Alcotest.(check bool) "explored" true (stats.Explore.schedules > 1000)

let test_rc_validity_distinct_inputs () =
  let n = 4 in
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t n in
  let sys = Helpers.rc_system cert ~n () in
  let rng = Random.State.make [| 3 |] in
  let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob = 0.1; max_crashes = 6 }) in
  ignore (Adversary.run ~record:false adv sys.Helpers.sim);
  match Outputs.all sys.Helpers.outputs with
  | [] -> Alcotest.fail "no outputs"
  | v :: _ as outs ->
      Alcotest.(check bool) "output among inputs" true (List.mem v [ 10; 20; 30; 40 ]);
      List.iter (fun w -> Alcotest.(check int) "agreement" v w) outs

(* Stable inputs: even if a caller passes different values across runs
   (which the model forbids but callers might get wrong), the register
   transformation masks it. *)
let test_stable_inputs_mask_flapping () =
  let regs = Stable_input.make 1 in
  let observed = ref [] in
  let attempt = ref 0 in
  let body _pid () =
    incr attempt;
    (* a different "input" on every run: only the first may stick *)
    let v = Stable_input.fix regs 0 !attempt in
    observed := v :: !observed
  in
  let t = Sim.create ~n:1 body in
  ignore (Sim.step_proc t 0);
  (* p0 has read the register (None) and is poised to write its input 1 *)
  ignore (Sim.step_proc t 0);
  Sim.crash t 0;
  Adversary.round_robin t;
  Sim.crash t 0;
  Adversary.round_robin t;
  (match !observed with
  | [] -> Alcotest.fail "no observations"
  | v :: rest ->
      List.iter (fun w -> Alcotest.(check int) "all runs saw the same input" v w) rest);
  Alcotest.(check bool) "ran multiple times" true (!attempt >= 3)

let test_tournament_split_fits_capacities () =
  (* with a (1, n-1) certificate the split at every node must keep team A'
     of size 1; just verify end-to-end correctness for a skewed cert *)
  let n = 5 in
  let cert = Helpers.cert_of (Rcons_spec.Sn.make n) n in
  let a, b = Rcons_check.Certificate.recording_teams cert in
  Alcotest.(check (pair int int)) "S_n certificate is (1, n-1)" (1, n - 1) (a, b);
  Helpers.random_sweep
    ~mk:(fun () -> Helpers.rc_system cert ~n ())
    ~iters:150 ~crash_prob:0.2 ~max_crashes:8 ~seed:5

let test_tournament_rejects_oversubscription () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 3) 3 in
  Alcotest.check_raises "too many processes"
    (Invalid_argument "Tournament.build: too many processes") (fun () ->
      ignore (Tournament.recoverable_consensus cert ~n:4 : int Tournament.decide))

let test_standard_consensus_crash_free () =
  (* the Ruppert baseline must be correct without crashes *)
  List.iter
    (fun n ->
      let cert = Helpers.disc_cert_of Rcons_spec.Sticky_bit.t n in
      let inputs = Array.init n (fun i -> 100 + i) in
      let outputs = Outputs.make ~inputs in
      let decide = Tournament.standard_consensus cert ~n in
      let body pid () = Outputs.record outputs pid (decide pid inputs.(pid)) in
      let t = Sim.create ~n body in
      Adversary.round_robin t;
      Alcotest.(check bool) (Printf.sprintf "n=%d agreement" n) true (Outputs.agreement_ok outputs);
      Alcotest.(check bool) (Printf.sprintf "n=%d validity" n) true (Outputs.validity_ok outputs))
    [ 2; 3; 4 ]

let test_standard_consensus_on_swap () =
  (* swap has consensus number 2: the baseline works for n = 2 *)
  let cert = Helpers.disc_cert_of Rcons_spec.Swap.default 2 in
  let inputs = [| 7; 9 |] in
  let outputs = Outputs.make ~inputs in
  let decide = Tournament.standard_consensus cert ~n:2 in
  let body pid () = Outputs.record outputs pid (decide pid inputs.(pid)) in
  let t = Sim.create ~n:2 body in
  Adversary.round_robin t;
  Alcotest.(check bool) "agreement" true (Outputs.agreement_ok outputs);
  Alcotest.(check bool) "validity" true (Outputs.validity_ok outputs)

(* THE HEADLINE CONTRAST (experiment E3): the standard algorithm, correct
   under halting failures, BREAKS under crash-recovery -- a recovered
   process updates the object a second time and obliterates the evidence
   of which team went first.  The model checker finds the failure, which
   manifests either as an agreement violation between outputs or as the
   algorithm's internal invariant failing first (a decider observes a
   winner register that was never written, or an observation outside both
   R-sets).  Either way: "recoverable consensus is harder than consensus",
   made executable. *)
let test_standard_consensus_breaks_under_crashes () =
  let cert = Helpers.disc_cert_of Rcons_spec.Swap.default 2 in
  let mk () =
    let inputs = [| 7; 9 |] in
    let outputs = Outputs.make ~inputs in
    let decide = Tournament.standard_consensus cert ~n:2 in
    let body pid () = Outputs.record outputs pid (decide pid inputs.(pid)) in
    let sim = Sim.create ~n:2 body in
    { Helpers.sim; outputs; check = Helpers.check_now outputs }
  in
  match Helpers.exhaustive ~mk ~max_crashes:1 with
  | _ -> Alcotest.fail "expected the crash-recovery adversary to break the baseline"
  | exception Explore.Violation { v_msg = msg; _ } ->
      (* The baseline may break either way first in DFS order: outright
         disagreement, or an internal invariant giving out (the explorer
         reports body exceptions as violations with a schedule). *)
      Alcotest.(check bool)
        ("baseline broke: " ^ msg)
        true
        (msg = "agreement violated"
        || String.starts_with ~prefix:"uncaught exception in process body:" msg)

let suite =
  [
    Alcotest.test_case "RC crash-free, n = 2..5" `Quick test_rc_crash_free_various_n;
    Alcotest.test_case "RC random crashes, n = 2..6" `Quick test_rc_random_crashes;
    Alcotest.test_case "RC exhaustive, n = 2, <=1 crash" `Slow test_rc_exhaustive_n2;
    Alcotest.test_case "RC validity with distinct inputs" `Quick test_rc_validity_distinct_inputs;
    Alcotest.test_case "stable inputs mask flapping" `Quick test_stable_inputs_mask_flapping;
    Alcotest.test_case "tournament fits skewed certificates" `Quick
      test_tournament_split_fits_capacities;
    Alcotest.test_case "tournament rejects oversubscription" `Quick
      test_tournament_rejects_oversubscription;
    Alcotest.test_case "Ruppert baseline crash-free" `Quick test_standard_consensus_crash_free;
    Alcotest.test_case "Ruppert baseline on swap (cons = 2)" `Quick test_standard_consensus_on_swap;
    Alcotest.test_case "baseline BREAKS under crashes (headline)" `Quick
      test_standard_consensus_breaks_under_crashes;
  ]
