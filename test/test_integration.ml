(* End-to-end integration tests: the full pipeline of the paper, from the
   decision procedure to a running algorithm to a model-checked execution,
   plus consistency between the static classification and the dynamic
   behaviour. *)

open Rcons_runtime

(* For every readable catalogue type with a 2-recording witness, derive
   the certificate and model-check the Figure 2 algorithm exhaustively
   (one crash); for every type without one, the valency sweep must be
   conclusive or the type non-readable.  Static and dynamic answers must
   cohere. *)
let test_static_dynamic_coherence () =
  List.iter
    (fun e ->
      let ot = e.Rcons_spec.Catalogue.ot in
      let name = Rcons_spec.Object_type.name ot in
      match Rcons_check.Recording.witness ot 2 with
      | Some cert when Rcons_spec.Object_type.readable ot ->
          let stats =
            Helpers.exhaustive
              ~mk:(Helpers.team_system cert)
              ~max_crashes:1
          in
          Alcotest.(check bool) (name ^ ": model-checked") true (stats.Explore.schedules > 0)
      | Some _ -> () (* recording but not readable: Theorem 8 inapplicable *)
      | None ->
          (* no 2-recording witness: the valency sweep may or may not
             settle rcons = 1 (a readable type can keep evidence alive
             without being 2-recording, e.g. swap), but whenever it IS
             conclusive it must not contradict an RC-capable type *)
          let r = Rcons_valency.Impossibility.analyse ot in
          if r.Rcons_valency.Impossibility.conclusive then
            Alcotest.(check bool)
              (name ^ ": conclusive only without a readable 2-recording witness")
              true
              ((not (Rcons_spec.Object_type.readable ot))
              || Rcons_check.Recording.witness ot 2 = None))
    Rcons_spec.Catalogue.all

(* Full pipeline on S_n for several n: witness -> validate -> tournament
   -> random adversary. *)
let test_sn_pipeline () =
  List.iter
    (fun n ->
      let ot = Rcons_spec.Sn.make n in
      let cert = Helpers.cert_of ot n in
      Alcotest.(check bool) "certificate validates" true
        (Rcons_check.Certificate.validate_recording cert);
      Helpers.random_sweep
        ~mk:(fun () -> Helpers.rc_system cert ~n ())
        ~iters:100 ~crash_prob:0.2 ~max_crashes:(2 * n) ~seed:n)
    [ 2; 3; 4; 5 ]

(* The toplevel facade. *)
let test_facade_solve_rc () =
  match Rcons.solve_rc Rcons_spec.Sticky_bit.t ~n:3 with
  | None -> Alcotest.fail "sticky bit must solve 3-process RC"
  | Some decide ->
      let t, outs = Rcons_algo.Outputs.system ~inputs:[| 1; 2; 3 |] (fun () -> decide) in
      Adversary.round_robin t;
      Alcotest.(check bool) "agreement" true (Rcons_algo.Outputs.agreement_ok outs)

let test_facade_solve_rc_refuses_register () =
  Alcotest.(check bool) "register cannot solve 2-process RC" true
    (Rcons.solve_rc Rcons_spec.Register.default ~n:2 = None)

let test_facade_classify () =
  let r = Rcons.classify ~limit:3 Rcons_spec.Register.default in
  Alcotest.(check string) "name" "register(2)" r.Rcons_check.Classify.type_name

let test_facade_make_recoverable () =
  let script = [| Rcons_universal.Derived.Incr; Rcons_universal.Derived.Get |] in
  let u, _, t = Rcons.make_recoverable Rcons_universal.Derived.counter [| script; script |] in
  Adversary.round_robin t;
  Alcotest.(check int) "4 ops applied" 4 (Rcons_universal.Runiversal.applied_count u)

(* T_n's gap, dynamically: T_4 is 2-recording, so 2 processes can solve RC
   with it (Figure 2 + certificate), even though rcons(T_4) < cons(T_4). *)
let test_tn_two_process_rc () =
  let cert = Helpers.cert_of (Rcons_spec.Tn.make 4) 2 in
  Helpers.random_sweep
    ~mk:(fun () -> Helpers.team_system cert ())
    ~iters:300 ~crash_prob:0.2 ~max_crashes:6 ~seed:44

(* Simultaneous-crash RC (Figure 4) built on RC instances that are
   themselves built from the Figure 2 algorithm: the deepest composition
   in the repository. *)
let test_deep_composition () =
  let n = 2 in
  let cert = Helpers.cert_of (Rcons_spec.Sn.make n) n in
  let make_consensus () =
    let decide = Rcons_algo.Tournament.recoverable_consensus cert ~n in
    { Rcons_algo.Simultaneous_rc.propose = decide }
  in
  let t, outputs =
    Rcons_algo.Outputs.system ~inputs:[| 41; 42 |] (fun () ->
        Rcons_algo.Simultaneous_rc.(decide (create ~n ~make_consensus)))
  in
  Adversary.(ignore (run ~record:false (create (Simultaneous { crash_at = [ 6; 21 ] })) t));
  Alcotest.(check bool) "agreement" true (Rcons_algo.Outputs.agreement_ok outputs);
  Alcotest.(check bool) "validity" true (Rcons_algo.Outputs.validity_ok outputs)

(* Theorem 22, experimentally: for a finite set of readable types, the
   recording level of the set as used by our algorithms is the max of the
   individual levels (each algorithm instance uses one object type plus
   registers), and rcons bounds combine accordingly. *)
let test_set_bounds_shape () =
  let types = [ Rcons_spec.Sn.make 3; Rcons_spec.Sn.make 4; Rcons_spec.Register.default ] in
  let lower =
    List.fold_left
      (fun acc ot ->
        match Rcons_check.Classify.max_recording ~limit:5 ot with
        | Rcons_check.Classify.Finite k -> max acc k
        | Rcons_check.Classify.At_least k -> max acc k)
      1 types
  in
  Alcotest.(check int) "max individual recording level" 4 lower;
  (* the set solves RC for [lower] processes: use the best type *)
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 4) 4 in
  Helpers.random_sweep
    ~mk:(fun () -> Helpers.rc_system cert ~n:4 ())
    ~iters:50 ~crash_prob:0.15 ~max_crashes:8 ~seed:91

let suite =
  [
    Alcotest.test_case "static/dynamic coherence over the catalogue" `Quick
      test_static_dynamic_coherence;
    Alcotest.test_case "S_n pipeline, n = 2..5" `Quick test_sn_pipeline;
    Alcotest.test_case "facade: solve_rc" `Quick test_facade_solve_rc;
    Alcotest.test_case "facade: solve_rc refuses register" `Quick test_facade_solve_rc_refuses_register;
    Alcotest.test_case "facade: classify" `Quick test_facade_classify;
    Alcotest.test_case "facade: make_recoverable" `Quick test_facade_make_recoverable;
    Alcotest.test_case "T_4 solves 2-process RC" `Quick test_tn_two_process_rc;
    Alcotest.test_case "deep composition: Fig 4 over Fig 2" `Quick test_deep_composition;
    Alcotest.test_case "Theorem 22 shape" `Quick test_set_bounds_shape;
  ]
