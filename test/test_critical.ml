(* Tests of the critical-execution explorer (Theorem 14 / Figure 3
   exhibited): on correct 2-process consensus systems a critical
   execution exists within the bounded E_A-style space, the two
   next-step valencies differ, and both processes are poised on the SAME
   consensus object -- never on a register ("a standard argument shows
   that ... each process is about to perform an operation on the same
   object O, and that step cannot be a read"). *)

open Rcons_runtime
open Rcons_valency

(* Process i proposes i to one shared one-shot consensus object. *)
let one_shot_mk ?(inputs = [| 0; 1 |]) () =
  Rcons_algo.Outputs.system ~inputs (fun () ->
      let c = Rcons_algo.One_shot.create () in
      fun _pid v -> Rcons_algo.One_shot.decide c v)

(* Figure 2 on the type's level-2 certificate, p0 on team A proposing 0
   and p1 on team B proposing 1. *)
let fig2_mk name =
  match Rcons.Counterexample.team_system (Rcons.Counterexample.team2 ~inputs:(0, 1) name) with
  | Ok mk -> mk
  | Error e -> failwith e

let check_criticality name report ~object_label =
  (* next-step valencies are singletons and differ *)
  (match report.Critical.decision_sets with
  | [ s0; s1 ] ->
      Alcotest.(check int) (name ^ ": p0 univalent") 1 (Critical.Int_set.cardinal s0);
      Alcotest.(check int) (name ^ ": p1 univalent") 1 (Critical.Int_set.cardinal s1);
      Alcotest.(check bool) (name ^ ": valencies differ") false
        (Critical.Int_set.equal s0 s1)
  | _ -> Alcotest.fail "expected 2 processes");
  (* both poised on the same consensus object, not a register *)
  List.iteri
    (fun i label ->
      match label with
      | Some l ->
          Alcotest.(check string) (Printf.sprintf "%s: p%d poised on O" name i) object_label l
      | None -> Alcotest.fail (name ^ ": missing label"))
    report.Critical.poised_on

let test_one_shot_critical () =
  let r = Critical.find_critical ~mk:one_shot_mk () in
  check_criticality "one-shot" r ~object_label:"one-shot-consensus"

let test_fig2_s2_critical () =
  let r = Critical.find_critical ~mk:(fig2_mk "S2") () in
  check_criticality "fig2/S_2" r ~object_label:"S_2"

let test_fig2_sticky_critical () =
  let r = Critical.find_critical ~mk:(fig2_mk "sticky") () in
  check_criticality "fig2/sticky" r ~object_label:"sticky-bit"

let test_initial_configuration_bivalent () =
  (* distinct inputs make the initial configuration bivalent: p0 solo
     decides 0, p1 solo decides 1 (the existence argument in Thm 14) *)
  let s = Critical.decisions ~mk:one_shot_mk [] in
  Alcotest.(check int) "two reachable decisions" 2 (Critical.Int_set.cardinal s)

let test_univalent_system_rejected () =
  (* same inputs: only one decision reachable; no critical execution *)
  match Critical.find_critical ~mk:(one_shot_mk ~inputs:[| 7; 7 |]) () with
  | _ -> Alcotest.fail "expected Search_space_exhausted"
  | exception Critical.Search_space_exhausted _ -> ()

let test_decisions_monotone () =
  (* a prefix's decision set contains each extension's decision set *)
  let root = Critical.decisions ~mk:one_shot_mk [] in
  let after_p0 = Critical.decisions ~mk:one_shot_mk [ Schedule.Step_choice 0 ] in
  Alcotest.(check bool) "subset" true (Critical.Int_set.subset after_p0 root)

let suite =
  [
    Alcotest.test_case "one-shot: critical execution found" `Quick test_one_shot_critical;
    Alcotest.test_case "Figure 2 on S_2: poised on the S_2 object" `Quick test_fig2_s2_critical;
    Alcotest.test_case "Figure 2 on sticky bit: poised on the sticky bit" `Quick
      test_fig2_sticky_critical;
    Alcotest.test_case "initial configuration is bivalent" `Quick
      test_initial_configuration_bivalent;
    Alcotest.test_case "univalent system has no critical execution" `Quick
      test_univalent_system_rejected;
    Alcotest.test_case "decision sets are monotone" `Quick test_decisions_monotone;
  ]
