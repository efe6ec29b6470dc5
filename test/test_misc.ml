(* Unit tests for the small supporting surfaces: team labels, output
   logs, printers, and defensive argument checks. *)

open Rcons_spec

(* --- Team --- *)

let test_team_opposite () =
  Alcotest.(check bool) "A<->B" true (Team.opposite Team.A = Team.B);
  Alcotest.(check bool) "B<->A" true (Team.opposite Team.B = Team.A);
  Alcotest.(check string) "to_string" "A" (Team.to_string Team.A);
  Alcotest.(check string) "pp" "B" (Format.asprintf "%a" Team.pp Team.B)

(* --- Outputs --- *)

let test_outputs_agreement () =
  let o = Rcons_algo.Outputs.make ~inputs:[| 1; 2 |] in
  Alcotest.(check bool) "empty agrees" true (Rcons_algo.Outputs.agreement_ok o);
  Rcons_algo.Outputs.record o 0 1;
  Rcons_algo.Outputs.record o 1 1;
  Rcons_algo.Outputs.record o 0 1;
  Alcotest.(check bool) "all equal" true (Rcons_algo.Outputs.agreement_ok o);
  Rcons_algo.Outputs.record o 1 2;
  Alcotest.(check bool) "disagreement detected" false (Rcons_algo.Outputs.agreement_ok o)

let test_outputs_validity () =
  let o = Rcons_algo.Outputs.make ~inputs:[| 1; 2 |] in
  Rcons_algo.Outputs.record o 0 2;
  Alcotest.(check bool) "input value ok" true (Rcons_algo.Outputs.validity_ok o);
  Rcons_algo.Outputs.record o 1 7;
  Alcotest.(check bool) "invented value caught" false (Rcons_algo.Outputs.validity_ok o)

let test_outputs_self_agreement () =
  (* repeated outputs of ONE process must also agree: the RC agreement
     property explicitly covers multiple runs of the same process *)
  let o = Rcons_algo.Outputs.make ~inputs:[| 1 |] in
  Rcons_algo.Outputs.record o 0 1;
  Rcons_algo.Outputs.record o 0 1;
  Alcotest.(check bool) "same twice" true (Rcons_algo.Outputs.agreement_ok o);
  Alcotest.(check int) "all collects both" 2 (List.length (Rcons_algo.Outputs.all o));
  Alcotest.(check bool) "decided" true (Rcons_algo.Outputs.decided o 0)

let test_outputs_check_exn () =
  let o = Rcons_algo.Outputs.make ~inputs:[| 1; 2 |] in
  Rcons_algo.Outputs.record o 0 1;
  Rcons_algo.Outputs.record o 1 2;
  let messages = ref [] in
  Rcons_algo.Outputs.check_exn ~fail:(fun m -> messages := m :: !messages) o;
  Alcotest.(check (list string)) "agreement reported first" [ "agreement violated" ] !messages

(* --- printers --- *)

let test_certificate_printer () =
  let cert = Option.get (Rcons_check.Recording.witness (Sn.make 3) 3) in
  let s = Format.asprintf "%a" Rcons_check.Certificate.pp_recording cert in
  Alcotest.(check bool) "mentions the type" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 3 <= String.length s && (String.sub s i 3 = "S_3" || contains (i + 1))
    in
    contains 0)

let test_level_printers () =
  Alcotest.(check string) "finite" "3"
    (Format.asprintf "%a" Rcons_check.Classify.pp_level (Rcons_check.Classify.Finite 3));
  Alcotest.(check string) "at least" ">=5"
    (Format.asprintf "%a" Rcons_check.Classify.pp_level (Rcons_check.Classify.At_least 5))

let test_schedule_printer () =
  let s =
    Format.asprintf "%a" Rcons_runtime.Explore.pp_schedule
      [ Rcons_runtime.Explore.Step_choice 0; Rcons_runtime.Explore.Crash_choice 1 ]
  in
  Alcotest.(check string) "schedule" "step(p0); crash(p1)" s

let test_kind_printer () =
  Alcotest.(check string) "commute" "commute"
    (Format.asprintf "%a" Rcons_valency.Pair_class.pp_kind Rcons_valency.Pair_class.Commute);
  Alcotest.(check string) "inconclusive" "INCONCLUSIVE"
    (Format.asprintf "%a" Rcons_valency.Pair_class.pp_kind Rcons_valency.Pair_class.Inconclusive)

(* --- defensive checks --- *)

let test_max_level_rejects_bad_limit () =
  Alcotest.check_raises "limit 1" (Invalid_argument "Classify.max_level: limit must be >= 2")
    (fun () -> ignore (Rcons_check.Classify.max_level ~limit:1 (fun _ -> true)))

let test_one_shot_poll () =
  let open Rcons_runtime in
  let c = Rcons_algo.One_shot.create () in
  let seen = ref [] in
  let body _pid () =
    seen := Rcons_algo.One_shot.poll c :: !seen;
    ignore (Rcons_algo.One_shot.decide c 9);
    seen := Rcons_algo.One_shot.poll c :: !seen
  in
  let sim = Sim.create ~n:1 body in
  Adversary.round_robin sim;
  Alcotest.(check (list (option int))) "poll before/after" [ Some 9; None ] !seen;
  Alcotest.(check (option int)) "peek" (Some 9) (Rcons_algo.One_shot.peek c)

let test_one_shot_first_wins () =
  let open Rcons_runtime in
  let c = Rcons_algo.One_shot.create () in
  let outs = Array.make 2 0 in
  let body pid () = outs.(pid) <- Rcons_algo.One_shot.decide c (100 + pid) in
  let sim = Sim.create ~n:2 body in
  Adversary.round_robin sim;
  Alcotest.(check int) "agree" outs.(0) outs.(1);
  Alcotest.(check bool) "one of the proposals" true (outs.(0) = 100 || outs.(0) = 101)

(* --- stable input --- *)

let test_stable_input_single_writer () =
  let open Rcons_runtime in
  let regs = Rcons_algo.Stable_input.make 2 in
  let seen = ref [] in
  let body pid () =
    (* bind first: [a := b :: !a] would read [!a] before the suspending
       call and lose the concurrent update *)
    let v = Rcons_algo.Stable_input.fix regs pid (10 * (pid + 1)) in
    seen := v :: !seen
  in
  let sim = Sim.create ~n:2 body in
  Adversary.round_robin sim;
  Alcotest.(check bool) "each got its own" true
    (List.sort compare !seen = [ 10; 20 ])

let suite =
  [
    Alcotest.test_case "team labels" `Quick test_team_opposite;
    Alcotest.test_case "outputs: agreement" `Quick test_outputs_agreement;
    Alcotest.test_case "outputs: validity" `Quick test_outputs_validity;
    Alcotest.test_case "outputs: self agreement across runs" `Quick test_outputs_self_agreement;
    Alcotest.test_case "outputs: check_exn" `Quick test_outputs_check_exn;
    Alcotest.test_case "certificate printer" `Quick test_certificate_printer;
    Alcotest.test_case "level printers" `Quick test_level_printers;
    Alcotest.test_case "schedule printer" `Quick test_schedule_printer;
    Alcotest.test_case "kind printer" `Quick test_kind_printer;
    Alcotest.test_case "max_level rejects bad limit" `Quick test_max_level_rejects_bad_limit;
    Alcotest.test_case "one-shot: poll/peek" `Quick test_one_shot_poll;
    Alcotest.test_case "one-shot: first wins" `Quick test_one_shot_first_wins;
    Alcotest.test_case "stable input: single writer" `Quick test_stable_input_single_writer;
  ]
