(* Tests of the recoverable CAS construction (Section 5): sequential
   semantics, idempotence across crashes at every step position,
   detectability via [recover], and linearizability of concurrent
   histories under random crash injection. *)

open Rcons_runtime
open Rcons_algo

(* Linearizability spec of a CAS object over integers. *)
let cas_spec : (int, int * int, bool) Rcons_history.Linearizability.spec =
  {
    init = 0;
    apply = (fun s (exp, des) -> if s = exp then (des, true) else (s, false));
    equal_resp = ( = );
  }

let test_sequential_semantics () =
  let t = Recoverable_cas.create ~n:2 0 in
  let results = ref [] in
  let body _pid () =
    results := [];
    results := Recoverable_cas.cas t 0 ~attempt:1 ~expected:0 ~desired:5 :: !results;
    results := Recoverable_cas.cas t 0 ~attempt:2 ~expected:0 ~desired:6 :: !results;
    results := Recoverable_cas.cas t 0 ~attempt:3 ~expected:5 ~desired:7 :: !results;
    results := [ Recoverable_cas.read_value t = 7 ] @ !results
  in
  let sim = Sim.create ~n:1 body in
  Adversary.round_robin sim;
  Alcotest.(check (list bool)) "success, failure, success, final value"
    [ true; true; false; true ] !results

let test_idempotent_reentry () =
  let t = Recoverable_cas.create ~n:1 0 in
  let r1 = ref None and r2 = ref None in
  let body _pid () =
    let a = Recoverable_cas.cas t 0 ~attempt:1 ~expected:0 ~desired:9 in
    let b = Recoverable_cas.cas t 0 ~attempt:1 ~expected:0 ~desired:9 in
    r1 := Some a;
    r2 := Some b
  in
  let sim = Sim.create ~n:1 body in
  Adversary.round_robin sim;
  Alcotest.(check (option bool)) "first" (Some true) !r1;
  Alcotest.(check (option bool)) "re-entry returns recorded outcome" (Some true) !r2;
  let v = ref 0 in
  let observer = Sim.create ~n:1 (fun _ () -> v := Recoverable_cas.read_value t) in
  Adversary.round_robin observer;
  Alcotest.(check int) "effect applied once" 9 !v

(* Crash-at-every-position: a single process performs one CAS; crash it
   at every possible step and drive to completion; the final value must
   be installed exactly once and the response true. *)
let test_crash_every_position_solo () =
  let baseline =
    let t = Recoverable_cas.create ~n:1 0 in
    let sim =
      Sim.create ~n:1 (fun pid () -> ignore (Recoverable_cas.cas t pid ~attempt:1 ~expected:0 ~desired:1))
    in
    Adversary.round_robin sim;
    Sim.total_steps sim
  in
  for crash_at = 1 to baseline do
    let t = Recoverable_cas.create ~n:1 0 in
    let out = ref None in
    let sim =
      Sim.create ~n:1 (fun pid () ->
          out := Some (Recoverable_cas.cas t pid ~attempt:1 ~expected:0 ~desired:1))
    in
    let budget = ref 1000 in
    while not (Sim.all_finished sim) do
      decr budget;
      if !budget <= 0 then Alcotest.fail "budget";
      if Sim.total_steps sim = crash_at then Sim.crash sim 0;
      ignore (Sim.step_proc sim 0)
    done;
    Alcotest.(check (option bool))
      (Printf.sprintf "crash at %d: true" crash_at)
      (Some true) !out
  done

(* Two contending processes, crashes injected at random: record a history
   of all invocations and check CAS linearizability. *)
let test_concurrent_linearizable () =
  let rng = Random.State.make [| 4 |] in
  for _iter = 1 to 400 do
    let n = 2 in
    let t = Recoverable_cas.create ~n 0 in
    let history = Rcons_history.History.create () in
    (* scripts of (expected, desired) pairs over a tiny domain so that
       both outcomes occur *)
    let scripts =
      Array.init n (fun pid ->
          Array.init 3 (fun k ->
              let exp = Random.State.int rng 3 in
              let des = 1 + Random.State.int rng 2 + (10 * pid) + k in
              (exp, des)))
    in
    let progress = Array.init n (fun _ -> Cell.make 0) in
    let hist_tags = Array.make_matrix n 3 (-1) in
    let body pid () =
      let k = ref (Cell.read progress.(pid)) in
      while !k < Array.length scripts.(pid) do
        let exp, des = scripts.(pid).(!k) in
        if hist_tags.(pid).(!k) < 0 then
          hist_tags.(pid).(!k) <- Rcons_history.History.invoke history ~pid (exp, des);
        let r = Recoverable_cas.cas t pid ~attempt:(!k + 1) ~expected:exp ~desired:des in
        Rcons_history.History.respond history ~pid ~tag:hist_tags.(pid).(!k) r;
        Cell.write progress.(pid) (!k + 1);
        k := Cell.read progress.(pid)
      done
    in
    let sim = Sim.create ~n body in
    let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob = 0.15; max_crashes = 6 }) in
    ignore (Adversary.run ~record:false adv sim);
    if not (Rcons_history.Linearizability.check_history cas_spec history) then
      Alcotest.fail "recoverable CAS history not linearizable"
  done

(* Detectability: crash a process at every position of its CAS and ask
   [recover]; the answer must never claim success for an attempt whose
   effect is absent, nor miss a success whose effect is present. *)
let test_recover_statuses () =
  let baseline =
    let t = Recoverable_cas.create ~n:1 0 in
    let sim =
      Sim.create ~n:1 (fun pid () -> ignore (Recoverable_cas.cas t pid ~attempt:1 ~expected:0 ~desired:1))
    in
    Adversary.round_robin sim;
    Sim.total_steps sim
  in
  for crash_at = 1 to baseline do
    let t = Recoverable_cas.create ~n:1 0 in
    let sim =
      Sim.create ~n:1 (fun pid () ->
          ignore (Recoverable_cas.cas t pid ~attempt:1 ~expected:0 ~desired:1))
    in
    let steps = ref 0 in
    while !steps < crash_at && not (Sim.all_finished sim) do
      ignore (Sim.step_proc sim 0);
      incr steps
    done;
    Sim.crash sim 0;
    (* query recover and the installed value from an observer process,
       without re-running the crashed operation *)
    let status = ref Recoverable_cas.Unresolved in
    let installed = ref 0 in
    let observer =
      Sim.create ~n:1 (fun _ () ->
          status := Recoverable_cas.recover t 0 ~attempt:1;
          installed := Recoverable_cas.read_value t)
    in
    Adversary.round_robin observer;
    (match !status with
    | Recoverable_cas.Succeeded ->
        Alcotest.(check int) (Printf.sprintf "crash@%d: success claim is real" crash_at) 1 !installed
    | Recoverable_cas.Failed ->
        Alcotest.(check int) (Printf.sprintf "crash@%d: failure claim is real" crash_at) 0 !installed
    | Recoverable_cas.Unresolved ->
        (* the solo process is the only writer: Unresolved must mean the
           effect is genuinely absent *)
        Alcotest.(check int) (Printf.sprintf "crash@%d: unresolved => no effect" crash_at) 0 !installed)
  done

(* The evidence mechanism: p0 CASes successfully and crashes; p1
   overwrites p0's value; p0's recovery must still report success. *)
let test_evidence_survives_overwrite () =
  let t = Recoverable_cas.create ~n:2 0 in
  (* p0 completes its CAS... *)
  let sim0 =
    Sim.create ~n:1 (fun _ () -> ignore (Recoverable_cas.cas t 0 ~attempt:1 ~expected:0 ~desired:1))
  in
  Adversary.round_robin sim0;
  (* ...crashes (loses the result), then p1 overwrites *)
  let sim1 =
    Sim.create ~n:1 (fun _ () -> ignore (Recoverable_cas.cas t 1 ~attempt:1 ~expected:1 ~desired:2))
  in
  Adversary.round_robin sim1;
  let v = ref 0 in
  let check = Sim.create ~n:1 (fun _ () -> v := Recoverable_cas.read_value t) in
  Adversary.round_robin check;
  Alcotest.(check int) "p1 overwrote" 2 !v;
  let status = ref Recoverable_cas.Unresolved in
  let observer = Sim.create ~n:1 (fun _ () -> status := Recoverable_cas.recover t 0 ~attempt:1) in
  Adversary.round_robin observer;
  Alcotest.(check bool) "p0's success survives the overwrite" true
    (!status = Recoverable_cas.Succeeded)

let suite =
  [
    Alcotest.test_case "sequential semantics" `Quick test_sequential_semantics;
    Alcotest.test_case "idempotent re-entry" `Quick test_idempotent_reentry;
    Alcotest.test_case "crash at every position (solo)" `Quick test_crash_every_position_solo;
    Alcotest.test_case "concurrent histories linearizable" `Quick test_concurrent_linearizable;
    Alcotest.test_case "recover never lies" `Quick test_recover_statuses;
    Alcotest.test_case "evidence survives overwrite" `Quick test_evidence_survives_overwrite;
  ]
