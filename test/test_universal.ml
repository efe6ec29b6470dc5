(* Tests of RUniversal (Figure 7): sequential sanity of the derived
   objects, wait-freedom via helping, crash-recovery idempotence, and
   linearizability of recorded histories under adversarial schedules
   (experiment E7). *)

open Rcons_runtime
open Rcons_universal

let run_counter ?(n = 2) ?history ?make_rc scripts =
  let u = Runiversal.create ?history ?make_rc ~n Derived.counter in
  let max_ops = Array.fold_left (fun m s -> max m (Array.length s)) 0 scripts in
  let runner = Script.create u ~n ~max_ops in
  let body pid () = Script.run runner pid scripts.(pid) in
  (u, runner, Sim.create ~n body)

let test_counter_sequential () =
  let scripts = [| [| Derived.Incr; Derived.Incr; Derived.Get |]; [| Derived.Incr; Derived.Get |] |] in
  let u, runner, t = run_counter scripts in
  Adversary.round_robin t;
  Alcotest.(check int) "all ops applied" 5 (Runiversal.applied_count u);
  (match (Script.response runner 0 2, Script.response runner 1 1) with
  | Some a, Some b ->
      Alcotest.(check bool) "final gets see all increments eventually" true (a = 3 || b = 3)
  | _ -> Alcotest.fail "missing responses");
  (* sequence numbers are a contiguous 2..6 *)
  let seqs =
    List.map (fun nd -> Cell.peek nd.Runiversal.seq) (Runiversal.linearization u)
  in
  Alcotest.(check (list int)) "contiguous seq numbers" [ 2; 3; 4; 5; 6 ] seqs

let test_stack_object () =
  let spec = Derived.stack () in
  let u = Runiversal.create ~n:1 spec in
  let script = [| Derived.Push 1; Derived.Push 2; Derived.Pop; Derived.Pop; Derived.Pop |] in
  let runner = Script.create u ~n:1 ~max_ops:5 in
  let t = Sim.create ~n:1 (fun pid () -> Script.run runner pid script) in
  Adversary.round_robin t;
  Alcotest.(check (option (option int))) "pop 2 first" (Some (Some 2)) (Script.response runner 0 2);
  Alcotest.(check (option (option int))) "pop 1 second" (Some (Some 1)) (Script.response runner 0 3);
  Alcotest.(check (option (option int))) "pop empty" (Some None) (Script.response runner 0 4)

let test_queue_object () =
  let spec = Derived.queue () in
  let u = Runiversal.create ~n:1 spec in
  let script = [| Derived.Enq 1; Derived.Enq 2; Derived.Deq; Derived.Deq |] in
  let runner = Script.create u ~n:1 ~max_ops:4 in
  let t = Sim.create ~n:1 (fun pid () -> Script.run runner pid script) in
  Adversary.round_robin t;
  Alcotest.(check (option (option int))) "deq 1 first" (Some (Some 1)) (Script.response runner 0 2);
  Alcotest.(check (option (option int))) "deq 2 second" (Some (Some 2)) (Script.response runner 0 3)

let test_kv_object () =
  let spec = Derived.kv () in
  let u = Runiversal.create ~n:1 spec in
  let script =
    [| Derived.Put ("x", 1); Derived.Put ("y", 2); Derived.Find "x"; Derived.Del "x"; Derived.Find "x" |]
  in
  let runner = Script.create u ~n:1 ~max_ops:5 in
  let t = Sim.create ~n:1 (fun pid () -> Script.run runner pid script) in
  Adversary.round_robin t;
  Alcotest.(check (option (option int))) "find x" (Some (Some 1)) (Script.response runner 0 2);
  Alcotest.(check (option (option int))) "find deleted" (Some None) (Script.response runner 0 4)

let test_invoke_idempotent_across_crashes () =
  (* crash at every step of a single increment: the counter must still end
     at exactly 1, however many times the process restarts *)
  let u = Runiversal.create ~n:1 Derived.counter in
  let runner = Script.create u ~n:1 ~max_ops:1 in
  let t = Sim.create ~n:1 (fun pid () -> Script.run runner pid [| Derived.Incr |]) in
  for _ = 1 to 15 do
    if not (Sim.all_finished t) then begin
      (* make partial progress, then crash mid-operation *)
      for _ = 1 to 3 do
        if not (Sim.all_finished t) then ignore (Sim.step_proc t 0)
      done;
      if not (Sim.all_finished t) then Sim.crash t 0
    end
  done;
  Adversary.round_robin t;
  Alcotest.(check int) "exactly one increment despite repeated mid-operation crashes" 1
    (Runiversal.applied_count u);
  Alcotest.(check (option int)) "response recorded" (Some 1) (Script.response runner 0 0)

let test_helping_wait_freedom () =
  (* p1 announces an operation and then stalls (never scheduled again);
     p0, running alone, must still complete its own operations thanks to
     the round-robin helping -- and will in fact append p1's node too *)
  let u = Runiversal.create ~n:2 Derived.counter in
  let runner = Script.create u ~n:2 ~max_ops:3 in
  let scripts = [| Array.make 3 Derived.Incr; [| Derived.Incr |] |] in
  let t = Sim.create ~n:2 (fun pid () -> Script.run runner pid scripts.(pid)) in
  (* let p1 announce (a few steps), then run p0 exclusively *)
  for _ = 1 to 6 do
    if not (Sim.finished t 1) then ignore (Sim.step_proc t 1)
  done;
  let guard = ref 0 in
  while (not (Sim.finished t 0)) && !guard < 10_000 do
    ignore (Sim.step_proc t 0);
    incr guard
  done;
  Alcotest.(check bool) "p0 finished without p1" true (Sim.finished t 0);
  Alcotest.(check bool) "p1's announced op was helped in" true (Runiversal.applied_count u >= 3)

let lin_ok history = Rcons_history.Linearizability.check_history (Derived.lin_spec Derived.counter) history

let test_linearizable_random_crashes () =
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 300 do
    let history = Rcons_history.History.create () in
    let scripts =
      Array.init 3 (fun pid ->
          Array.init 3 (fun k -> if (pid + k) mod 2 = 0 then Derived.Incr else Derived.Get))
    in
    let _, _, t = run_counter ~n:3 ~history scripts in
    Adversary.(
      ignore (run ~record:false (of_rng ~rng (Uniform { crash_prob = 0.15; max_crashes = 9 })) t));
    if not (lin_ok history) then Alcotest.fail "non-linearizable history under crashes"
  done

let test_linearizable_exhaustive_small () =
  (* Two processes, one op each.  The universal construction's bodies are
     long (each field access is a step), so full exploration with a crash
     is infeasible; explore a bounded prefix of the schedule tree and
     accept budget exhaustion as "no violation found within the budget". *)
  let mk () =
    let history = Rcons_history.History.create () in
    let scripts = [| [| Derived.Incr |]; [| Derived.Get |] |] in
    let _, _, t = run_counter ~n:2 ~history scripts in
    let check () = if Sim.all_finished t && not (lin_ok history) then Explore.fail "not linearizable" in
    (t, check)
  in
  match Explore.explore ~max_crashes:1 ~max_nodes:400_000 ~mk () with
  | stats -> Alcotest.(check bool) "schedules explored" true (stats.Explore.schedules > 50)
  | exception Explore.Budget_exceeded stats ->
      Alcotest.(check bool) "no violation within the node budget" true
        (stats.Explore.nodes > 400_000)

let test_figure2_rc_instances () =
  (* plug the Figure 2 + tournament RC (from the sticky bit's certificate)
     in as the per-node RC instance: the full paper pipeline end-to-end *)
  let n = 2 in
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t n in
  let make_rc () =
    let decide = Rcons_algo.Tournament.recoverable_consensus cert ~n in
    { Runiversal.propose = (fun pid v -> decide pid v) }
  in
  let rng = Random.State.make [| 8 |] in
  for _ = 1 to 50 do
    let history = Rcons_history.History.create () in
    let scripts = [| [| Derived.Incr; Derived.Get |]; [| Derived.Incr |] |] in
    let _, _, t = run_counter ~n ~history ~make_rc scripts in
    Adversary.(
      ignore (run ~record:false (of_rng ~rng (Uniform { crash_prob = 0.1; max_crashes = 4 })) t));
    if not (lin_ok history) then Alcotest.fail "non-linearizable with Figure 2 RC instances"
  done

let test_linearization_matches_history_count () =
  let history = Rcons_history.History.create () in
  let scripts = [| [| Derived.Incr; Derived.Get |]; [| Derived.Incr |] |] in
  let u, _, t = run_counter ~n:2 ~history scripts in
  Adversary.round_robin t;
  let ops = Rcons_history.History.operations history in
  Alcotest.(check int) "history ops = applied ops" (Runiversal.applied_count u) (List.length ops);
  Alcotest.(check bool) "all completed" true
    (List.for_all (fun (o : _ Rcons_history.History.operation) -> o.resp <> None) ops)

let test_simultaneous_crashes_universal () =
  (* the universal construction also survives the simultaneous-crash model *)
  let history = Rcons_history.History.create () in
  let scripts = Array.init 3 (fun _ -> [| Derived.Incr; Derived.Get |]) in
  let _, _, t = run_counter ~n:3 ~history scripts in
  Adversary.(ignore (run ~record:false (create (Simultaneous { crash_at = [ 4; 15 ] })) t));
  Alcotest.(check bool) "linearizable after crash_all" true (lin_ok history)

let suite =
  [
    Alcotest.test_case "counter: sequential" `Quick test_counter_sequential;
    Alcotest.test_case "stack object" `Quick test_stack_object;
    Alcotest.test_case "queue object" `Quick test_queue_object;
    Alcotest.test_case "kv object" `Quick test_kv_object;
    Alcotest.test_case "invoke is crash-idempotent" `Quick test_invoke_idempotent_across_crashes;
    Alcotest.test_case "helping gives wait-freedom" `Quick test_helping_wait_freedom;
    Alcotest.test_case "linearizable under random crashes" `Quick test_linearizable_random_crashes;
    Alcotest.test_case "linearizable: exhaustive small" `Quick test_linearizable_exhaustive_small;
    Alcotest.test_case "Figure 2 RC instances end-to-end" `Quick test_figure2_rc_instances;
    Alcotest.test_case "linearization matches history" `Quick test_linearization_matches_history_count;
    Alcotest.test_case "simultaneous crashes" `Quick test_simultaneous_crashes_universal;
  ]
