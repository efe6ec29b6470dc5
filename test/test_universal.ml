(* Tests of RUniversal (Figure 7): sequential sanity of the derived
   objects, wait-freedom via helping, crash-recovery idempotence, and
   linearizability of recorded histories under adversarial schedules
   (experiment E7). *)

open Rcons_runtime
open Rcons_universal

let test_counter_sequential () =
  let scripts = [| [| Derived.Incr; Derived.Incr; Derived.Get |]; [| Derived.Incr; Derived.Get |] |] in
  let u, runner, t = Script.system Derived.counter scripts in
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
  let script = [| Derived.Push 1; Derived.Push 2; Derived.Pop; Derived.Pop; Derived.Pop |] in
  let _, runner, t = Script.system (Derived.stack ()) [| script |] in
  Adversary.round_robin t;
  Alcotest.(check (option (option int))) "pop 2 first" (Some (Some 2)) (Script.response runner 0 2);
  Alcotest.(check (option (option int))) "pop 1 second" (Some (Some 1)) (Script.response runner 0 3);
  Alcotest.(check (option (option int))) "pop empty" (Some None) (Script.response runner 0 4)

let test_queue_object () =
  let script = [| Derived.Enq 1; Derived.Enq 2; Derived.Deq; Derived.Deq |] in
  let _, runner, t = Script.system (Derived.queue ()) [| script |] in
  Adversary.round_robin t;
  Alcotest.(check (option (option int))) "deq 1 first" (Some (Some 1)) (Script.response runner 0 2);
  Alcotest.(check (option (option int))) "deq 2 second" (Some (Some 2)) (Script.response runner 0 3)

let test_kv_object () =
  let script =
    [| Derived.Put ("x", 1); Derived.Put ("y", 2); Derived.Find "x"; Derived.Del "x"; Derived.Find "x" |]
  in
  let _, runner, t = Script.system (Derived.kv ()) [| script |] in
  Adversary.round_robin t;
  Alcotest.(check (option (option int))) "find x" (Some (Some 1)) (Script.response runner 0 2);
  Alcotest.(check (option (option int))) "find deleted" (Some None) (Script.response runner 0 4)

let test_invoke_idempotent_across_crashes () =
  (* crash at every step of a single increment: the counter must still end
     at exactly 1, however many times the process restarts *)
  let u, runner, t = Script.system Derived.counter [| [| Derived.Incr |] |] in
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
  let u, _, t = Script.system Derived.counter [| Array.make 3 Derived.Incr; [| Derived.Incr |] |] in
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
    let _, _, t = Script.system ~history Derived.counter scripts in
    Adversary.(
      ignore (run ~record:false (of_rng ~rng (Uniform { crash_prob = 0.15; max_crashes = 9 })) t));
    if not (lin_ok history) then Alcotest.fail "non-linearizable history under crashes"
  done

(* The Figure 2 + tournament RC (from the sticky bit's certificate) as
   the per-node RC instance: the full paper pipeline end-to-end. *)
let figure2_rc n =
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t n in
  fun () ->
    let decide = Rcons_algo.Tournament.recoverable_consensus cert ~n in
    { Runiversal.propose = (fun pid v -> decide pid v) }

(* Random crash runs with Figure 2 RC instances.  With [~barriers],
   Figure 2's durable reads compare the values it decides structurally;
   node tags are plain data, so the barrier-carrying build runs the full
   pipeline too.  Only eager: under lossy, Figure 2's teammates can
   re-dirty each other's register line forever (ROADMAP, defect C). *)
let test_figure2_rc_instances ?barriers ~runs () =
  let make_rc = figure2_rc 2 in
  let rng = Random.State.make [| 8 |] in
  for _ = 1 to runs do
    let history = Rcons_history.History.create () in
    let scripts = [| [| Derived.Incr; Derived.Get |]; [| Derived.Incr |] |] in
    let _, _, t =
      Persist.scoped ?barriers Persist.Eager (fun () ->
          Script.system ~history ~make_rc Derived.counter scripts)
    in
    Adversary.(
      ignore (run ~record:false (of_rng ~rng (Uniform { crash_prob = 0.1; max_crashes = 4 })) t));
    Alcotest.(check bool) "all ops completed" true (Sim.all_finished t);
    if not (lin_ok history) then Alcotest.fail "non-linearizable with Figure 2 RC instances"
  done

(* Figure 7 counter [scripts] (E13's workload is one Incr per process,
   [incrs n]), linearizability checked once every run has finished.
   The history decides the verdict, so it registers with the heap arena
   first: dedup must not merge states whose histories differ. *)
let counter_mk ?(policy = Persist.Eager) scripts () =
  Persist.scoped policy (fun () ->
      let history = Rcons_history.History.create () in
      Heap.register (fun () ->
          Rcons_spec.Object_type.digest (Rcons_history.History.events history));
      let _, _, sim = Script.system ~history Derived.counter scripts in
      ( sim,
        fun () ->
          if Sim.all_finished sim && not (lin_ok history) then Explore.fail "not linearizable" ))

let incrs n = Array.make n [| Derived.Incr |]

(* One Incr and one Get with one crash, checked completely: dedup + por
   walks the whole reduced state graph.  The history slot is not
   cacheable (it re-digests at every snapshot), so this also puts the
   state digest on a Figure 7 workload with a slot that never serves
   from cache. *)
let test_linearizable_exhaustive_small () =
  match
    Explore.explore ~max_crashes:1 ~dedup:true ~por:true
      ~mk:(counter_mk [| [| Derived.Incr |]; [| Derived.Get |] |])
      ()
  with
  | exception Explore.Violation v -> Alcotest.failf "violation: %s" v.Explore.v_msg
  | s ->
      Alcotest.(check (list int))
        "nodes, schedules, states, por-pruned, dedup hits"
        [ 144443; 125; 79468; 74796; 36598 ]
        [ s.Explore.nodes; s.schedules; s.distinct_states; s.por_pruned; s.dedup_hits ]

(* Every cell holds plain data, so Figure 7 explores under dedup.  The
   counts are E13's RUniversal rows (EXPERIMENTS.md). *)
let test_dedup_stats_pinned ~por expected () =
  List.iter
    (fun (crashes, (nodes, schedules, states, pruned)) ->
      let s = Explore.explore ~max_crashes:crashes ~dedup:true ~por ~mk:(counter_mk (incrs 2)) () in
      Alcotest.(check (list int))
        (Printf.sprintf "%d crash(es): nodes, schedules, states, por-pruned" crashes)
        [ nodes; schedules; states; pruned ]
        [ s.Explore.nodes; s.schedules; s.distinct_states; s.por_pruned ])
    expected

(* Without barriers, a lossy crash can revert the state that a node's
   durable seq certifies.  Dedup + por finds that exhaustively, and the
   schedule replays to the same failure. *)
let test_lossy_barrier_free_violation () =
  let mk = counter_mk ~policy:Persist.Lossy (incrs 2) in
  match Explore.explore ~max_crashes:1 ~dedup:true ~por:true ~mk () with
  | _ -> Alcotest.fail "barrier-free Figure 7 under lossy: no violation found"
  | exception Explore.Violation v ->
      Alcotest.(check string) "message"
        "uncaught exception in process body: RUniversal: predecessor state missing" v.Explore.v_msg;
      Alcotest.(check int) "schedule length" 69 (List.length v.v_schedule);
      let sim, _ = mk () in
      let replayed =
        List.find_map
          (fun c -> match Schedule.apply_guarded sim c with Ok () -> None | Error m -> Some m)
          v.v_schedule
      in
      Alcotest.(check (option string)) "replays to the same failure" (Some v.v_msg) replayed

let test_linearization_matches_history_count () =
  let history = Rcons_history.History.create () in
  let scripts = [| [| Derived.Incr; Derived.Get |]; [| Derived.Incr |] |] in
  let u, _, t = Script.system ~history Derived.counter scripts in
  Adversary.round_robin t;
  let ops = Rcons_history.History.operations history in
  Alcotest.(check int) "history ops = applied ops" (Runiversal.applied_count u) (List.length ops);
  Alcotest.(check bool) "all completed" true
    (List.for_all (fun (o : _ Rcons_history.History.operation) -> o.resp <> None) ops)

let test_simultaneous_crashes_universal () =
  (* the universal construction also survives the simultaneous-crash model *)
  let history = Rcons_history.History.create () in
  let scripts = Array.init 3 (fun _ -> [| Derived.Incr; Derived.Get |]) in
  let _, _, t = Script.system ~history Derived.counter scripts in
  Adversary.(ignore (run ~record:false (create (Simultaneous { crash_at = [ 4; 15 ] })) t));
  Alcotest.(check bool) "linearizable after crash_all" true (lin_ok history)

(* The windowed checker's peek: after any prefix of a crashy random run,
   and after the run, [current_state] is the state of the last node of
   the linearization (the init before anything is appended).  A stack
   makes the state name the order of every push, not just a count. *)
let test_current_state_is_last_node () =
  let rng = Random.State.make [| 26 |] in
  let last_state u =
    match List.rev (Runiversal.linearization u) with
    | [] -> []
    | nd :: _ -> Option.get (Cell.peek nd.Runiversal.new_state)
  in
  for _ = 1 to 40 do
    let n = 3 in
    let scripts =
      Array.init n (fun pid ->
          Array.init 4 (fun k -> if k = 2 then Derived.Pop else Derived.Push ((10 * pid) + k)))
    in
    let u, _, t = Script.system (Derived.stack ()) scripts in
    Alcotest.(check (list int)) "init before any append" [] (Runiversal.current_state u);
    for _ = 1 to Random.State.int rng 400 do
      let pid = Random.State.int rng n in
      if not (Sim.finished t pid) then
        if Sim.started t pid && Random.State.float rng 1.0 < 0.05 then Sim.crash t pid
        else ignore (Sim.step_proc t pid)
    done;
    Alcotest.(check (list int)) "mid-run" (last_state u) (Runiversal.current_state u);
    Adversary.(
      ignore (run ~record:false (of_rng ~rng (Uniform { crash_prob = 0.05; max_crashes = 4 })) t));
    Alcotest.(check int) "all ops applied" 12 (Runiversal.applied_count u);
    Alcotest.(check (list int)) "after the run" (last_state u) (Runiversal.current_state u)
  done

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
    Alcotest.test_case "Figure 2 RC instances end-to-end" `Quick
      (test_figure2_rc_instances ~runs:50);
    Alcotest.test_case "Figure 2 RC instances with barriers" `Quick
      (test_figure2_rc_instances ~barriers:true ~runs:20);
    Alcotest.test_case "dedup stats pinned (n = 2, 0 and 1 crash)" `Slow
      (test_dedup_stats_pinned ~por:false
         [ (0, (9830, 30, 5278, 0)); (1, (694026, 1400, 364040, 0)) ]);
    Alcotest.test_case "dedup + por stats pinned (n = 2, 0 and 1 crash)" `Quick
      (test_dedup_stats_pinned ~por:true
         [ (0, (7024, 15, 5001, 4295)); (1, (144443, 125, 79468, 74796)) ]);
    Alcotest.test_case "barrier-free lossy violation found and replayed" `Quick
      test_lossy_barrier_free_violation;
    Alcotest.test_case "linearization matches history" `Quick test_linearization_matches_history_count;
    Alcotest.test_case "simultaneous crashes" `Quick test_simultaneous_crashes_universal;
    Alcotest.test_case "current_state is the last node's state" `Quick
      test_current_state_is_last_node;
  ]
