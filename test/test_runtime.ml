(* Tests of the simulated crash-recovery runtime: the effect-handler
   process machinery, the non-volatile cells and objects, the schedule
   drivers and the bounded exhaustive explorer. *)

open Rcons_runtime

(* --- basic stepping --- *)

let test_step_granularity () =
  (* a body with k shared accesses takes k+1 scheduler steps (the +1 runs
     the final local code to completion) at most; count precisely *)
  let log = ref [] in
  let body _pid () =
    let c = Cell.make 0 in
    Cell.write c 1;
    log := `W :: !log;
    let v = Cell.read c in
    log := `R v :: !log
  in
  let t = Sim.create ~n:1 body in
  Alcotest.(check bool) "not finished initially" false (Sim.finished t 0);
  let steps = ref 0 in
  while not (Sim.finished t 0) do
    ignore (Sim.step_proc t 0);
    incr steps
  done;
  Alcotest.(check int) "two shared accesses + final return" 3 !steps;
  Alcotest.(check bool) "performed in order" true (!log = [ `R 1; `W ])

let test_step_finished_raises () =
  let t = Sim.create ~n:1 (fun _ () -> ()) in
  ignore (Sim.step_proc t 0);
  Alcotest.(check bool) "finished" true (Sim.finished t 0);
  (match Sim.step_proc t 0 with
  | _ -> Alcotest.fail "stepping a finished process should raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the pid" true (String.starts_with ~prefix:"Sim.step_proc" msg));
  (* out-of-range pids are rejected up front, on every entry point *)
  (match Sim.step_proc t 5 with
  | _ -> Alcotest.fail "out-of-range pid should raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the range" true (String.starts_with ~prefix:"Sim.step_proc" msg));
  (match Sim.crash t (-1) with
  | _ -> Alcotest.fail "out-of-range crash should raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the entry point" true (String.starts_with ~prefix:"Sim.crash" msg));
  (* an abandoned simulation refuses everything, idempotently *)
  Sim.abandon t;
  Sim.abandon t;
  (match Sim.step_proc t 0 with
  | _ -> Alcotest.fail "stepping an abandoned simulation should raise"
  | exception Invalid_argument _ -> ())

(* --- crash semantics --- *)

let test_crash_loses_local_state () =
  (* local (volatile) progress is lost; the body restarts from scratch *)
  let shared = Cell.make 0 in
  let runs = ref 0 in
  let body _pid () =
    incr runs;
    let v = Cell.read shared in
    Cell.write shared (v + 1)
  in
  let t = Sim.create ~n:1 body in
  ignore (Sim.step_proc t 0);
  (* p0 has read 0 and is poised to write 1 *)
  Sim.crash t 0;
  ignore (Sim.step_proc t 0);
  (* restarted: reads again *)
  ignore (Sim.step_proc t 0);
  ignore (Sim.step_proc t 0);
  Alcotest.(check int) "body entered twice" 2 !runs;
  Alcotest.(check int) "one increment took effect" 1 (Cell.peek shared)

let test_crash_preserves_shared_memory () =
  let shared = Cell.make 0 in
  let body _pid () = Cell.write shared 42 in
  let t = Sim.create ~n:1 body in
  ignore (Sim.step_proc t 0);
  ignore (Sim.step_proc t 0);
  Alcotest.(check int) "written" 42 (Cell.peek shared);
  Sim.crash t 0;
  Alcotest.(check int) "crash does not touch shared memory" 42 (Cell.peek shared)

let test_crash_counts () =
  let t = Sim.create ~n:2 (fun _pid () -> ()) in
  Sim.crash t 0;
  Sim.crash t 0;
  Sim.crash t 1;
  Alcotest.(check int) "p0 crashed twice" 2 (Sim.crash_count t 0);
  Alcotest.(check int) "p1 crashed once" 1 (Sim.crash_count t 1)

let test_crash_after_finish_restarts () =
  let count = ref 0 in
  let body _pid () =
    incr count;
    Cell.write (Cell.make 0) 1
  in
  let t = Sim.create ~n:1 body in
  Adversary.round_robin t;
  Alcotest.(check int) "ran once" 1 !count;
  Sim.crash t 0;
  Alcotest.(check bool) "restartable after finish" false (Sim.finished t 0);
  Adversary.round_robin t;
  Alcotest.(check int) "ran twice" 2 !count

let test_crash_all () =
  let entered = ref 0 in
  let body _pid () =
    incr entered;
    Cell.write (Cell.make 0) 0
  in
  let t = Sim.create ~n:3 body in
  for i = 0 to 2 do
    ignore (Sim.step_proc t i)
  done;
  Sim.crash_all t;
  Adversary.round_robin t;
  Alcotest.(check int) "each process entered twice" 6 !entered

(* --- determinism (required by the explorer's replay) --- *)

let test_deterministic_replay () =
  let run () =
    let shared = Cell.make [] in
    let body pid () =
      let v = Cell.read shared in
      Cell.write shared (pid :: v)
    in
    let t = Sim.create ~n:2 body in
    ignore (Sim.step_proc t 0);
    ignore (Sim.step_proc t 1);
    Sim.crash t 0;
    ignore (Sim.step_proc t 1);
    ignore (Sim.step_proc t 0);
    ignore (Sim.step_proc t 0);
    ignore (Sim.step_proc t 1);
    ignore (Sim.step_proc t 0);
    Cell.peek shared
  in
  Alcotest.(check (list int)) "same schedule, same result" (run ()) (run ())

(* --- cells, objects, growable arrays --- *)

let test_sim_obj () =
  match Rcons_spec.Sticky_bit.t with
  | Rcons_spec.Object_type.Pack (module T) ->
      let o = Sim_obj.make (module T) (List.hd T.candidate_initial_states) in
      let results = ref [] in
      let body _pid () =
        let r = Sim_obj.apply o (List.hd T.update_ops) in
        let q = Sim_obj.read o in
        results := (r, q) :: !results
      in
      let t = Sim.create ~n:1 body in
      Adversary.round_robin t;
      Alcotest.(check int) "one result" 1 (List.length !results);
      Alcotest.(check bool) "state changed" true
        (T.compare_state (Sim_obj.peek o) (List.hd T.candidate_initial_states) <> 0)

let test_growable () =
  let g = Growable.make (fun i -> i * 10) in
  let seen = ref (-1) in
  let body _pid () =
    Growable.write g 3 99;
    seen := Growable.read g 7
  in
  let t = Sim.create ~n:1 body in
  Adversary.round_robin t;
  Alcotest.(check int) "default generator" 70 !seen;
  Alcotest.(check int) "write visible" 99 (Growable.peek g 3);
  Alcotest.(check int) "untouched default" 70 (Growable.peek g 7)

(* --- drivers --- *)

let test_round_robin_terminates () =
  let done_count = ref 0 in
  let body _pid () =
    for _ = 1 to 5 do
      Cell.write (Cell.make 0) 0
    done;
    incr done_count
  in
  let t = Sim.create ~n:4 body in
  Adversary.round_robin t;
  Alcotest.(check int) "all finished" 4 !done_count

let test_round_robin_budget () =
  let body _pid () =
    let c = Cell.make 0 in
    while Cell.read c = 0 do
      Cell.write c 0
    done
  in
  let t = Sim.create ~n:1 body in
  Alcotest.check_raises "budget" (Adversary.Stuck "simultaneous: step budget exhausted")
    (fun () -> Adversary.round_robin ~max_steps:100 t)

let test_random_driver_crashes_bounded () =
  let body _pid () = Cell.write (Cell.make 0) 0 in
  let t = Sim.create ~n:3 body in
  let rng = Random.State.make [| 1 |] in
  let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob = 0.9; max_crashes = 5 }) in
  let crashes = (Adversary.run ~record:false adv t).Adversary.crashes in
  Alcotest.(check bool) "bounded crashes" true (crashes <= 5);
  Alcotest.(check bool) "terminated" true (Sim.all_finished t)

let test_simultaneous_driver () =
  let entered = ref 0 in
  let body _pid () =
    incr entered;
    for _ = 1 to 3 do
      Cell.write (Cell.make 0) 0
    done
  in
  let t = Sim.create ~n:2 body in
  Adversary.(ignore (run ~record:false (create (Simultaneous { crash_at = [ 3 ] })) t));
  Alcotest.(check bool) "all finished" true (Sim.all_finished t);
  Alcotest.(check bool) "some process re-entered" true (!entered > 2)

(* --- explorer --- *)

let test_explore_tiny_counts () =
  (* two processes, one shared access each: schedules without crashes are
     the interleavings of (s0a s0b) and (s1a s1b): C(4,2) = 6 *)
  let mk () =
    let body _pid () = Cell.write (Cell.make 0) 1 in
    (Sim.create ~n:2 body, fun () -> ())
  in
  let stats = Explore.explore ~max_crashes:0 ~mk () in
  Alcotest.(check int) "6 interleavings" 6 stats.Explore.schedules

let test_explore_detects_violation () =
  (* a deliberately broken "agreement": two processes race on a register
     and each decides its own write if it reads it back *)
  let mk () =
    let reg = Cell.make (-1) in
    let outs = Array.make 2 (-1) in
    let body pid () =
      Cell.write reg pid;
      outs.(pid) <- Cell.read reg
    in
    let check () =
      if outs.(0) >= 0 && outs.(1) >= 0 && outs.(0) <> outs.(1) then
        Explore.fail "disagreement"
    in
    (Sim.create ~n:2 body, check)
  in
  (match Explore.explore ~max_crashes:0 ~mk () with
  | _ -> Alcotest.fail "expected a violation"
  | exception Explore.Violation { v_msg = msg; v_schedule = schedule; v_provenance } ->
      Alcotest.(check string) "message" "disagreement" msg;
      Alcotest.(check bool) "non-empty schedule" true (schedule <> []);
      Alcotest.(check bool) "provenance attached" true (v_provenance <> None))

let test_explore_crash_pruning () =
  (* crashing an un-started process is pruned, so with one process and one
     crash allowed the tree stays small and finite *)
  let mk () =
    let body _pid () = Cell.write (Cell.make 0) 1 in
    (Sim.create ~n:1 body, fun () -> ())
  in
  let s0 = Explore.explore ~max_crashes:0 ~mk () in
  let s1 = Explore.explore ~max_crashes:1 ~mk () in
  Alcotest.(check int) "one schedule, no crashes" 1 s0.Explore.schedules;
  Alcotest.(check bool) "crashes add schedules" true (s1.Explore.schedules > s0.Explore.schedules)

let test_explore_budget () =
  let mk () =
    let body _pid () =
      for _ = 1 to 2 do
        Cell.write (Cell.make 0) 0
      done
    in
    (Sim.create ~n:2 body, fun () -> ())
  in
  let full = Explore.explore ~max_crashes:2 ~mk () in
  match Explore.explore ~max_crashes:2 ~node_budget:500 ~mk () with
  | _ -> Alcotest.fail "expected the node budget to interrupt"
  | exception Explore.Interrupted cp ->
      (* The checkpoint covers exactly the budgeted region, and resuming
         it reaches the uninterrupted totals. *)
      Alcotest.(check int) "checkpoint nodes" 500 (Explore.checkpoint_stats cp).Explore.nodes;
      let resumed = Explore.explore ~max_crashes:2 ~resume_from:cp ~mk () in
      Alcotest.(check int) "resumed nodes" full.Explore.nodes resumed.Explore.nodes;
      Alcotest.(check bool) "resumed stats" true (full = resumed)

(* --- run_steps: a quantum in one resumption --- *)

(* What a driver can see after a quantum: the steps it reports, how many
   times it evaluated [ok], the step counts, which processes have
   finished, their pending labels and the state digest -- or the
   exception that ended the run. *)
type quantum_obs =
  | Quantum of int * int * int * int list * bool list * string option list * string
  | Raised of string

(* The loop [Sim.run_steps] replaces. *)
let loop_steps sim i ~max ~ok =
  let k = ref 0 in
  while !k < max && (not (Sim.finished sim i)) && ok () do
    ignore (Sim.step_proc sim i);
    incr k
  done;
  !k

(* Forty seeded quanta on a fresh system from [mk], each taken by
   [drive]: a process, a budget of 1-8 steps, and a predicate that
   holds for its first 0-9 evaluations, so it flips mid-quantum.
   Between quanta the seed may crash a process, take a mark, or roll
   back to it (the rolled-back process is rebuilt at its next quantum).
   The system runs under its own heap arena and an installed undo
   journal, so each step journals, logs its value and chains its
   trace. *)
let drive_quanta ~drive mk seed =
  let rng = Random.State.make [| seed |] in
  Helpers.with_undo_arena (fun () ->
      let sim = mk () in
      let n = Sim.num_procs sim in
      let obs = ref [] and mark = ref None in
      (try
         for _ = 1 to 40 do
           (match Random.State.int rng 8 with
           | 0 -> Sim.crash sim (Random.State.int rng n)
           | 1 -> mark := Some (Sim.mark sim)
           | 2 ->
               Option.iter (Sim.rollback sim) !mark;
               mark := None
           | _ -> ());
           let i = Random.State.int rng n in
           let max = 1 + Random.State.int rng 8 and flip = Random.State.int rng 10 in
           let calls = ref 0 in
           let k =
             drive sim i ~max ~ok:(fun () ->
                 incr calls;
                 !calls <= flip)
           in
           obs :=
             Quantum
               ( k,
                 !calls,
                 Sim.total_steps sim,
                 List.init n (Sim.step_count sim),
                 List.init n (Sim.finished sim),
                 List.init n (Sim.pending_label sim),
                 Sim.fingerprint_digest sim )
             :: !obs
         done
       with e -> obs := Raised (Printexc.to_string e) :: !obs);
      Sim.abandon sim;
      List.rev !obs)

let quantum_systems =
  let cert = lazy (Helpers.cert_of Rcons_spec.Sticky_bit.t 2) in
  let fig7 policy () =
    Persist.scoped ~barriers:true policy (fun () ->
        let open Rcons_universal in
        let scripts =
          Derived.[| [| Incr; Get; Incr |]; [| Incr; Incr |]; [| Get; Incr |] |]
        in
        let _, _, sim = Script.system Derived.counter scripts in
        sim)
  in
  [
    ("Figure 7 counter, barriers, lossy", fig7 Persist.Lossy);
    ("Figure 7 counter, barriers, torn", fig7 Persist.Torn);
    ( "log generation, barriers, lossy",
      fun () ->
        Persist.scoped ~barriers:true Persist.Lossy (fun () ->
            snd (Rcons_log.Rlog.instance ~slots:2 (Lazy.force cert))) );
    ( "Figure 2 team system",
      fun () -> fst (Rcons_algo.Team_consensus.system ~inputs:(111, 222) (Lazy.force cert)) );
  ]

let qcheck_run_steps_is_the_loop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"run_steps = the step_proc loop"
       ~print:string_of_int
       QCheck2.Gen.(int_bound 1_000_000)
       (fun seed ->
         List.for_all
           (fun (name, mk) ->
             drive_quanta ~drive:Sim.run_steps mk seed = drive_quanta ~drive:loop_steps mk seed
             || QCheck2.Test.fail_reportf "%s diverges" name)
           quantum_systems))

(* A step thunk that raises ends the run under either driver: the body
   is unwound (its [finally] runs once) without observing the
   exception, which reaches the driver's caller. *)
let test_thunk_failure_unwinds () =
  let run name drive =
    let unwinds = ref 0 and caught = ref 0 in
    let sim =
      Sim.create ~n:1 (fun _ () ->
          Fun.protect
            ~finally:(fun () -> incr unwinds)
            (fun () ->
              ignore (Sim.step (fun () -> 1));
              (try ignore (Sim.step (fun () -> (failwith "boom" : int)))
               with Failure _ -> incr caught);
              ignore (Sim.step (fun () -> 2))))
    in
    (match drive sim with
    | () -> Alcotest.fail (name ^ ": the thunk's exception was lost")
    | exception Failure m -> Alcotest.(check string) (name ^ ": re-raised") "boom" m);
    Alcotest.(check int) (name ^ ": unwound once") 1 !unwinds;
    Alcotest.(check int) (name ^ ": body caught nothing") 0 !caught;
    Alcotest.(check int) (name ^ ": steps") 3 (Sim.step_count sim 0);
    Alcotest.(check bool) (name ^ ": run over") true (Sim.finished sim 0)
  in
  run "step_proc" (fun sim ->
      while not (Sim.finished sim 0) do
        ignore (Sim.step_proc sim 0)
      done);
  run "run_steps" (fun sim -> ignore (Sim.run_steps sim 0 ~max:8 ~ok:(fun () -> true)))

let suite =
  [
    Alcotest.test_case "step granularity" `Quick test_step_granularity;
    Alcotest.test_case "stepping a finished process" `Quick test_step_finished_raises;
    Alcotest.test_case "crash loses local state" `Quick test_crash_loses_local_state;
    Alcotest.test_case "crash preserves shared memory" `Quick test_crash_preserves_shared_memory;
    Alcotest.test_case "crash counters" `Quick test_crash_counts;
    Alcotest.test_case "crash after finish restarts" `Quick test_crash_after_finish_restarts;
    Alcotest.test_case "crash_all (simultaneous model)" `Quick test_crash_all;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "simulated objects" `Quick test_sim_obj;
    Alcotest.test_case "growable arrays" `Quick test_growable;
    Alcotest.test_case "round robin terminates" `Quick test_round_robin_terminates;
    Alcotest.test_case "round robin budget" `Quick test_round_robin_budget;
    Alcotest.test_case "random driver bounds crashes" `Quick test_random_driver_crashes_bounded;
    Alcotest.test_case "simultaneous driver" `Quick test_simultaneous_driver;
    Alcotest.test_case "explorer: tiny interleaving count" `Quick test_explore_tiny_counts;
    Alcotest.test_case "explorer: detects violations" `Quick test_explore_detects_violation;
    Alcotest.test_case "explorer: crash pruning" `Quick test_explore_crash_pruning;
    Alcotest.test_case "explorer: node budget" `Quick test_explore_budget;
    qcheck_run_steps_is_the_loop;
    Alcotest.test_case "a raising step thunk unwinds its body" `Quick test_thunk_failure_unwinds;
  ]
