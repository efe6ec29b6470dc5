(* Systematic failure injection, complementary to the exhaustive
   explorer: under a fixed round-robin schedule, crash one specific
   process at one specific global step (every combination in turn), and
   also inject double crashes at all position pairs with a stride.  Much
   cheaper than full exploration, covers every single-crash position of
   the deterministic schedule exactly once. *)

open Rcons_runtime

let run_with_crashes ~mk ~crashes =
  let sim, check = mk () in
  let remaining = ref crashes in
  let budget = ref 100_000 in
  (* A busted budget with no context is undebuggable: name the injected
     crash schedule and where every process was stuck when we gave up. *)
  let exhausted () =
    let n = Sim.num_procs sim in
    let schedule =
      crashes |> List.map (fun (at, victim) -> Printf.sprintf "p%d@%d" victim at)
      |> String.concat " "
    in
    let per_proc =
      List.init n (fun i ->
          Printf.sprintf "p%d:%d steps%s" i (Sim.step_count sim i)
            (if Sim.finished sim i then " (finished)" else ""))
      |> String.concat ", "
    in
    Alcotest.fail
      (Printf.sprintf
         "injection: step budget exhausted after %d total steps; injected crashes [%s]; %s"
         (Sim.total_steps sim) schedule per_proc)
  in
  while not (Sim.all_finished sim) do
    (match !remaining with
    | (at, victim) :: rest when Sim.total_steps sim >= at ->
        remaining := rest;
        Sim.crash sim victim
    | _ -> ());
    (* round-robin over unfinished processes *)
    let n = Sim.num_procs sim in
    let stepped = ref false in
    for i = 0 to n - 1 do
      if (not !stepped) && not (Sim.finished sim i) then begin
        decr budget;
        if !budget <= 0 then exhausted ();
        ignore (Sim.step_proc sim i);
        stepped := true
      end
    done
  done;
  check ()

let baseline_steps ~mk =
  let sim, _ = mk () in
  Adversary.round_robin sim;
  Sim.total_steps sim

let fig2_system () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 3) 3 in
  let sys = Helpers.team_system cert () in
  (sys.Helpers.sim, sys.Helpers.check)

let test_single_crash_every_position () =
  let total = baseline_steps ~mk:fig2_system in
  for at = 1 to total do
    for victim = 0 to 2 do
      run_with_crashes ~mk:fig2_system ~crashes:[ (at, victim) ]
    done
  done

let test_double_crashes_strided () =
  let total = baseline_steps ~mk:fig2_system in
  let positions = List.init total (fun i -> i + 1) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if b > a && (a + b) mod 3 = 0 then
            for v1 = 0 to 2 do
              run_with_crashes ~mk:fig2_system
                ~crashes:[ (a, v1); (b, (v1 + 1) mod 3) ]
            done)
        positions)
    positions

let universal_system () =
  let history = Rcons_history.History.create () in
  let u = Rcons_universal.Runiversal.create ~history ~n:2 Rcons_universal.Derived.counter in
  let runner = Rcons_universal.Script.create u ~n:2 ~max_ops:2 in
  let scripts =
    [|
      [| Rcons_universal.Derived.Incr; Rcons_universal.Derived.Get |];
      [| Rcons_universal.Derived.Incr |];
    |]
  in
  let sim = Sim.create ~n:2 (fun pid () -> Rcons_universal.Script.run runner pid scripts.(pid)) in
  let check () =
    if Sim.all_finished sim then begin
      if
        not
          (Rcons_history.Linearizability.check_history
             (Rcons_universal.Derived.lin_spec Rcons_universal.Derived.counter)
             history)
      then Alcotest.fail "universal: not linearizable after injected crash"
    end
  in
  (sim, check)

let test_universal_single_crash_every_position () =
  let total = baseline_steps ~mk:universal_system in
  for at = 1 to total do
    for victim = 0 to 1 do
      run_with_crashes ~mk:universal_system ~crashes:[ (at, victim) ]
    done
  done

let test_simultaneous_every_position () =
  (* Figure 4 under a crash_all at every possible step of the crash-free
     schedule *)
  let mk () =
    let n = 3 in
    let inputs = [| 1; 2; 3 |] in
    let outputs = Rcons_algo.Outputs.make ~inputs in
    let make_consensus () =
      let c = Rcons_algo.One_shot.create () in
      { Rcons_algo.Simultaneous_rc.propose = (fun _ v -> Rcons_algo.One_shot.decide c v) }
    in
    let rc = Rcons_algo.Simultaneous_rc.create ~n ~make_consensus in
    let body pid () =
      Rcons_algo.Outputs.record outputs pid
        (Rcons_algo.Simultaneous_rc.decide rc pid inputs.(pid))
    in
    (Sim.create ~n body, fun () -> Rcons_algo.Outputs.check_exn ~fail:Explore.fail outputs)
  in
  let total =
    let sim, _ = mk () in
    Adversary.round_robin sim;
    Sim.total_steps sim
  in
  for at = 1 to total do
    let sim, check = mk () in
    Adversary.(ignore (run ~record:false (create (Simultaneous { crash_at = [ at ] })) sim));
    check ()
  done

let suite =
  [
    Alcotest.test_case "Fig 2: single crash at every position" `Quick
      test_single_crash_every_position;
    Alcotest.test_case "Fig 2: strided double crashes" `Quick test_double_crashes_strided;
    Alcotest.test_case "universal: single crash at every position" `Quick
      test_universal_single_crash_every_position;
    Alcotest.test_case "Fig 4: crash_all at every position" `Quick
      test_simultaneous_every_position;
  ]
