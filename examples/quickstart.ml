(* Quickstart: the core workflow of the library in ~60 lines.

     dune exec examples/quickstart.exe

   1. Pick a shared object type and ask where it sits in the hierarchies.
   2. Derive a recoverable-consensus algorithm from its recording witness.
   3. Run it on the simulated crash-recovery system under an adversary
      that crashes processes at random, and check agreement/validity. *)

let () =
  (* 1. Classify a type: the sticky bit solves everything... *)
  let sticky = Rcons.Spec.Sticky_bit.t in
  Format.printf "%a@." Rcons.Check.Classify.pp_report (Rcons.classify ~limit:5 sticky);
  (* ...while the paper's stack (Appendix H) does not even solve
     2-process recoverable consensus: *)
  let stack_report = Rcons.Valency.Impossibility.analyse_stack () in
  Format.printf "%a@.@." Rcons.Valency.Impossibility.summary stack_report;

  (* 2. Five processes agree through crashes using sticky bits. *)
  let n = 5 in
  let decide =
    match Rcons.solve_rc sticky ~n with
    | Some decide -> decide
    | None -> failwith "sticky bit must be n-recording"
  in

  (* 3. Simulate: each process proposes 100 + its id, crashes may hit
     anyone at any step; every process restarts its code from scratch
     when it recovers (local memory is volatile, shared memory is not). *)
  let sim, outputs =
    Rcons.Algo.Outputs.system ~inputs:(Array.init n (fun i -> 100 + i)) (fun () -> decide)
  in
  let rng = Random.State.make [| 2022 |] in
  let crashes =
    Rcons.Runtime.Adversary.(
      (run ~record:false (of_rng ~rng (Uniform { crash_prob = 0.25; max_crashes = 12 })) sim)
        .crashes)
  in

  Format.printf "ran %d processes with %d crashes injected@." n crashes;
  Array.iteri
    (fun pid outs ->
      Format.printf "  p%d decided %s (crashed %d times)@." pid
        (String.concat ", " (List.map string_of_int outs))
        (Rcons.Runtime.Sim.crash_count sim pid))
    outputs.Rcons.Algo.Outputs.outputs;
  assert (Rcons.Algo.Outputs.agreement_ok outputs);
  assert (Rcons.Algo.Outputs.validity_ok outputs);
  Format.printf "agreement and validity hold.@."
