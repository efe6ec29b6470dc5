(* Section 5's transformation, in action: "any concurrent algorithm from
   read/write and CAS objects can become recoverable by replacing its CAS
   objects with their recoverable implementation".

     dune exec examples/cas_transform.exe

   The algorithm: a classic lock-free counter, incremented with a
   read-CAS retry loop.  Run twice:

   - on a plain atomic CAS object, with crash injection: a process that
     crashes after a successful CAS re-runs its loop and increments
     AGAIN -- the count drifts above the number of logical increments;
   - on the recoverable CAS: re-entering an attempt returns the recorded
     outcome instead of re-executing, so every logical increment takes
     effect exactly once, crashes notwithstanding. *)

open Rcons.Runtime

let n = 3
let increments_per_process = 5

(* --- the naive version: plain CAS, oblivious to recovery --- *)

let run_plain ~rng ~crash_prob =
  let c = Cell.make 0 in
  let progress = Array.init n (fun _ -> Cell.make 0) in
  let body pid () =
    let k = ref (Cell.read progress.(pid)) in
    while !k < increments_per_process do
      (* lock-free increment: read, then CAS *)
      let fine = ref false in
      while not !fine do
        let v = Cell.read c in
        fine := Sim.step (fun () -> if Cell.peek c = v then (Cell.poke c (v + 1); true) else false)
      done;
      Cell.write progress.(pid) (!k + 1);
      k := Cell.read progress.(pid)
    done
  in
  let sim = Sim.create ~n body in
  Adversary.(
    ignore (run ~record:false (of_rng ~rng (Uniform { crash_prob; max_crashes = 12 })) sim));
  Cell.peek c

(* --- the transformed version: recoverable CAS --- *)

let run_recoverable ~rng ~crash_prob =
  let rcas = Rcons.Algo.Recoverable_cas.create ~n 0 in
  let progress = Array.init n (fun _ -> Cell.make 0) in
  (* each retry needs a fresh attempt number that survives crashes; the
     pending attempt is keyed by the increment index so that a crash
     between "increment done" and "pending slot cleared" cannot confuse
     two logical increments *)
  let attempt_counter = Array.init n (fun _ -> Cell.make 0) in
  let pending = Array.init n (fun _ -> Cell.make (-1, -1)) in
  let body pid () =
    let k = ref (Cell.read progress.(pid)) in
    while !k < increments_per_process do
      let fine = ref false in
      while not !fine do
        let stored_k, stored_a = Cell.read pending.(pid) in
        let a =
          if stored_k = !k && stored_a >= 0 then stored_a
          else begin
            let a = Cell.read attempt_counter.(pid) + 1 in
            Cell.write attempt_counter.(pid) a;
            Cell.write pending.(pid) (!k, a);
            a
          end
        in
        let outcome =
          match Rcons.Algo.Recoverable_cas.recover rcas pid ~attempt:a with
          | Rcons.Algo.Recoverable_cas.Succeeded -> true
          | Rcons.Algo.Recoverable_cas.Failed -> false
          | Rcons.Algo.Recoverable_cas.Unresolved ->
              let v = Rcons.Algo.Recoverable_cas.read_value rcas in
              Rcons.Algo.Recoverable_cas.cas rcas pid ~attempt:a ~expected:v ~desired:(v + 1)
        in
        if outcome then Cell.write progress.(pid) (!k + 1)
        else Cell.write pending.(pid) (!k, -1);
        fine := outcome
      done;
      k := Cell.read progress.(pid)
    done
  in
  let sim = Sim.create ~n body in
  Adversary.(
    ignore (run ~record:false (of_rng ~rng (Uniform { crash_prob; max_crashes = 12 })) sim));
  (* read the final value out of simulation *)
  let v = ref 0 in
  let observer = Sim.create ~n:1 (fun _ () -> v := Rcons.Algo.Recoverable_cas.read_value rcas) in
  Adversary.round_robin observer;
  !v

let () =
  let expected = n * increments_per_process in
  Format.printf "%d processes x %d increments = %d expected@.@." n increments_per_process expected;
  Format.printf "%-12s %-28s %s@." "crash rate" "plain CAS (avg count)" "recoverable CAS (avg count)";
  Format.printf "%s@." (String.make 66 '-');
  List.iter
    (fun crash_prob ->
      let iters = 300 in
      let total_plain = ref 0 and total_rec = ref 0 and drift = ref 0 in
      let rng = Random.State.make [| 11 |] in
      for _ = 1 to iters do
        let p = run_plain ~rng ~crash_prob in
        let r = run_recoverable ~rng ~crash_prob in
        total_plain := !total_plain + p;
        total_rec := !total_rec + r;
        if p <> expected then incr drift
      done;
      Format.printf "%-12.2f %6.2f (drifted in %d/%d runs) %14.2f@." crash_prob
        (float_of_int !total_plain /. float_of_int iters)
        !drift iters
        (float_of_int !total_rec /. float_of_int iters))
    [ 0.0; 0.1; 0.3 ];
  Format.printf
    "@.The recoverable version lands on exactly %d every time: each attempt's outcome@." expected;
  Format.printf "is recorded, so a recovered process never re-applies a successful CAS.@."
