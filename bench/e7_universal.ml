(* E7 -- Figure 7 / Section 4: the recoverable universal construction.

   Series 1: throughput (simulator steps per completed operation) of a
   RUniversal counter as the process count and crash rate grow, with the
   recorded history checked for linearizability on every run.

   Series 2 (ablation): the default atomic one-shot RC instances vs RC
   instances built from the Figure 2 + tournament algorithm over the
   sticky bit's certificate -- the full paper pipeline, at the cost of
   more steps per next-pointer decision. *)

open Rcons.Runtime
open Rcons.Universal

let run_workload ~n ~ops_per_proc ~crash_prob ~make_rc ~seed =
  let history = Rcons.History.History.create () in
  let scripts =
    Array.init n (fun pid ->
        Array.init ops_per_proc (fun k ->
            if (pid + k) mod 3 = 0 then Derived.Get else Derived.Incr))
  in
  let u, _, sim = Script.system ~history ?make_rc Derived.counter scripts in
  let adv =
    Adversary.create ~seed:(Util.seed seed)
      (Adversary.Uniform { crash_prob; max_crashes = 3 * n })
  in
  let crashes = (Adversary.run ~record:false adv sim).Adversary.crashes in
  let lin =
    Rcons.History.Linearizability.check_history (Derived.lin_spec Derived.counter) history
  in
  (Sim.total_steps sim, crashes, lin, Runiversal.applied_count u)

let series name make_rc =
  Util.row "@.[%s]@." name;
  Util.row "%-6s %-12s %-12s %-16s %-14s %s@." "n" "crash-rate" "avg-steps" "steps/operation"
    "avg-crashes" "linearizable";
  List.iter
    (fun n ->
      List.iter
        (fun crash_prob ->
          let iters = 60 in
          let ops_per_proc = 4 in
          let steps = ref 0 and crashes = ref 0 and lin_ok = ref 0 and applied = ref 0 in
          for seed = 1 to iters do
            let s, c, lin, a = run_workload ~n ~ops_per_proc ~crash_prob ~make_rc ~seed in
            steps := !steps + s;
            crashes := !crashes + c;
            applied := !applied + a;
            if lin then incr lin_ok
          done;
          Util.row "%-6d %-12.2f %-12.1f %-16.1f %-14.2f %d/%d@." n crash_prob
            (float_of_int !steps /. float_of_int iters)
            (float_of_int !steps /. float_of_int !applied)
            (float_of_int !crashes /. float_of_int iters)
            !lin_ok iters)
        [ 0.0; 0.1; 0.25 ])
    [ 2; 4; 6 ]

let figure2_rc () =
  let cert = Option.get (Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 8) in
  fun () ->
    (* one tournament instance per node; capacities cover up to 8 pids *)
    let decide = Rcons.Algo.Tournament.recoverable_consensus cert ~n:8 in
    { Runiversal.propose = (fun pid v -> decide pid v) }

(* Section 4's condition gap, measured: how often do crash-recovery
   histories satisfy recoverable but NOT strict linearizability?  The
   paper: without volatile shared memory only the weaker condition is
   guaranteed -- and indeed the construction regularly produces
   non-strict histories once crashes occur. *)
let strictness_series () =
  Util.row "@.[strict vs recoverable linearizability (Section 4), n = 2]@.";
  Util.row "%-12s %-14s %-22s %s@." "crash-rate" "recoverable" "strict" "recoverable-only";
  let spec = Derived.lin_spec Derived.counter in
  List.iter
    (fun crash_prob ->
      let iters = 300 in
      let rec_ok = ref 0 and strict_ok = ref 0 in
      let rng = Random.State.make [| Util.seed 19 |] in
      for _ = 1 to iters do
        let history = Rcons.History.History.create () in
        let scripts = [| [| Derived.Incr; Derived.Incr |]; [| Derived.Incr; Derived.Get |] |] in
        let _, _, sim = Script.system ~history Derived.counter scripts in
        (* the [on_crash] hook lands crashes in the history too *)
        let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob; max_crashes = 6 }) in
        ignore
          (Adversary.run ~record:false
             ~on_crash:(fun pid -> Rcons.History.History.crash history ~pid)
             adv sim);
        let v = Rcons.History.Conditions.classify spec history in
        if v.Rcons.History.Conditions.recoverable then incr rec_ok;
        if v.Rcons.History.Conditions.strict then incr strict_ok
      done;
      Util.row "%-12.2f %4d/%-9d %4d/%-17d %d@." crash_prob !rec_ok iters !strict_ok iters
        (!rec_ok - !strict_ok))
    [ 0.0; 0.1; 0.25 ]

let run () =
  Util.section "E7 (Figure 7): recoverable universal construction";
  series "atomic one-shot RC instances (default)" None;
  series "Figure 2 + tournament RC instances (sticky-bit certificate)" (Some (figure2_rc ()));
  strictness_series ()
