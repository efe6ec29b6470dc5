(* Shared harness code for the algorithm tests: adapt the library's
   system builders to the test drivers, drive systems with the various
   adversaries, and check the RC properties (agreement, validity, and --
   via bounded step budgets -- recoverable wait-freedom).

   Nothing here builds a system: Figure 2 comes from
   [Team_consensus.system], every other consensus system from
   [Outputs.system], and Figure 7 from [Script.system].  The functions
   below only pick the inputs and wrap a built system with its
   checker. *)

open Rcons_runtime
open Rcons_check

(* A consensus system under test: fresh shared state plus an invariant
   checker suitable for both the random drivers and the explorer. *)
type 'v system = { sim : Sim.t; outputs : 'v Rcons_algo.Outputs.t; check : unit -> unit }

let check_now outputs () = Rcons_algo.Outputs.check_exn ~fail:Explore.fail outputs
let of_built (sim, outputs) = { sim; outputs; check = check_now outputs }

(* Run [f] under a fresh heap arena and an installed undo journal, as
   the explorer's rollback strategy does; both are put back however [f]
   exits. *)
let with_undo_arena f =
  let saved = Heap.current () in
  Heap.activate (Heap.create ());
  Fun.protect
    ~finally:(fun () -> match saved with Some a -> Heap.activate a | None -> Heap.deactivate ())
    (fun () ->
      Undo.install ();
      Fun.protect ~finally:Undo.uninstall f)

(* A built system as an explorer [mk] result. *)
let explorer (sim, outputs) = (sim, check_now outputs)

(* Full (tournament-lifted) recoverable consensus from a recording
   certificate, with distinct inputs 10, 20, 30, ... *)
let rc_system cert ~n () =
  of_built
    (Rcons_algo.Outputs.system ~inputs:(Array.init n (fun i -> (i + 1) * 10)) (fun () ->
         Rcons_algo.Tournament.recoverable_consensus cert ~n))

(* Figure 2 with every process participating: team A proposes 111, team
   B 222. *)
let team_system ?faithful cert () =
  of_built (Rcons_algo.Team_consensus.system ?faithful ~inputs:(111, 222) cert)

let team_mk ?faithful cert () =
  explorer (Rcons_algo.Team_consensus.system ?faithful ~inputs:(111, 222) cert)

(* Figure 4 over one-shot consensus objects.  The instances are created
   lazily during execution, so this system exercises mid-run heap
   registration. *)
let one_shot_consensus () =
  let c = Rcons_algo.One_shot.create () in
  { Rcons_algo.Simultaneous_rc.propose = (fun _pid v -> Rcons_algo.One_shot.decide c v) }

let fig4_mk n () =
  explorer
    (Rcons_algo.Outputs.system ~inputs:(Array.init n (fun i -> (i + 1) * 10)) (fun () ->
         Rcons_algo.Simultaneous_rc.(decide (create ~n ~make_consensus:one_shot_consensus))))

(* After a completed run, crash a random subset of processes and drive
   the system back to completion with no further crashes: a process that
   outputs, crashes and runs its algorithm again must output the same
   value (agreement covers repeated outputs of one process).  Returns
   the pids it crashed, in order, and the re-run's outcome (0 crashes,
   recorded schedule).  The zero-probability uniform run still draws its
   opportunity [float]s, so the step picks follow the historical
   stream. *)
let crash_and_rerun ~rng sim =
  let crashed = ref [] in
  for i = 0 to Sim.num_procs sim - 1 do
    if Random.State.bool rng then begin
      Sim.crash sim i;
      crashed := i :: !crashed
    end
  done;
  let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob = 0.0; max_crashes = 64 }) in
  (List.rev !crashed, Adversary.run adv sim)

(* Drive [mk]-built systems through [iters] random crash-injected runs. *)
let random_sweep ~mk ~iters ~crash_prob ~max_crashes ~seed =
  let rng = Random.State.make [| seed |] in
  for _ = 1 to iters do
    let sys = mk () in
    let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob; max_crashes }) in
    ignore (Adversary.run ~record:false adv sys.sim);
    sys.check ();
    (* crash some processes after completion and re-run: repeated outputs
       of one process must also agree *)
    ignore (crash_and_rerun ~rng sys.sim);
    sys.check ()
  done

(* Exhaustively model-check a system builder. *)
let exhaustive ~mk ~max_crashes =
  Explore.explore ~max_crashes ~mk:(fun () ->
      let sys = mk () in
      (sys.sim, sys.check))
    ()

let cert_of ot n =
  match Recording.witness ot n with
  | Some c -> c
  | None ->
      Alcotest.fail
        (Printf.sprintf "%s: expected an %d-recording witness" (Rcons_spec.Object_type.name ot) n)

let disc_cert_of ot n =
  match Discerning.witness ot n with
  | Some c -> c
  | None ->
      Alcotest.fail
        (Printf.sprintf "%s: expected an %d-discerning witness" (Rcons_spec.Object_type.name ot) n)
