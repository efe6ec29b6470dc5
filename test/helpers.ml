(* Shared harness code for the algorithm tests: build simulated systems
   running consensus algorithms, drive them with the various adversaries,
   and check the RC properties (agreement, validity, and -- via bounded
   step budgets -- recoverable wait-freedom). *)

open Rcons_runtime
open Rcons_check

(* A consensus system under test: fresh shared state plus an invariant
   checker suitable for both the random drivers and the explorer. *)
type 'v system = { sim : Sim.t; outputs : 'v Rcons_algo.Outputs.t; check : unit -> unit }

let check_now outputs () = Rcons_algo.Outputs.check_exn ~fail:Explore.fail outputs

(* System running full (tournament-lifted) recoverable consensus from a
   recording certificate, with distinct inputs 10, 20, 30, ... *)
let rc_system ?faithful (cert : Certificate.recording) ~n () =
  let inputs = Array.init n (fun i -> (i + 1) * 10) in
  let outputs = Rcons_algo.Outputs.make ~inputs in
  let decide = Rcons_algo.Tournament.recoverable_consensus ?faithful cert ~n in
  let body pid () = Rcons_algo.Outputs.record outputs pid (decide pid inputs.(pid)) in
  let sim = Sim.create ~n body in
  { sim; outputs; check = check_now outputs }

(* System running a bare Figure 2 team-consensus instance: process pids
   are laid out team A first, then team B; [use_a] and [use_b] select how
   many processes of each team actually participate (subset participation
   is allowed, see Proposition 30). *)
let team_system ?faithful (cert : Certificate.recording) ?use_a ?use_b () =
  let size_a, size_b = Certificate.recording_teams cert in
  let use_a = Option.value use_a ~default:size_a in
  let use_b = Option.value use_b ~default:size_b in
  assert (use_a >= 1 && use_a <= size_a && use_b >= 1 && use_b <= size_b);
  let n = use_a + use_b in
  let inputs = Array.init n (fun i -> if i < use_a then 111 else 222) in
  let outputs = Rcons_algo.Outputs.make ~inputs in
  let tc = Rcons_algo.Team_consensus.create ?faithful cert in
  let body pid () =
    let team, slot =
      if pid < use_a then (Rcons_spec.Team.A, pid) else (Rcons_spec.Team.B, pid - use_a)
    in
    Rcons_algo.Outputs.record outputs pid (tc.Rcons_algo.Team_consensus.decide team slot inputs.(pid))
  in
  let sim = Sim.create ~n body in
  { sim; outputs; check = check_now outputs }

(* [team_system] with every process participating, as an explorer [mk]. *)
let team_mk ?faithful cert () =
  let sys = team_system ?faithful cert () in
  (sys.sim, sys.check)

(* Figure 4: recoverable consensus from consensus under simultaneous
   crashes; consensus instances are created lazily during execution, so
   this system exercises mid-run heap registration. *)
let fig4_mk n () =
  let inputs = Array.init n (fun i -> (i + 1) * 10) in
  let outputs = Rcons_algo.Outputs.make ~inputs in
  let make_consensus () =
    let c = Rcons_algo.One_shot.create () in
    { Rcons_algo.Simultaneous_rc.propose = (fun _pid v -> Rcons_algo.One_shot.decide c v) }
  in
  let rc = Rcons_algo.Simultaneous_rc.create ~n ~make_consensus in
  let body pid () =
    Rcons_algo.Outputs.record outputs pid (Rcons_algo.Simultaneous_rc.decide rc pid inputs.(pid))
  in
  (Sim.create ~n body, check_now outputs)

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
