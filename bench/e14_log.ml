(* E14 -- recoverable replicated log: persistency policy x crash
   adversary, throughput and recovery work.

   The log (lib/log/rlog.ml) chains per-slot team-consensus instances
   under a quorum-counter committed prefix; this experiment measures it
   two ways and writes the machine-readable results to BENCH_log.json:

   Series 1 (randomized): for each persistency policy x adversary, a
   seeded sweep of full runs.  Throughput is reported as committed slots
   per 1000 *simulated* steps -- a pure function of the seeds, so the
   JSON artifact is byte-deterministic under `--seed 0` on any machine
   (wall-clock slots/sec goes to stdout only).  Recovery work is the
   histogram of per-process chain-replay counts (Rlog.recovery_steps):
   under crash churn a process replays the durable prefix its vote
   advertises on every restart, so heavier adversaries shift the
   histogram right without touching the committed prefix.

   Series 2 (exhaustive): small-size model checking of the same
   workloads through Explore (dedup + POR), recording node counts.  The
   annotated log passes every policy; the barrier-free variant's lossy
   violation is re-found here live (its ddmin-shrunk form is the
   committed witness _counterexamples/e14_log_lossy.json, replayed in
   CI).  Sizes follow the measured wall: slots=1, n=2, <= 1 crash rows
   run in seconds; the slots=2 and 2-crash points live in the CI
   explore-log job instead. *)

open Rcons.Runtime
module Rlog = Rcons.Log.Rlog

let cert_of ot n = Option.get (Rcons.Check.Recording.witness ot n)

let policy_str = Persist.policy_to_string
let policies = [ Persist.Eager; Persist.Lossy; Persist.Torn ]

(* Per-process recovery-step observations, bucketed 0..overflow. *)
let hist_buckets = 9 (* buckets 0..7 plus an 8+ overflow bucket *)

type random_row = {
  rr_name : string; (* workload label *)
  rr_policy : string;
  rr_adversary : string;
  rr_annotated : bool;
  rr_iters : int;
  rr_steps : int; (* total simulated steps across the sweep *)
  rr_crashes : int;
  rr_committed : int; (* sum of final committed prefixes *)
  rr_slots_per_kstep : float; (* committed slots per 1000 simulated steps *)
  rr_recovery_hist : int array; (* per-process replay counts, bucketed *)
  rr_recoveries : int; (* total body re-entries *)
  rr_violations : int; (* verdict or state-invariant failures *)
  rr_aborted : int; (* algorithm invariant raised mid-body (barrier-free) *)
  rr_stuck : int;
  rr_wall_s : float; (* stdout only; NOT written to the JSON artifact *)
}

(* Crash probabilities are deliberately low: a run is ~130 simulated
   steps, so prob 0.2 spends the whole crash budget in the opening
   stretch, before any vote is durable -- every recovery then replays
   nothing.  ~0.04 spreads the crashes across the chain and the replay
   histograms pick up the mid-chain and late-slot recoveries. *)
let adversaries =
  [
    ("storm", fun () -> Adversary.Storm { crash_prob = 0.03; burst = 2; max_crashes = 6 });
    ("targeted", fun () -> Adversary.Targeted { victims = [ 0 ]; crash_prob = 0.06; max_crashes = 6 });
    ("uniform", fun () -> Adversary.Uniform { crash_prob = 0.04; max_crashes = 6 });
  ]

let sweep name cert ~slots ~annotated ~policy ~adv_name ~adv_policy ~iters ~seed =
  let steps = ref 0 and crashes = ref 0 and committed = ref 0 in
  let recoveries = ref 0 and violations = ref 0 and aborted = ref 0 and stuck = ref 0 in
  let hist = Array.make hist_buckets 0 in
  let adv = Adversary.create ~seed:(Util.seed seed) adv_policy in
  let (), wall =
    Util.time_it (fun () ->
        for _ = 1 to iters do
          let t, sim =
            Persist.scoped ~barriers:annotated policy (fun () -> Rlog.instance ~slots cert)
          in
          let on_crash pid = Rlog.note_crash t ~pid in
          match Adversary.run ~record:false ~on_crash adv sim with
          | out ->
              steps := !steps + out.Adversary.steps;
              crashes := !crashes + out.Adversary.crashes;
              let c = Rlog.committed t in
              committed := !committed + c;
              let state_bad = ref false in
              Rlog.check_exn ~fail:(fun _ -> state_bad := true) t;
              let v = Rlog.verdict t in
              if !state_bad || not (Rcons.History.Conditions.log_verdict_ok v) then
                incr violations;
              Array.iter
                (fun r -> hist.(min r (hist_buckets - 1)) <- hist.(min r (hist_buckets - 1)) + 1)
                (Rlog.recovery_steps t);
              recoveries := !recoveries + Array.fold_left ( + ) 0 (Rlog.recoveries t)
          (* a crash revert violated an invariant the un-annotated
             algorithm assumed durable (e.g. "R_A empty at return") *)
          | exception Adversary.Body_failure _ -> incr aborted
          | exception Adversary.Stuck _ -> incr stuck
        done)
  in
  let per_kstep =
    if !steps > 0 then 1000.0 *. float_of_int !committed /. float_of_int !steps else 0.0
  in
  let row =
    {
      rr_name = name;
      rr_policy = policy_str policy;
      rr_adversary = adv_name;
      rr_annotated = annotated;
      rr_iters = iters;
      rr_steps = !steps;
      rr_crashes = !crashes;
      rr_committed = !committed;
      rr_slots_per_kstep = per_kstep;
      rr_recovery_hist = hist;
      rr_recoveries = !recoveries;
      rr_violations = !violations;
      rr_aborted = !aborted;
      rr_stuck = !stuck;
      rr_wall_s = wall;
    }
  in
  Util.row
    "%-22s %-7s %-9s %s  committed=%5d/%d  %5.2f slots/kstep  crashes=%4d replays=%4d  viol=%-3d abort=%-3d stuck=%-2d (%.1fs, %.0f slots/s)@."
    name (policy_str policy) adv_name
    (if annotated then "+barriers" else "bare     ")
    !committed (iters * slots) per_kstep !crashes
    (Array.to_list hist |> List.mapi (fun i c -> i * c) |> List.fold_left ( + ) 0)
    !violations !aborted !stuck wall
    (if wall > 0. then float_of_int !committed /. wall else 0.);
  row

(* --- Series 2: exhaustive small sizes --- *)

type exhaustive_row = {
  er_name : string;
  er_policy : string;
  er_annotated : bool;
  er_slots : int;
  er_max_crashes : int;
  er_nodes : int;
  er_schedules : int;
  er_violation : string option; (* one-line diagnosis when found *)
}

let exhaustive name typ ~slots ~annotated ~policy ~max_crashes =
  let w = Rcons.Counterexample.log ~persist:policy ~annotated ~slots typ in
  let mk = Util.ok_or_fail (Rcons.Counterexample.mk w) in
  let run () = Explore.explore ~max_crashes ~dedup:true ~por:true ~mk () in
  let r, dt = Util.time_it (fun () -> try Ok (run ()) with Explore.Violation v -> Error v) in
  match r with
  | Ok stats ->
      Util.row "%-22s %-7s %s slots=%d crashes<=%d  no violation  %6d schedules %8d nodes (%.1fs)@."
        name (policy_str policy)
        (if annotated then "+barriers" else "bare     ")
        slots max_crashes stats.Explore.schedules stats.Explore.nodes dt;
      {
        er_name = name;
        er_policy = policy_str policy;
        er_annotated = annotated;
        er_slots = slots;
        er_max_crashes = max_crashes;
        er_nodes = stats.Explore.nodes;
        er_schedules = stats.Explore.schedules;
        er_violation = None;
      }
  | Error v ->
      Util.row "%-22s %-7s %s slots=%d crashes<=%d  VIOLATION at depth %d: %s (%.1fs)@." name
        (policy_str policy)
        (if annotated then "+barriers" else "bare     ")
        slots max_crashes
        (List.length v.Explore.v_schedule)
        v.Explore.v_msg dt;
      {
        er_name = name;
        er_policy = policy_str policy;
        er_annotated = annotated;
        er_slots = slots;
        er_max_crashes = max_crashes;
        er_nodes = 0;
        er_schedules = 0;
        er_violation = Some v.Explore.v_msg;
      }

(* --- JSON artifact (byte-deterministic: no wall-clock fields) --- *)

let write_json ~out ~slots random_rows exhaustive_rows =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"slots\": %d,\n" slots;
  p "  \"seed_offset\": %d,\n" !Util.seed_offset;
  p "  \"random\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"name\": %S, \"policy\": %S, \"adversary\": %S, \"annotated\": %b, \"iters\": %d,\n"
        r.rr_name r.rr_policy r.rr_adversary r.rr_annotated r.rr_iters;
      p
        "     \"steps\": %d, \"crashes\": %d, \"committed\": %d, \"slots_per_kstep\": %.3f,\n"
        r.rr_steps r.rr_crashes r.rr_committed r.rr_slots_per_kstep;
      p "     \"recoveries\": %d, \"violations\": %d, \"aborted\": %d, \"stuck\": %d,\n"
        r.rr_recoveries r.rr_violations r.rr_aborted r.rr_stuck;
      p "     \"recovery_steps_hist\": [%s]}%s\n"
        (String.concat ", " (Array.to_list (Array.map string_of_int r.rr_recovery_hist)))
        (if i = List.length random_rows - 1 then "" else ",")
      )
    random_rows;
  p "  ],\n";
  p "  \"exhaustive\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"name\": %S, \"policy\": %S, \"annotated\": %b, \"slots\": %d, \"max_crashes\": %d, \
         \"nodes\": %d, \"schedules\": %d, \"violation\": %s}%s\n"
        r.er_name r.er_policy r.er_annotated r.er_slots r.er_max_crashes r.er_nodes r.er_schedules
        (match r.er_violation with None -> "null" | Some m -> Printf.sprintf "%S" m)
        (if i = List.length exhaustive_rows - 1 then "" else ","))
    exhaustive_rows;
  p "  ]\n}\n";
  close_out oc;
  Util.row "@.wrote %s (wall-clock columns are stdout-only; the artifact is seed-deterministic)@."
    out

let run ?(out = "BENCH_log.json") () =
  Util.section "E14: recoverable replicated log -- policy x adversary";
  let slots = 3 in
  Util.row "[randomized sweeps, %d slots, 200 runs per row; throughput in simulated steps]@." slots;
  let cert2 = cert_of Rcons.Spec.Sticky_bit.t 2 in
  let cert3 = cert_of (Rcons.Spec.Sn.make 3) 3 in
  let random_rows = ref [] in
  let push r = random_rows := r :: !random_rows in
  (* n=2: the full policy x adversary matrix, annotated *)
  List.iter
    (fun policy ->
      List.iter
        (fun (adv_name, mk_adv) ->
          push
            (sweep "sticky-bit log (n=2)" cert2 ~slots ~annotated:true ~policy ~adv_name
               ~adv_policy:(mk_adv ()) ~iters:200 ~seed:1400))
        adversaries)
    policies;
  (* n=3: the storm column, annotated -- more processes, richer replay
     histograms under the same committed-prefix guarantee *)
  List.iter
    (fun policy ->
      push
        (sweep "S_3 log (n=3)" cert3 ~slots ~annotated:true ~policy ~adv_name:"storm"
           ~adv_policy:(Adversary.Storm { crash_prob = 0.03; burst = 2; max_crashes = 6 })
           ~iters:120 ~seed:1450))
    policies;
  (* negative control: the barrier-free log under the write-back caches;
     violations are counted, not fatal (the exhaustive row and the
     committed witness pin the bug down deterministically) *)
  List.iter
    (fun policy ->
      push
        (sweep "sticky-bit log (n=2)" cert2 ~slots ~annotated:false ~policy ~adv_name:"storm"
           ~adv_policy:(Adversary.Storm { crash_prob = 0.2; burst = 2; max_crashes = 6 })
           ~iters:200 ~seed:1475))
    [ Persist.Lossy; Persist.Torn ];
  let random_rows = List.rev !random_rows in
  Util.row "@.[exhaustive model checking, dedup + POR; slots=1, n=2]@.";
  (* explicit lets: [@] would evaluate (and print) the rows out of order *)
  let annotated_rows =
    List.map
      (fun policy ->
        exhaustive "sticky-bit log" "sticky" ~slots:1 ~annotated:true ~policy ~max_crashes:1)
      policies
  in
  (* the barrier-free lossy violation, found live (the slots=2 shrunk
     agreement witness is _counterexamples/e14_log_lossy.json) *)
  let bare_row =
    exhaustive "sticky-bit log" "sticky" ~slots:1 ~annotated:false ~policy:Persist.Lossy
      ~max_crashes:1
  in
  let exhaustive_rows = annotated_rows @ [ bare_row ] in
  (match
     List.find_opt
       (fun r -> (not r.er_annotated) && r.er_policy = "lossy" && r.er_violation = None)
       exhaustive_rows
   with
  | Some _ ->
      Util.row "NEGATIVE-CONTROL FAILURE: barrier-free lossy log found no violation@.";
      exit 1
  | None -> ());
  write_json ~out ~slots random_rows exhaustive_rows
