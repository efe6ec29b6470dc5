(* Seeded crash adversaries, schedule shrinking, and budgeted resumable
   exploration.

   Pinned here:
   - determinism: the same [(seed, policy)] pair yields the same recorded
     schedule on every run, on every domain count ([Pool.map] sweep) --
     the replayability contract of the whole adversary subsystem;
   - the stream contract: golden pins of [run] schedules and [on_crash]
     observations, [decide] victims, and the fault-free, uniform,
     simultaneous and crash-and-rerun outcomes, recorded before [run] and
     [decide] shared one crash-opportunity function;
   - recorded schedules replay: applying the recorded choice list to a
     fresh system reproduces the run (steps, crashes, outputs);
   - shrinker soundness: a minimized schedule still violates, is
     1-minimal, and (qcheck) minimization never loses an
     adversary-found violation;
   - checkpoint/resume: a budget-interrupted exploration, resumed any
     number of times (through the JSON round-trip), reports final
     statistics bit-identical to the uninterrupted run, in raw and in
     dedup mode;
   - counterexample artifacts: JSON round-trip preserves replayability,
     and replaying against the wrong workload is refused. *)

open Rcons_runtime

let sticky_cert = lazy (Helpers.cert_of Rcons_spec.Sticky_bit.t 2)
let sticky3_cert = lazy (Helpers.cert_of Rcons_spec.Sticky_bit.t 3)

(* A fresh 2-team system driven by [adv]; returns the outcome and the
   final total step count. *)
let drive ?record adv =
  let sys = Helpers.team_system (Lazy.force sticky_cert) () in
  let o = Adversary.run ?record adv sys.Helpers.sim in
  (o, Sim.total_steps sys.Helpers.sim)

let schedule_str sched = Format.asprintf "%a" Explore.pp_schedule sched

let policies =
  [
    ("uniform", Adversary.Uniform { crash_prob = 0.3; max_crashes = 5 });
    ("storm", Adversary.Storm { crash_prob = 0.3; burst = 2; max_crashes = 5 });
    ("targeted", Adversary.Targeted { victims = [ 0 ]; crash_prob = 0.4; max_crashes = 5 });
    ("simultaneous", Adversary.Simultaneous { crash_at = [ 3; 9 ] });
    ("quiescent", Adversary.Quiescent { period = 6; active = 3; crash_prob = 0.4; max_crashes = 5 });
  ]

(* --- same seed, same schedule --- *)

let test_seed_determinism () =
  List.iter
    (fun (name, pol) ->
      let run () = fst (drive (Adversary.create ~seed:11 pol)) in
      let a = run () and b = run () in
      Alcotest.(check string)
        (name ^ ": same seed, same schedule")
        (schedule_str a.Adversary.schedule)
        (schedule_str b.Adversary.schedule);
      Alcotest.(check int) (name ^ ": same crashes") a.Adversary.crashes b.Adversary.crashes;
      Alcotest.(check int)
        (name ^ ": crashes = crash choices")
        a.Adversary.crashes
        (Schedule.crashes a.Adversary.schedule))
    policies

let test_cross_domain_determinism () =
  let runs = 8 in
  let one i =
    let pol = snd (List.nth policies (i mod List.length policies)) in
    let o, _ = drive (Adversary.create ~seed:(100 + i) pol) in
    schedule_str o.Adversary.schedule
  in
  let seq = Rcons_par.Pool.map ~domains:1 runs one in
  List.iter
    (fun domains ->
      let par = Rcons_par.Pool.map ~domains runs one in
      Alcotest.(check (array string))
        (Printf.sprintf "schedules identical on %d domains" domains)
        seq par)
    [ 2; 4 ]

(* --- recorded schedules replay --- *)

let test_recorded_schedule_replays () =
  List.iter
    (fun (name, pol) ->
      let o, steps = drive (Adversary.create ~seed:3 pol) in
      let sys = Helpers.team_system (Lazy.force sticky_cert) () in
      List.iter (Schedule.apply sys.Helpers.sim) o.Adversary.schedule;
      Alcotest.(check bool) (name ^ ": replay finishes the system") true
        (Sim.all_finished sys.Helpers.sim);
      Alcotest.(check int) (name ^ ": replay reproduces step count") steps
        (Sim.total_steps sys.Helpers.sim);
      sys.Helpers.check ())
    policies

let test_json_round_trip () =
  let o, _ = drive (Adversary.create ~seed:5 (snd (List.hd policies))) in
  let rt = Schedule.of_json (Json.parse_exn (Json.to_string (Schedule.to_json o.Adversary.schedule))) in
  Alcotest.(check string) "schedule JSON round-trip"
    (schedule_str o.Adversary.schedule)
    (schedule_str rt)

(* --- shrinker soundness --- *)

let broken_mk () = Helpers.team_mk ~faithful:false (Lazy.force sticky3_cert) ()

let find_violation () =
  match Explore.explore ~max_crashes:0 ~mk:broken_mk () with
  | (_ : Explore.stats) -> Alcotest.fail "expected the broken variant to violate"
  | exception Explore.Violation v -> v

let test_shrink_sound_and_minimal () =
  let v = find_violation () in
  match Shrink.minimize ~mk:broken_mk v.Explore.v_schedule with
  | None -> Alcotest.fail "minimize lost the violation"
  | Some (shrunk, _msg) ->
      Alcotest.(check bool) "shrunk is no longer" true
        (List.length shrunk <= List.length v.Explore.v_schedule);
      (match Shrink.check ~mk:broken_mk shrunk with
      | None -> Alcotest.fail "shrunk schedule does not violate"
      | Some (_, used) ->
          Alcotest.(check int) "no dead tail: the whole shrunk schedule is consumed" used
            (List.length shrunk));
      (* 1-minimality: removing any single choice loses the violation *)
      List.iteri
        (fun i _ ->
          let without = List.filteri (fun j _ -> j <> i) shrunk in
          match Shrink.check ~mk:broken_mk without with
          | None -> ()
          | Some (msg, _) ->
              Alcotest.failf "removing choice %d still violates (%s): not 1-minimal" i msg)
        shrunk

(* Any violation an adversary stumbles on is never lost by minimization:
   for every seed, if the recorded run ends in violated outputs, the
   shrinker returns a violating schedule no longer than the original. *)
let qcheck_shrink_never_loses =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"minimization never loses an adversary-found violation"
       ~print:string_of_int
       QCheck2.Gen.(int_bound 10_000)
       (fun seed ->
         let sys = Helpers.team_system ~faithful:false (Lazy.force sticky3_cert) () in
         let adv =
           Adversary.create ~seed (Adversary.Uniform { crash_prob = 0.2; max_crashes = 4 })
         in
         let o = Adversary.run adv sys.Helpers.sim in
         match Shrink.check ~mk:broken_mk o.Adversary.schedule with
         | None -> true (* this seed found no violation: nothing to preserve *)
         | Some _ -> (
             match Shrink.minimize ~mk:broken_mk o.Adversary.schedule with
             | None -> false
             | Some (shrunk, _) ->
                 List.length shrunk <= List.length o.Adversary.schedule
                 && Shrink.check ~mk:broken_mk shrunk <> None)))

(* --- checkpoint / resume --- *)

let stats_str (s : Explore.stats) =
  Format.asprintf "{schedules=%d; nodes=%d; max_depth=%d; dedup_hits=%d; distinct_states=%d}"
    s.schedules s.nodes s.max_depth s.dedup_hits s.distinct_states

(* Run to completion under a node budget, resuming (through the JSON
   round-trip) every time the budget trips; count the interrupts. *)
let run_chunked ?dedup ~max_crashes ~node_budget mk =
  let interrupts = ref 0 in
  let rec go resume_from =
    match Explore.explore ?dedup ~max_crashes ~node_budget ?resume_from ~mk () with
    | stats -> (stats, !interrupts)
    | exception Explore.Interrupted cp ->
        incr interrupts;
        let cp = Explore.checkpoint_of_json (Explore.checkpoint_to_json cp) in
        go (Some cp)
  in
  go None

let test_resume_raw_bit_identical () =
  let mk = Helpers.team_mk (Lazy.force sticky_cert) in
  let full = Explore.explore ~max_crashes:1 ~mk () in
  let chunked, interrupts = run_chunked ~max_crashes:1 ~node_budget:20_000 mk in
  Alcotest.(check bool) "budget actually tripped" true (interrupts >= 2);
  Alcotest.(check string) "raw resume: stats bit-identical" (stats_str full) (stats_str chunked)

let test_resume_dedup_bit_identical () =
  let mk = Helpers.team_mk (Helpers.cert_of (Rcons_spec.Sn.make 2) 2) in
  let full = Explore.explore ~dedup:true ~max_crashes:2 ~mk () in
  let chunked, interrupts = run_chunked ~dedup:true ~max_crashes:2 ~node_budget:3_000 mk in
  Alcotest.(check bool) "dedup budget actually tripped" true (interrupts >= 2);
  Alcotest.(check string) "dedup resume: stats bit-identical" (stats_str full)
    (stats_str chunked)

let test_resume_finds_violation () =
  let rec go resume_from =
    match Explore.explore ~max_crashes:0 ~node_budget:50 ?resume_from ~mk:broken_mk () with
    | (_ : Explore.stats) -> Alcotest.fail "expected a violation across resumes"
    | exception Explore.Interrupted cp -> go (Some cp)
    | exception Explore.Violation v -> v
  in
  let direct = find_violation () in
  let resumed = go None in
  Alcotest.(check string) "violation schedule identical across resumes"
    (schedule_str direct.Explore.v_schedule)
    (schedule_str resumed.Explore.v_schedule)

let test_resume_parameter_mismatch_refused () =
  let mk = Helpers.team_mk (Lazy.force sticky_cert) in
  match Explore.explore ~max_crashes:1 ~node_budget:500 ~mk () with
  | (_ : Explore.stats) -> Alcotest.fail "budget should have tripped"
  | exception Explore.Interrupted cp -> (
      match Explore.explore ~max_crashes:2 ~resume_from:cp ~mk () with
      | (_ : Explore.stats) -> Alcotest.fail "mismatched resume accepted"
      | exception Invalid_argument _ -> ())

(* --- counterexample artifacts --- *)

let test_artifact_round_trip () =
  let module Cex = Rcons.Counterexample in
  let w = Cex.team2 ~faithful:false ~level:3 "sticky" in
  let mk = match Cex.mk w with Ok mk -> mk | Error e -> Alcotest.fail e in
  match Explore.explore ~max_crashes:0 ~mk ~fingerprint:(Cex.fingerprint w) () with
  | (_ : Explore.stats) -> Alcotest.fail "expected a violation"
  | exception Explore.Violation v -> (
      let cex = Cex.of_violation w v in
      let min = match Cex.minimize cex with Ok m -> m | Error e -> Alcotest.fail e in
      Alcotest.(check bool) "shrunk_from recorded" true (min.Cex.shrunk_from <> None);
      let rt = Cex.of_json (Json.parse_exn (Json.to_string (Cex.to_json min))) in
      (match Cex.replay rt with
      | `Violated _ -> ()
      | `Passed -> Alcotest.fail "round-tripped artifact no longer violates");
      (* replay against the wrong workload is refused *)
      let wrong = { rt with Cex.workload = Cex.team2 "S_2" } in
      match Cex.replay wrong with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "fingerprint mismatch not detected")

(* --- atomic artifact files ---

   Every artifact writer goes through [Json.save]: saving over an
   existing directory fails with [Sys_error] (the final rename cannot
   replace it) and leaves no [FILE.tmp] behind, and a successful save
   writes exactly [Json.to_string j ^ "\n"]. *)

let test_atomic_saves () =
  let module Cex = Rcons.Counterexample in
  let mk = Helpers.team_mk (Lazy.force sticky_cert) in
  let cp =
    match Explore.explore ~max_crashes:1 ~node_budget:500 ~mk () with
    | (_ : Explore.stats) -> Alcotest.fail "budget should have tripped"
    | exception Explore.Interrupted cp -> cp
  in
  let w = Cex.team2 ~faithful:false ~level:3 "sticky" in
  let mk = match Cex.mk w with Ok mk -> mk | Error e -> Alcotest.fail e in
  let cex =
    match Explore.explore ~max_crashes:0 ~mk ~fingerprint:(Cex.fingerprint w) () with
    | (_ : Explore.stats) -> Alcotest.fail "expected a violation"
    | exception Explore.Violation v -> Cex.of_violation w v
  in
  let plain = Json.Obj [ ("k", Json.Int 1) ] in
  let writers =
    [
      ("Json.save", plain, fun file -> Json.save ~file plain);
      ( "Explore.save_checkpoint",
        Explore.checkpoint_to_json cp,
        fun file -> Explore.save_checkpoint ~file cp );
      ("Counterexample.save", Cex.to_json cex, fun file -> Cex.save ~file cex);
    ]
  in
  let dir = Filename.temp_file "rcons-save" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let file = Filename.concat dir "artifact.json" in
  List.iter
    (fun (name, json, save) ->
      Sys.mkdir file 0o700;
      (match save file with
      | () -> Alcotest.failf "%s: saving over a directory succeeded" name
      | exception Sys_error _ -> ());
      Alcotest.(check bool)
        (name ^ ": no .tmp left behind")
        false
        (Sys.file_exists (file ^ ".tmp"));
      Sys.rmdir file;
      save file;
      Alcotest.(check string) (name ^ ": bytes") (Json.to_string json ^ "\n")
        (In_channel.with_open_bin file In_channel.input_all);
      Sys.remove file)
    writers;
  Sys.rmdir dir

(* --- golden pins: the crash-opportunity stream ---

   Recorded before [run] and [decide] shared one crash-opportunity
   function and the fault-free, uniform, simultaneous and
   crash-and-rerun drivers became plain [Adversary] runs.  Every seeded
   EXPERIMENTS.md table and the service commit digests depend on these
   streams, so they must not move. *)

let golden =
  [
    "run uniform 87e6dad1b3987f78f9fc9af8735c196d";
    "run storm 137e5e8b5fd44587ff2fe5f8a365a3cc";
    "run targeted cc74df6cadb69921afb718ea61f08521";
    "run simultaneous b4b5db45a132619bd163680b5252367d";
    "run quiescent 06c6096e25791741d8a794863b2127b7";
    "decide uniform 271d3bb3560a34800a029134b88338a6 injected=50";
    "decide storm 1a41e8e21f02aee24be30186a4ca7daa injected=50";
    "decide targeted e888619e67204199e62c4bc475274ed1 injected=50";
    "decide simultaneous 59cec17720f9d2e010de79e8689aacd4 injected=60";
    "decide quiescent 82b6c6a23af7759425484ce6e0bebcde injected=50";
    "round_robin c4c77256216da369111b19666b7503db";
    "round_robin 14f576017dd2af63353a83b976d0191b";
    "uniform+crash_and_rerun crashes=6+0,0+0,2+0,5+0,3+0,1+0,4+0,0+0,6+0,6+0 \
     82e68792d4d84aceb5e2347f8944004e";
    "simultaneous [3;9;17] 861db24725c5618ac9e30b3b3a5cf2ea";
    "simultaneous [0;-1;5] cd6854b6801f0cc79892fc3540b9689e";
    "simultaneous [] c4c77256216da369111b19666b7503db";
  ]

let md5 s = Digest.to_hex (Digest.string s)

let choices_str sched =
  String.concat " "
    (List.map
       (function
         | Schedule.Step_choice i -> "s" ^ string_of_int i
         | Schedule.Crash_choice i -> "c" ^ string_of_int i)
       sched)

let sticky3_sim () = (Helpers.team_system (Lazy.force sticky3_cert) ()).Helpers.sim

(* [run]: the recorded schedule of every policy at seeds 0-9, and what
   [on_crash] sees (the victim's crash count: whether the crash it
   reports has already been applied). *)
let run_pins () =
  List.map
    (fun (name, pol) ->
      List.init 10 (fun seed ->
          let sim = sticky3_sim () in
          let seen = ref [] in
          let on_crash pid =
            seen := Printf.sprintf "%d:%d" pid (Sim.crash_count sim pid) :: !seen
          in
          let o = Adversary.run ~on_crash (Adversary.create ~seed pol) sim in
          Printf.sprintf "%d/%d/%s/%s" o.Adversary.crashes (Sim.total_steps sim)
            (schedule_str o.Adversary.schedule)
            (String.concat "," (List.rev !seen)))
      |> String.concat "\n" |> md5 |> Printf.sprintf "run %s %s" name)
    policies

(* [decide]: the victims returned over a fixed eligible/total_steps
   script, at seeds 0-9, and the lifetime crash count. *)
let decide_script =
  List.init 60 (fun k -> (List.filter (fun i -> (i + k) mod 4 <> 0) [ 0; 1; 2; 3 ], 2 * k))

let decide_pins () =
  List.map
    (fun (name, pol) ->
      let injected = ref 0 in
      List.init 10 (fun seed ->
          let a = Adversary.create ~seed pol in
          let vs =
            List.map
              (fun (eligible, total_steps) ->
                Adversary.decide a ~eligible ~total_steps
                |> List.map string_of_int |> String.concat ",")
              decide_script
          in
          injected := !injected + Adversary.crashes_injected a;
          String.concat ";" vs)
      |> String.concat "\n" |> md5
      |> fun d -> Printf.sprintf "decide %s %s injected=%d" name d !injected)
    policies

(* The fault-free ([Adversary.round_robin]), uniform, simultaneous and
   crash-and-rerun drivers: recorded schedules and crash counts.
   [crash_at = []] must match the fault-free schedule, and thresholds
   already passed fire one step apart. *)
let driver_pins () =
  let schedule_of pol sim = (Adversary.run (Adversary.create pol) sim).Adversary.schedule in
  let rr =
    List.map
      (fun sim ->
        let sched = schedule_of (Adversary.Simultaneous { crash_at = [] }) sim in
        Printf.sprintf "round_robin %s" (md5 (choices_str sched)))
      [ sticky3_sim (); (Helpers.team_system (Lazy.force sticky_cert) ()).Helpers.sim ]
  in
  let random =
    List.init 10 (fun seed ->
        let sim = sticky3_sim () in
        let rng = Random.State.make [| seed |] in
        let pol = Adversary.Uniform { crash_prob = 0.15; max_crashes = 6 } in
        let o = Adversary.run (Adversary.of_rng ~rng pol) sim in
        let crashed, rerun = Helpers.crash_and_rerun ~rng sim in
        Printf.sprintf "%d+%d:%s" o.Adversary.crashes rerun.Adversary.crashes
          (choices_str
             (o.schedule
             @ List.map (fun i -> Schedule.Crash_choice i) crashed
             @ rerun.schedule)))
  in
  let simultaneous =
    List.map
      (fun crash_at ->
        let sched = schedule_of (Adversary.Simultaneous { crash_at }) (sticky3_sim ()) in
        Printf.sprintf "simultaneous [%s] %s"
          (String.concat ";" (List.map string_of_int crash_at))
          (md5 (choices_str sched)))
      [ [ 3; 9; 17 ]; [ 0; -1; 5 ]; [] ]
  in
  rr
  @ [
      Printf.sprintf "uniform+crash_and_rerun crashes=%s %s"
        (String.concat "," (List.map (fun s -> List.hd (String.split_on_char ':' s)) random))
        (md5 (String.concat "\n" random));
    ]
  @ simultaneous

let test_golden_pins () =
  let actual = run_pins () @ decide_pins () @ driver_pins () in
  Alcotest.(check (list string)) "streams unchanged" golden actual

(* --- settings are validated once, up front --- *)

let test_invalid_settings_rejected () =
  let rejected name f =
    match f () with
    | (_ : Adversary.t) -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  (* a zero-victim storm used to spin [run] forever *)
  rejected "burst 0" (fun () ->
      Adversary.create (Adversary.Storm { crash_prob = 1.0; burst = 0; max_crashes = 3 }));
  rejected "crash_prob 1.5" (fun () ->
      Adversary.of_rng ~rng:(Random.State.make [| 0 |])
        (Adversary.Uniform { crash_prob = 1.5; max_crashes = 3 }));
  rejected "period 0" (fun () ->
      Adversary.create
        (Adversary.Quiescent { period = 0; active = 1; crash_prob = 0.5; max_crashes = 3 }));
  let error name r =
    match r with
    | Ok _ -> Alcotest.failf "%s: policy_of_string accepted it" name
    | Error msg -> msg
  in
  List.iter
    (fun (name, r, setting) ->
      let msg = error name r in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %s" name msg setting)
        true
        (Str.string_match (Str.regexp (".*" ^ setting)) msg 0))
    [
      ("burst 0", Adversary.policy_of_string ~burst:0 "storm", "burst");
      ("crash_prob -0.1", Adversary.policy_of_string ~crash_prob:(-0.1) "uniform", "crash_prob");
      ("crash_prob nan", Adversary.policy_of_string ~crash_prob:Float.nan "targeted", "crash_prob");
      ("max_crashes -1", Adversary.policy_of_string ~max_crashes:(-1) "uniform", "max_crashes");
      ("period 0", Adversary.policy_of_string ~period:0 "quiescent", "period");
      ("active -1", Adversary.policy_of_string ~active:(-1) "quiescent", "active");
    ];
  (* the boundary values are accepted *)
  List.iter
    (fun r ->
      match r with
      | Ok pol -> ignore (Adversary.create pol)
      | Error msg -> Alcotest.failf "boundary value rejected: %s" msg)
    [
      Adversary.policy_of_string ~crash_prob:0.0 ~max_crashes:0 "uniform";
      Adversary.policy_of_string ~crash_prob:1.0 ~burst:1 "storm";
      Adversary.policy_of_string ~period:1 ~active:0 "quiescent";
    ]

let suite =
  [
    Alcotest.test_case "same seed => same schedule (all policies)" `Quick test_seed_determinism;
    Alcotest.test_case "schedules identical across domain counts" `Quick
      test_cross_domain_determinism;
    Alcotest.test_case "golden stream pins (run, decide, drivers)" `Quick test_golden_pins;
    Alcotest.test_case "invalid adversary settings are rejected" `Quick
      test_invalid_settings_rejected;
    Alcotest.test_case "recorded schedules replay exactly" `Quick test_recorded_schedule_replays;
    Alcotest.test_case "schedule JSON round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "shrunk witness violates and is 1-minimal" `Quick
      test_shrink_sound_and_minimal;
    qcheck_shrink_never_loses;
    Alcotest.test_case "resume: raw stats bit-identical" `Quick test_resume_raw_bit_identical;
    Alcotest.test_case "resume: dedup stats bit-identical" `Quick test_resume_dedup_bit_identical;
    Alcotest.test_case "resume: violation schedule preserved" `Quick test_resume_finds_violation;
    Alcotest.test_case "resume: parameter mismatch refused" `Quick
      test_resume_parameter_mismatch_refused;
    Alcotest.test_case "counterexample artifact round-trip" `Quick test_artifact_round_trip;
    Alcotest.test_case "artifact saves are atomic and clean up" `Quick test_atomic_saves;
  ]
