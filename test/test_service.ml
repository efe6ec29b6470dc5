(* The crash-churn service (lib/service): session fibers, admission
   control, retry/backoff, the soak engine and its online checkers.

   The headline facts, machine-checked here:
   - a soak replayed from (seed, adversary policy, persist policy)
     yields identical reports -- commit order, shed and retry counts,
     every histogram -- across 1, 2 and 4 domains (qcheck property);
   - annotated fleets under storm churn ack every submitted op with zero
     checker violations for each persist policy;
   - the negative control (barrier-free universal instance under lossy
     churn) is caught by the online checkers, and the barrier-free log
     collapses availability (never acks) instead of lying;
   - overload sheds explicitly (Overloaded answers, bounded queue) and
     every session still terminates, open-loop-only instances included;
   - a storm x lossy fleet's digest, client counters, simulated steps
     and ticks are pinned, so an engine refactor that changes any
     outcome, or the simulation step for step, fails here;
   - the incremental adversary API: [decide] respects crash budgets,
     thresholds and windows, and [crashes_injected] counts delivered
     crashes. *)

open Rcons_runtime
module Service = Rcons.Service
module Instance = Service.Instance
module Soak = Service.Soak
module Metrics = Service.Metrics
module Backoff = Service.Backoff
module Admission = Service.Admission
module Session = Service.Session

let cert2 = lazy (Helpers.cert_of Rcons_spec.Sticky_bit.t 2)

(* --- shared fleet builders (small: the qcheck property runs many) --- *)

let adversaries =
  [|
    Adversary.Uniform { crash_prob = 0.06; max_crashes = 6 };
    Adversary.Storm { crash_prob = 0.06; burst = 2; max_crashes = 8 };
    Adversary.Targeted { victims = [ 0 ]; crash_prob = 0.1; max_crashes = 6 };
    Adversary.Simultaneous { crash_at = [ 30; 200 ] };
    Adversary.Quiescent { period = 40; active = 10; crash_prob = 0.1; max_crashes = 6 };
  |]

let policies = [| Persist.Eager; Persist.Lossy; Persist.Torn |]
let storm = Adversary.Storm { crash_prob = 0.08; burst = 2; max_crashes = 10 }

let small_fleet ~seed ~adversary ~persist =
  List.init 3 (fun id ->
      let base =
        {
          (Soak.default ~id ~seed) with
          Instance.adversary;
          persist;
          sessions = 8;
          ops_per_session = 3;
          open_ops = 3;
          open_rate = 0.2;
        }
      in
      if id = 2 then
        {
          base with
          Instance.kind = Instance.Log;
          cert = Some (Lazy.force cert2);
          sessions = 6;
          ops_per_session = 2;
        }
      else base)

(* --- determinism: 1 = 2 = 4 domains, and replay = original --- *)

let qcheck_soak_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12
       ~name:"soak replay from (seed, adversary, persist) is identical on 1/2/4 domains"
       QCheck2.Gen.(triple (int_bound 10_000) (int_bound 4) (int_bound 2))
       (fun (seed, ai, pi) ->
         let fleet () =
           small_fleet ~seed:(seed + 1) ~adversary:adversaries.(ai) ~persist:policies.(pi)
         in
         let o1 = Soak.run ~domains:1 (fleet ()) in
         let o2 = Soak.run ~domains:2 (fleet ()) in
         let o4 = Soak.run ~domains:4 (fleet ()) in
         let o1' = Soak.run ~domains:1 (fleet ()) in
         o1.Soak.reports = o2.Soak.reports
         && o1.Soak.reports = o4.Soak.reports
         && o1.Soak.reports = o1'.Soak.reports
         && o1.Soak.summary = o2.Soak.summary
         && o1.Soak.summary = o4.Soak.summary))

(* --- annotated fleets: everything acked, no violations, any policy --- *)

let annotated_soak_acks_everything () =
  Array.iter
    (fun persist ->
      let o =
        Soak.run
          (small_fleet ~seed:77 ~adversary:storm ~persist)
      in
      let s = o.Soak.summary in
      Alcotest.(check int)
        (Printf.sprintf "gave_up under %s" (Persist.policy_to_string persist))
        0 s.Soak.s_gave_up;
      Alcotest.(check int)
        (Printf.sprintf "acked = submitted under %s" (Persist.policy_to_string persist))
        s.Soak.s_submitted s.Soak.s_acked;
      Alcotest.(check int)
        (Printf.sprintf "stuck under %s" (Persist.policy_to_string persist))
        0 s.Soak.s_stuck;
      Alcotest.(check bool)
        (Printf.sprintf "crashes delivered under %s" (Persist.policy_to_string persist))
        true
        (s.Soak.s_crashes_delivered > 0))
    policies

(* --- byte-identity pin: what the serve engine observably did --- *)

(* The storm x lossy fleet above, and the same fleet squeezed to a
   two-op admission queue so that closed and open-loop clients alike
   shed, back off, retry and give up.  A refactor of the engine must
   leave every figure here unchanged. *)
let storm_lossy_pinned () =
  let fleet = small_fleet ~seed:77 ~adversary:storm ~persist:Persist.Lossy in
  let pin name cfgs expected =
    let s = (Soak.run cfgs).Soak.summary in
    Alcotest.(check (pair string (list int)))
      (name ^ ": commit digest, acked / retries / timeouts / shed / gave up / sim steps / ticks")
      expected
      ( s.Soak.s_commit_digest,
        [
          s.Soak.s_acked;
          s.Soak.s_retries;
          s.Soak.s_timeouts;
          s.Soak.s_shed;
          s.Soak.s_gave_up;
          s.Soak.s_sim_steps;
          s.Soak.s_ticks;
        ] )
  in
  pin "storm x lossy" fleet ("d85e941ae21d3c4e773ec655dba42de2", [ 69; 73; 76; 0; 0; 11428; 353 ]);
  pin "storm x lossy, queue cap 2"
    (List.map (fun c -> { c with Instance.queue_cap = 2 }) fleet)
    ("4b99cb3504ddc4be3739a32ee3d3ba64", [ 65; 216; 39; 189; 4; 11186; 351 ])

(* One universal instance whose history runs to ~1000 ops: the online
   checker cuts it into dozens of windows, each reading only the events
   since its cut.  Pinned: the commit order, the number of checks, and
   the simulated steps and ticks. *)
let long_history_pinned () =
  let cfg =
    {
      (Soak.default ~id:0 ~seed:26) with
      Instance.persist = Persist.Lossy;
      sessions = 32;
      ops_per_session = 32;
    }
  in
  let r = Instance.run cfg in
  Alcotest.(check (pair string (list int)))
    "commit digest, checks run / acked / sim steps / ticks"
    ("542f0b5ad20fae9e042696feececd6eb", [ 33; 1004; 187254; 11747 ])
    ( Digest.to_hex (Digest.string r.Instance.r_commit_trace),
      [ r.Instance.r_checks_run; r.Instance.r_acked; r.Instance.r_sim_steps; r.Instance.r_ticks ] )

(* --- open-loop only: no closed session at all --- *)

(* Both kinds terminate with every arrival resolved; squeezed through a
   one-op queue at several arrivals per tick, some clients exhaust
   their retries and are counted as given up. *)
let open_loop_only () =
  List.iter
    (fun (kind, queue_cap, open_rate, open_ops) ->
      let base =
        {
          (Soak.default ~id:0 ~seed:5) with
          Instance.sessions = 0;
          open_ops;
          open_rate;
          queue_cap;
          persist = Persist.Lossy;
          adversary = storm;
        }
      in
      let cfg =
        if kind = Instance.Log then
          { base with Instance.kind; cert = Some (Lazy.force cert2) }
        else base
      in
      let r = Instance.run cfg in
      let name = Printf.sprintf "%s, queue cap %d" r.Instance.r_kind queue_cap in
      Alcotest.(check bool) (name ^ ": terminated") false r.Instance.r_stuck;
      Alcotest.(check int) (name ^ ": every arrival submitted") open_ops r.Instance.r_submitted;
      Alcotest.(check int)
        (name ^ ": acked + gave_up = submitted")
        r.Instance.r_submitted
        (r.Instance.r_acked + r.Instance.r_gave_up);
      if queue_cap = 1 then begin
        Alcotest.(check bool) (name ^ ": shed") true (r.Instance.r_shed > 0);
        Alcotest.(check bool) (name ^ ": some gave up") true (r.Instance.r_gave_up > 0)
      end
      else Alcotest.(check int) (name ^ ": nobody gave up") 0 r.Instance.r_gave_up)
    [
      (Instance.Universal, 32, 0.5, 12);
      (Instance.Log, 32, 0.5, 12);
      (Instance.Universal, 1, 4.0, 40);
      (Instance.Log, 1, 4.0, 40);
    ]

(* --- negative controls: the checkers are not vacuous --- *)

let bare_universal_is_caught () =
  let violated = ref 0 in
  for seed = 1 to 4 do
    let cfg =
      {
        (Soak.default ~id:0 ~seed) with
        Instance.annotated = false;
        persist = Persist.Lossy;
        adversary = Adversary.Storm { crash_prob = 0.08; burst = 2; max_crashes = 30 };
      }
    in
    match Instance.run cfg with
    | _ -> ()
    | exception Instance.Violation _ -> incr violated
  done;
  Alcotest.(check bool) "barrier-free universal caught under lossy churn" true (!violated >= 3)

(* Two instances of one fleet violate: the soak re-raises the lower id's
   violation on every domain count, even where the higher id fails
   first. *)
let lowest_violation_wins () =
  let bare ~id ~seed =
    {
      (Soak.default ~id ~seed) with
      Instance.annotated = false;
      persist = Persist.Lossy;
      adversary = Adversary.Storm { crash_prob = 0.08; burst = 2; max_crashes = 30 };
    }
  in
  let low = bare ~id:1 ~seed:1 and high = bare ~id:3 ~seed:2 in
  let violation cfg =
    match Instance.run cfg with
    | _ -> Alcotest.failf "instance %d must violate on its own" cfg.Instance.id
    | exception Instance.Violation v -> (v.instance, v.tick, v.msg)
  in
  let expected = violation low in
  ignore (violation high);
  let fleet = [ Soak.default ~id:0 ~seed:2; low; Soak.default ~id:2 ~seed:2; high ] in
  List.iter
    (fun domains ->
      match Soak.run ~domains fleet with
      | _ -> Alcotest.failf "soak on %d domains passed a violating fleet" domains
      | exception Instance.Violation v ->
          Alcotest.(check (triple int int string))
            (Printf.sprintf "lowest id's violation on %d domains" domains)
            expected (v.instance, v.tick, v.msg))
    [ 1; 2; 4 ]

let bare_log_never_acks () =
  (* without barriers the lossy log's quorum counter never becomes
     durable: it must refuse to acknowledge rather than lie *)
  let cfg =
    {
      (Soak.default ~id:0 ~seed:5) with
      Instance.kind = Instance.Log;
      cert = Some (Lazy.force cert2);
      annotated = false;
      persist = Persist.Lossy;
      sessions = 6;
      ops_per_session = 2;
      open_ops = 0;
      open_rate = 0.0;
      adversary = Adversary.Storm { crash_prob = 0.1; burst = 2; max_crashes = 30 };
    }
  in
  let r = Instance.run cfg in
  Alcotest.(check int) "no acks without durable commits" 0 r.Instance.r_acked;
  Alcotest.(check bool) "clients gave up" true (r.Instance.r_gave_up > 0);
  Alcotest.(check bool) "terminated" true (not r.Instance.r_stuck)

(* --- overload: explicit shedding, no deadlock, no silent drops --- *)

let overload_sheds_and_terminates () =
  let cfg =
    {
      (Soak.default ~id:0 ~seed:11) with
      Instance.sessions = 40;
      queue_cap = 4;
      persist = Persist.Lossy;
      adversary = Adversary.Uniform { crash_prob = 0.04; max_crashes = 8 };
    }
  in
  let r = Instance.run cfg in
  Alcotest.(check bool) "shed" true (r.Instance.r_shed > 0);
  Alcotest.(check bool) "overload answers" true (r.Instance.r_overloads > 0);
  Alcotest.(check bool) "terminated" true (not r.Instance.r_stuck);
  Alcotest.(check bool) "queue bounded" true (r.Instance.r_queue_high_water <= 4);
  (* no silent drops: every op is accounted for as acked, completed
     after its client gave up, or given up *)
  Alcotest.(check bool) "some ops still acked" true (r.Instance.r_acked > 0);
  Alcotest.(check int) "audit: acked + gave_up = submitted" r.Instance.r_submitted
    (r.Instance.r_acked + r.Instance.r_gave_up)

(* --- config validation --- *)

let validate_rejects () =
  let base = Soak.default ~id:0 ~seed:1 in
  let invalid name cfg =
    match Instance.validate cfg with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  invalid "log without certificate" { base with Instance.kind = Instance.Log };
  invalid "zero queue cap" { base with Instance.queue_cap = 0 };
  invalid "open ops without a rate"
    { base with Instance.open_ops = 5; open_rate = 0.0 }

(* --- metrics --- *)

let metrics_units () =
  let h = Metrics.hist ~cap:8 () in
  List.iter (Metrics.add h) [ 1; 1; 2; 3; 100 ];
  Alcotest.(check int) "p50" 2 (Metrics.percentile h 0.50);
  Alcotest.(check int) "p99 in overflow reports max_seen" 100 (Metrics.percentile h 0.99);
  Alcotest.(check int) "max" 100 h.Metrics.max_seen;
  let h2 = Metrics.hist ~cap:8 () in
  Metrics.add h2 4;
  Metrics.merge_into ~dst:h2 h;
  Alcotest.(check int) "merged total" 6 h2.Metrics.total;
  Alcotest.(check bool) "sparse is ascending" true
    (let s = List.map fst (Metrics.sparse h2) in
     s = List.sort_uniq compare s);
  let empty = Metrics.hist () in
  Alcotest.(check int) "empty percentile" 0 (Metrics.percentile empty 0.99)

let backoff_units () =
  let p = Backoff.default in
  let rng = Random.State.make [| 9 |] in
  for attempt = 0 to 40 do
    let d = Backoff.delay p ~rng ~attempt in
    Alcotest.(check bool)
      (Printf.sprintf "delay attempt %d in [1, cap]" attempt)
      true
      (d >= 1 && d <= p.Backoff.cap)
  done;
  (* exactly one draw per delay: two states stay in lockstep *)
  let r1 = Random.State.make [| 4 |] and r2 = Random.State.make [| 4 |] in
  let _ = Backoff.delay p ~rng:r1 ~attempt:0 in
  let _ = Random.State.int r2 (max 1 (min p.Backoff.cap p.Backoff.base)) in
  Alcotest.(check int) "one draw per delay" (Random.State.bits r1) (Random.State.bits r2)

let admission_units () =
  let q = Admission.create ~cap:2 in
  Alcotest.(check bool) "admit 1" true (Admission.try_enqueue q "a");
  Alcotest.(check bool) "admit 2" true (Admission.try_enqueue q "b");
  Alcotest.(check bool) "shed at cap" false (Admission.try_enqueue q "c");
  Alcotest.(check int) "shed count" 1 (Admission.shed q);
  Alcotest.(check int) "high water" 2 (Admission.high_water q);
  Alcotest.(check (list string)) "FIFO pop" [ "a"; "b" ] (Admission.pop_up_to q 5);
  Alcotest.(check bool) "empty after drain" true (Admission.is_empty q);
  Alcotest.(check int) "admitted" 2 (Admission.admitted q)

let session_units () =
  let log = ref [] in
  let s =
    Session.spawn (fun ctx ->
        (match ctx.Session.call ~idx:0 with
        | Session.Done v -> log := `Done v :: !log
        | Session.Overloaded -> log := `Over :: !log
        | Session.Timeout -> log := `Timeout :: !log);
        ctx.Session.sleep 3;
        log := `Awake :: !log)
  in
  Session.start s;
  (match Session.poised s with
  | Session.Calling 0 -> ()
  | _ -> Alcotest.fail "expected Calling 0");
  Session.answer s (Session.Done 42);
  (match Session.poised s with
  | Session.Sleeping 3 -> ()
  | _ -> Alcotest.fail "expected Sleeping 3");
  Session.wake s;
  Alcotest.(check bool) "finished" true (Session.poised s = Session.Finished);
  Alcotest.(check bool) "body observed answer then woke" true
    (!log = [ `Awake; `Done 42 ]);
  (* abort reclaims an unfinished fiber *)
  let s2 = Session.spawn (fun ctx -> ignore (ctx.Session.call ~idx:1)) in
  Session.start s2;
  Session.abort s2;
  Alcotest.(check bool) "aborted session finished" true (Session.poised s2 = Session.Finished)

(* --- the incremental adversary API --- *)

let adversary_decide_budget () =
  let a = Adversary.create ~seed:3 (Adversary.Uniform { crash_prob = 1.0; max_crashes = 3 }) in
  let total = ref 0 in
  for step = 0 to 9 do
    total := !total + List.length (Adversary.decide a ~eligible:[ 0; 1; 2 ] ~total_steps:step)
  done;
  Alcotest.(check int) "budget respected" 3 !total;
  Alcotest.(check int) "crashes_injected counts" 3 (Adversary.crashes_injected a);
  Alcotest.(check int) "requested = budget" 3 (Adversary.crashes_requested a);
  let b = Adversary.create ~seed:3 (Adversary.Storm { crash_prob = 1.0; burst = 2; max_crashes = 5 }) in
  let v1 = Adversary.decide b ~eligible:[ 0; 1; 2 ] ~total_steps:0 in
  Alcotest.(check int) "storm bursts" 2 (List.length v1);
  Alcotest.(check bool) "storm victims distinct" true (List.sort_uniq compare v1 = List.sort compare v1);
  let c = Adversary.create ~seed:3 (Adversary.Uniform { crash_prob = 1.0; max_crashes = 3 }) in
  Alcotest.(check (list int)) "empty pool" [] (Adversary.decide c ~eligible:[] ~total_steps:0)

let adversary_simultaneous_thresholds () =
  let a = Adversary.create ~seed:0 (Adversary.Simultaneous { crash_at = [ 30; 10 ] }) in
  Alcotest.(check (list int)) "not yet" [] (Adversary.decide a ~eligible:[ 0; 1 ] ~total_steps:9);
  let v = Adversary.decide a ~eligible:[ 0; 1 ] ~total_steps:12 in
  Alcotest.(check (list int)) "fires all eligible" [ 0; 1 ] v;
  Alcotest.(check int) "injected counts both" 2 (Adversary.crashes_injected a);
  Alcotest.(check (list int)) "each threshold fires once" []
    (Adversary.decide a ~eligible:[ 0; 1 ] ~total_steps:13);
  Alcotest.(check (list int)) "second threshold" [ 0 ]
    (Adversary.decide a ~eligible:[ 0 ] ~total_steps:30);
  Alcotest.(check (list int)) "spent" [] (Adversary.decide a ~eligible:[ 0; 1 ] ~total_steps:99)

let adversary_quiescent_window () =
  let a =
    Adversary.create ~seed:1
      (Adversary.Quiescent { period = 10; active = 2; crash_prob = 1.0; max_crashes = 100 })
  in
  Alcotest.(check (list int)) "quiescent part never fires" []
    (Adversary.decide a ~eligible:[ 0; 1 ] ~total_steps:7);
  Alcotest.(check int) "window crash fires" 1
    (List.length (Adversary.decide a ~eligible:[ 0; 1 ] ~total_steps:11))

let suite =
  [
    Alcotest.test_case "annotated soaks ack everything (eager/lossy/torn)" `Quick
      annotated_soak_acks_everything;
    Alcotest.test_case "storm x lossy fleet outcome is pinned" `Quick storm_lossy_pinned;
    Alcotest.test_case "long-history universal instance is pinned" `Quick long_history_pinned;
    Alcotest.test_case "open-loop-only instances resolve every arrival" `Quick open_loop_only;
    Alcotest.test_case "barrier-free universal is caught by the online checkers" `Quick
      bare_universal_is_caught;
    Alcotest.test_case "soak re-raises the lowest-id violation on 1/2/4 domains" `Quick
      lowest_violation_wins;
    Alcotest.test_case "barrier-free log refuses to ack rather than lie" `Quick
      bare_log_never_acks;
    Alcotest.test_case "overload sheds explicitly and terminates" `Quick
      overload_sheds_and_terminates;
    Alcotest.test_case "config validation rejects inconsistent knobs" `Quick validate_rejects;
    Alcotest.test_case "metrics histogram units" `Quick metrics_units;
    Alcotest.test_case "backoff delays bounded, one draw each" `Quick backoff_units;
    Alcotest.test_case "admission queue units" `Quick admission_units;
    Alcotest.test_case "session fiber lifecycle" `Quick session_units;
    Alcotest.test_case "adversary decide respects budgets" `Quick adversary_decide_budget;
    Alcotest.test_case "simultaneous thresholds" `Quick adversary_simultaneous_thresholds;
    Alcotest.test_case "quiescent windows gate decide" `Quick adversary_quiescent_window;
    qcheck_soak_deterministic;
  ]
