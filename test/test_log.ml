(* The recoverable replicated log (lib/log/rlog.ml): recovery replay,
   the quorum-counter committed prefix, prefix durability under every
   persist policy, and the negative controls.

   The headline facts, machine-checked here:
   - recovery is deterministic from (seed, adversary, persist policy) on
     any domain count (qcheck property);
   - a process recovers correctly whether its crash lands before slot 0,
     mid-chain, or after the last slot, under each persist policy (the
     unit matrix);
   - the annotated log passes exhaustive 1-crash sweeps under
     eager/lossy/torn; the barrier-free variant violates under lossy
     (the committed _counterexamples/e14_log_lossy.json replays the
     shrunk slots=2 agreement witness) and the inverted barrier order
     commits a slot whose decision is not durable. *)

open Rcons_runtime
module Rlog = Rcons_log.Rlog
module Cex = Rcons.Counterexample

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let cert2 = lazy (Helpers.cert_of Rcons_spec.Sticky_bit.t 2)

let policies = [ Persist.Eager; Persist.Lossy; Persist.Torn ]
let policy_str = Persist.policy_to_string

(* --- recovery determinism: qcheck over (seed, adversary, persist) --- *)

(* One full randomized run, summarized as a string fingerprint of
   everything observable: steps, crashes, the committed prefix, replay
   counts and the verdict. *)
let run_fingerprint ~seed ~adv ~policy =
  Persist.scoped ~barriers:true policy (fun () ->
      let t, sim = Rlog.instance ~slots:3 (Lazy.force cert2) in
      let adv = Adversary.create ~seed adv in
      match Adversary.run ~record:false ~on_crash:(fun pid -> Rlog.note_crash t ~pid) adv sim with
      | out ->
          let c = Rlog.committed t in
          let v = Rlog.verdict t in
          Printf.sprintf "steps=%d crashes=%d committed=%d replay=[%s] ok=%b"
            out.Adversary.steps out.Adversary.crashes c
            (String.concat ","
               (Array.to_list (Array.map string_of_int (Rlog.recovery_steps t))))
            (Rcons_history.Conditions.log_verdict_ok v)
      | exception Adversary.Stuck _ -> "stuck")

let adv_of_code code =
  match code mod 3 with
  | 0 -> Adversary.Storm { crash_prob = 0.05; burst = 2; max_crashes = 5 }
  | 1 -> Adversary.Uniform { crash_prob = 0.08; max_crashes = 5 }
  | _ -> Adversary.Targeted { victims = [ 0 ]; crash_prob = 0.1; max_crashes = 5 }

let policy_of_code code = List.nth policies (code mod 3)

let qcheck_recovery_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"log recovery deterministic from (seed, adversary, persist)"
       ~print:(fun (s, a, p) -> Printf.sprintf "seed=%d adv=%d pol=%d" s a p)
       QCheck2.Gen.(triple (int_bound 10_000) (int_bound 2) (int_bound 2))
       (fun (seed, adv_code, pol_code) ->
         let go () =
           run_fingerprint ~seed ~adv:(adv_of_code adv_code)
             ~policy:(policy_of_code pol_code)
         in
         (* identical when re-run, and on every domain count: the run
            draws only from its own Random.State, never domain-local
            randomness *)
         let base = go () in
         let on_domains d = (Rcons_par.Pool.map ~domains:d 2 (fun _ -> go ())).(0) in
         base = go () && base = on_domains 2 && base = on_domains 4))

(* --- the unit recovery matrix: slot 0 / mid-chain / last slot --- *)

(* Drive process 0 solo for [s] steps, crash it, run it to completion,
   and report how many slots its recovery replayed from the chain.
   Deterministic: no randomness anywhere. *)
let replay_after_crash ~policy ~slots ~crash_at =
  Persist.scoped ~barriers:true policy (fun () ->
      let t, sim = Rlog.instance ~slots (Lazy.force cert2) in
      let steps = ref 0 in
      while !steps < crash_at && not (Sim.finished sim 0) do
        ignore (Sim.step_proc sim 0);
        incr steps
      done;
      Sim.crash sim 0;
      while not (Sim.finished sim 0) do
        ignore (Sim.step_proc sim 0)
      done;
      (Rlog.recovery_steps t).(0))

(* Total solo steps to completion, for placing the late crash. *)
let solo_steps ~policy ~slots =
  Persist.scoped ~barriers:true policy (fun () ->
      let _, sim = Rlog.instance ~slots (Lazy.force cert2) in
      let steps = ref 0 in
      while not (Sim.finished sim 0) do
        ignore (Sim.step_proc sim 0);
        incr steps
      done;
      !steps)

let test_recovery_matrix () =
  let slots = 3 in
  List.iter
    (fun policy ->
      let name fmt = Printf.sprintf fmt (policy_str policy) in
      let total = solo_steps ~policy ~slots in
      (* crash before any step: recovery replays nothing (slot 0 is
         reached by appending, not replaying) *)
      Alcotest.(check int) (name "%s: crash at start replays 0") 0
        (replay_after_crash ~policy ~slots ~crash_at:1);
      (* crash after completion: the restart replays the whole chain *)
      Alcotest.(check int)
        (name "%s: crash after the last slot replays all")
        slots
        (replay_after_crash ~policy ~slots ~crash_at:total);
      (* sweeping the crash point must hit every intermediate replay
         count: mid-chain recovery at slot 1 and 2 *)
      let observed = Array.make (slots + 1) false in
      for s = 1 to total do
        let r = replay_after_crash ~policy ~slots ~crash_at:s in
        Alcotest.(check bool)
          (name "%s: replay count within range")
          true
          (r >= 0 && r <= slots);
        observed.(r) <- true
      done;
      for r = 0 to slots do
        Alcotest.(check bool)
          (Printf.sprintf "%s: some crash point recovers at slot %d" (policy_str policy) r)
          true observed.(r)
      done)
    policies

(* --- exhaustive: the annotated log passes, the controls fail --- *)

let explore_log ?(annotated = true) ?(vote_first = false) ~policy ~slots () =
  let mk () =
    Persist.scoped ~barriers:annotated policy (fun () ->
        let t, sim = Rlog.instance ~vote_first ~slots (Lazy.force cert2) in
        (sim, fun () -> Rlog.check_exn ~fail:Explore.fail t))
  in
  Explore.explore ~max_crashes:1 ~dedup:true ~por:true ~mk ()

let test_annotated_exhaustive () =
  List.iter
    (fun policy ->
      match explore_log ~policy ~slots:1 () with
      | stats ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: explored %d schedules / %d nodes" (policy_str policy)
               stats.Explore.schedules stats.Explore.nodes)
            true (stats.Explore.schedules > 0)
      | exception Explore.Violation v ->
          Alcotest.fail
            (Printf.sprintf "annotated log violated under %s: %s" (policy_str policy)
               v.Explore.v_msg))
    policies

let test_barrier_free_violates_lossy () =
  match explore_log ~annotated:false ~policy:Persist.Lossy ~slots:1 () with
  | _ -> Alcotest.fail "expected a violation from the barrier-free log under lossy"
  | exception Explore.Violation v ->
      Alcotest.(check bool)
        ("found: " ^ v.Explore.v_msg)
        true
        (String.length v.Explore.v_msg > 0)

let test_vote_first_commits_undurable () =
  (* The inverted barrier order (vote durable before the decision) is
     caught by the prefix-durability checker: a committed slot whose
     decision the heap cannot produce after a crash. *)
  match explore_log ~vote_first:true ~policy:Persist.Lossy ~slots:1 () with
  | _ -> Alcotest.fail "expected the vote-first barrier order to violate"
  | exception Explore.Violation v ->
      Alcotest.(check bool)
        ("diagnosis names durability: " ^ v.Explore.v_msg)
        true
        (contains ~sub:"not durable" v.Explore.v_msg)

(* --- shrink + replay of a live-found violation --- *)

let test_shrunk_violation_replays () =
  let w = Cex.log ~persist:Persist.Lossy ~slots:1 "sticky" in
  match Cex.mk w with
  | Error e -> Alcotest.fail e
  | Ok mk -> (
      match Explore.explore ~max_crashes:1 ~dedup:true ~por:true ~mk () with
      | _ -> Alcotest.fail "expected a violation"
      | exception Explore.Violation v -> (
          let cex = Cex.of_violation w v in
          match Cex.minimize cex with
          | Error e -> Alcotest.fail ("shrink refused the witness: " ^ e)
          | Ok m -> (
              Alcotest.(check bool)
                "shrunk no longer than original" true
                (List.length m.Cex.schedule <= List.length v.Explore.v_schedule);
              Alcotest.(check bool)
                "records original length" true
                (m.Cex.shrunk_from = Some (List.length v.Explore.v_schedule));
              match Cex.replay m with
              | `Violated _ -> ()
              | `Passed -> Alcotest.fail "shrunk schedule no longer violates")))

(* --- the committed artifact --- *)

let find_artifact () =
  let rec go dir depth =
    if depth > 6 then None
    else
      let candidate = Filename.concat dir "_counterexamples/e14_log_lossy.json" in
      if Sys.file_exists candidate then Some candidate
      else go (Filename.concat dir "..") (depth + 1)
  in
  go "." 0

let test_committed_artifact_replays () =
  match find_artifact () with
  | None -> Alcotest.fail "cannot locate _counterexamples/e14_log_lossy.json"
  | Some file -> (
      let cex = Cex.load ~file in
      Alcotest.(check bool)
        "it is the replicated-log workload" true
        (cex.Cex.workload.Cex.log_slots = Some 2);
      Alcotest.(check bool)
        "under the lossy cache" true
        (cex.Cex.workload.Cex.persist = Persist.Lossy);
      Alcotest.(check bool) "barrier-free" false cex.Cex.workload.Cex.annotated;
      match Cex.replay cex with
      | `Violated msg ->
          Alcotest.(check bool)
            ("still fires: " ^ msg)
            true
            (contains ~sub:"agreement" msg || contains ~sub:"durable" msg)
      | `Passed -> Alcotest.fail "committed log witness went stale")

(* --- checkpoint robustness (satellite: atomic save, corrupt load) --- *)

let test_checkpoint_save_atomic_no_tmp () =
  (* A successful save must leave the temp file renamed away and the
     checkpoint loadable. *)
  let w = Cex.log ~persist:Persist.Lossy ~annotated:true ~slots:1 "sticky" in
  let mk = match Cex.mk w with Ok mk -> mk | Error e -> failwith e in
  let file = Filename.temp_file "rcons_ckpt" ".json" in
  (match Explore.explore ~max_crashes:1 ~dedup:true ~node_budget:50 ~mk () with
  | _ -> Alcotest.fail "tiny node budget should interrupt"
  | exception Explore.Interrupted ck ->
      Explore.save_checkpoint ~file ck;
      Alcotest.(check bool) "no .tmp residue" false (Sys.file_exists (file ^ ".tmp"));
      let ck' = Explore.load_checkpoint ~file in
      Explore.save_checkpoint ~file ck';
      Alcotest.(check bool) "round-trips" true (Sys.file_exists file);
      Sys.remove file)

let write_tmp contents =
  let file = Filename.temp_file "rcons_ckpt" ".json" in
  let oc = open_out file in
  output_string oc contents;
  close_out oc;
  file

let test_corrupt_checkpoint_diagnosis () =
  (* Garbage bytes: the loader must fail with a one-line diagnosis (the
     CLI maps these to exit 2), never a parser backtrace. *)
  let garbage = write_tmp "{\"version\": 1, \"frontier\": [[garbage" in
  (match Explore.load_checkpoint ~file:garbage with
  | _ -> Alcotest.fail "garbage checkpoint should not load"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("diagnosis is one line: " ^ msg)
        true
        (String.length msg > 0 && not (String.contains msg '\n')));
  Sys.remove garbage;
  (* Valid JSON of the wrong shape: named missing field. *)
  let wrong = write_tmp {|{"version": 1}|} in
  (match Explore.load_checkpoint ~file:wrong with
  | _ -> Alcotest.fail "field-less checkpoint should not load"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("names the problem: " ^ msg) true (String.length msg > 0));
  Sys.remove wrong;
  (* Only format version 4 loads.  A checkpoint from an older build --
     version 3 (its digests hash framed heap slots and decimal counts,
     so no state of this build matches them), version 2 (five parameter
     fields that cannot name a reduction), one naming the exploration
     engine that cut it, a version 1 file (whose dedup digests name
     list-format fingerprints), or one with no version at all -- may
     mean something else here, so the loader refuses it with one line
     naming the version (CLI exit 2), raw or dedup alike. *)
  let stats distinct =
    Printf.sprintf
      {|"stats": {"schedules": 0, "nodes": 1, "max_depth": 0, "dedup_hits": 0,
                  "distinct_states": %d, "por_pruned": 0, "symmetry_hits": 0},
        "cursor": ["s0"],|}
      distinct
  in
  let old ~version ?(engine = "") ~dedup visited =
    Printf.sprintf
      {|{%s "kind": "explore-checkpoint", "max_crashes": 1, "max_steps": 100,
         "dedup": %b, "por": false, %s "fingerprint": null, %s "visited": [%s]}|}
      version dedup engine
      (stats (List.length visited))
      (String.concat ", " (List.map (Printf.sprintf "%S") visited))
  in
  let current ~version visited =
    Printf.sprintf
      {|{%s "kind": "explore-checkpoint",
         "provenance": {"origin": "explore", "seed": null,
                        "params": {"max_crashes": "1", "max_steps": "10000", "dedup": "true"},
                        "fingerprint": null}, %s
         "visited": [%s]}|}
      version
      (stats (List.length visited))
      (String.concat ", " (List.map (Printf.sprintf "\"%s 0:0\"") visited))
  in
  let digest = "0123456789abcdef0123456789abcdef" in
  List.iter
    (fun (what, named, contents) ->
      let file = write_tmp contents in
      (match Explore.load_checkpoint ~file with
      | _ -> Alcotest.failf "%s checkpoint should not load" what
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: one-line diagnosis naming the problem: %s" what msg)
            true
            (contains ~sub:named msg && not (String.contains msg '\n')));
      Sys.remove file)
    [
      ("version 2 dedup", "version 2", old ~version:{|"version": 2,|} ~dedup:true [ digest ]);
      ("version 2 raw", "version 2", old ~version:{|"version": 2,|} ~dedup:false []);
      ( "alien-engine",
        "version 1",
        old ~version:{|"version": 1,|} ~engine:{|"engine": "snapshot-v2",|} ~dedup:false [] );
      ("version 1 dedup", "version 1", old ~version:{|"version": 1,|} ~dedup:true [ digest ]);
      ("version 1 raw", "version 1", old ~version:{|"version": 1,|} ~dedup:false []);
      ("unversioned dedup", "unversioned", old ~version:"" ~dedup:true [ digest ]);
      ("unversioned raw", "unversioned", old ~version:"" ~dedup:false []);
      ("version 3", "version 3", current ~version:{|"version": 3,|} [ digest ]);
      ("newer", "version 5", current ~version:{|"version": 5,|} [ digest ]);
      ("short digest", "visited entry", current ~version:{|"version": 4,|} [ "0123" ]);
      ( "cover without depth",
        "visited entry",
        current ~version:{|"version": 4,|} [ digest ^ " 1" ] );
    ];
  (* A version 4 file loads, covers included. *)
  let file = write_tmp (current ~version:{|"version": 4,|} [ digest ]) in
  Alcotest.(check int) "version 4 checkpoint loads" 1
    (Explore.checkpoint_stats (Explore.load_checkpoint ~file)).nodes;
  Sys.remove file;
  (* Unreadable path: Sys_error, same exit-2 mapping in the CLI. *)
  match Explore.load_checkpoint ~file:"/nonexistent/nowhere.json" with
  | _ -> Alcotest.fail "missing checkpoint should not load"
  | exception Sys_error _ -> ()

(* A checkpoint records the provenance of the run that cut it, workload
   fingerprint included.  Resuming a lossy-cache checkpoint under the
   eager model -- the same algorithm, so the cursor alone cannot tell
   them apart -- would silently finish a different exploration; it must
   be refused with a one-line diagnosis naming both workloads (CLI exit
   2), also after a save/load round trip. *)
let test_checkpoint_refuses_other_workload () =
  let build persist =
    let w = Cex.log ~persist ~annotated:true ~slots:1 "sticky" in
    match Cex.mk w with Ok mk -> (mk, Cex.fingerprint w) | Error e -> failwith e
  in
  let lossy_mk, lossy_fp = build Persist.Lossy in
  let eager_mk, eager_fp = build Persist.Eager in
  let cp =
    match
      Explore.explore ~max_crashes:1 ~dedup:true ~node_budget:50 ~fingerprint:lossy_fp
        ~mk:lossy_mk ()
    with
    | _ -> Alcotest.fail "tiny node budget should interrupt"
    | exception Explore.Interrupted cp -> Explore.checkpoint_of_json (Explore.checkpoint_to_json cp)
  in
  match
    Explore.explore ~max_crashes:1 ~dedup:true ~resume_from:cp ~fingerprint:eager_fp
      ~mk:eager_mk ()
  with
  | _ -> Alcotest.fail "a lossy checkpoint resumed under eager should be refused"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("one line naming the mismatch: " ^ msg)
        true
        (contains ~sub:lossy_fp msg && contains ~sub:eager_fp msg
        && not (String.contains msg '\n'))

(* --- name resolution used by the log workloads --- *)

let test_catalogue_alias_handling () =
  let resolves name =
    match Rcons_spec.Catalogue.of_name name with Ok _ -> true | Error _ -> false
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "%S resolves" name) true (resolves name))
    [ "sticky"; "sticky-bit"; "STICKY"; " sticky "; "S3"; "S_3"; "s3"; "tas"; "T4"; "T_4" ];
  (match Rcons_spec.Catalogue.of_name "no-such-type" with
  | Ok _ -> Alcotest.fail "bogus name resolved"
  | Error msg ->
      Alcotest.(check bool)
        ("error lists the valid names: " ^ msg)
        true
        (contains ~sub:"sticky-bit" msg && contains ~sub:"S<n>" msg));
  match Rcons_spec.Catalogue.of_name "S0" with
  | Ok _ -> Alcotest.fail "S0 resolved"
  | Error msg ->
      Alcotest.(check bool) ("out-of-range diagnosis: " ^ msg) true (contains ~sub:"n >= 2" msg)

let test_adversary_policy_names () =
  (* The CLI's --adversary resolver: every listed name round-trips, an
     unknown one gets the full listing (the CLI prints it and exits 2). *)
  List.iter
    (fun name ->
      match Adversary.policy_of_string name with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%S should resolve: %s" name e))
    Adversary.policy_names;
  match Adversary.policy_of_string "chaos-monkey" with
  | Ok _ -> Alcotest.fail "bogus adversary resolved"
  | Error msg ->
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "listing includes %S" name)
            true (contains ~sub:name msg))
        Adversary.policy_names

(* [note_crash] samples the committed prefix once per crash; the trace
   ends with the current readout, and reading the verdict changes
   neither. *)
let test_committed_trace () =
  Persist.scoped ~barriers:true Persist.Lossy (fun () ->
      let t, sim = Rlog.instance ~slots:3 (Lazy.force cert2) in
      let adv = Adversary.create ~seed:5 (adv_of_code 0) in
      let out = Adversary.run ~record:false ~on_crash:(fun pid -> Rlog.note_crash t ~pid) adv sim in
      let trace = Rlog.committed_trace t in
      Alcotest.(check bool) "crashes happened" true (out.Adversary.crashes > 0);
      Alcotest.(check int) "one sample per crash, plus the end" (out.Adversary.crashes + 1)
        (List.length trace);
      Alcotest.(check int) "ends with the current prefix" (Rlog.committed t)
        (List.nth trace (List.length trace - 1));
      let v = Rlog.verdict t in
      Alcotest.(check bool) "verdict repeatable" true (v = Rlog.verdict t);
      Alcotest.(check (list int)) "trace unchanged by the verdict" trace (Rlog.committed_trace t))

let suite =
  [
    qcheck_recovery_deterministic;
    Alcotest.test_case "recovery matrix: slot 0 / mid-chain / last" `Quick test_recovery_matrix;
    Alcotest.test_case "committed trace samples every crash" `Quick test_committed_trace;
    Alcotest.test_case "annotated log exhaustive under all policies" `Slow
      test_annotated_exhaustive;
    Alcotest.test_case "barrier-free log violates under lossy" `Slow
      test_barrier_free_violates_lossy;
    Alcotest.test_case "vote-first commits an un-durable decision" `Slow
      test_vote_first_commits_undurable;
    Alcotest.test_case "shrunk log violation still replays" `Slow test_shrunk_violation_replays;
    Alcotest.test_case "committed log witness replays" `Quick test_committed_artifact_replays;
    Alcotest.test_case "checkpoint save is atomic" `Quick test_checkpoint_save_atomic_no_tmp;
    Alcotest.test_case "corrupt checkpoint diagnosis" `Quick test_corrupt_checkpoint_diagnosis;
    Alcotest.test_case "checkpoint refuses a different workload" `Quick
      test_checkpoint_refuses_other_workload;
    Alcotest.test_case "catalogue aliases for log workloads" `Quick test_catalogue_alias_handling;
    Alcotest.test_case "adversary policy names round-trip" `Quick test_adversary_policy_names;
  ]
