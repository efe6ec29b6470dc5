(* The weak-persistency fault model: the [Persist] write-back cache, the
   flush/fence barriers, the crash semantics (lossy / torn), their
   integration with fingerprints and the explorer, and the
   durable-linearizability condition built on them.

   The two headline facts, machine-checked here:
   - the un-annotated Figure 2 violates agreement under [Lossy] (the
     committed [_counterexamples/e12_fig2_lossy.json] replays it), and
   - the persist-annotated variant passes the exhaustive 1-crash check
     under the same policy. *)

open Rcons_runtime
module Cex = Rcons.Counterexample

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Locate the committed artifact from wherever the test runner is cwd'd:
   dune runs tests in _build sandboxes at varying depths. *)
let find_artifact () =
  let rec go dir depth =
    if depth > 6 then None
    else
      let candidate = Filename.concat dir "_counterexamples/e12_fig2_lossy.json" in
      if Sys.file_exists candidate then Some candidate else go (Filename.concat dir "..") (depth + 1)
  in
  go "." 0

(* --- the cache itself --- *)

let test_policy_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        "round-trips" true
        (Persist.policy_of_string (Persist.policy_to_string p) = p))
    [ Persist.Eager; Persist.Lossy; Persist.Torn ];
  (match Persist.policy_of_string "write-through" with
  | _ -> Alcotest.fail "unknown policy should raise"
  | exception Invalid_argument _ -> ());
  match Persist.create ~flush_cost:0 Persist.Lossy with
  | _ -> Alcotest.fail "flush_cost 0 should raise"
  | exception Invalid_argument _ -> ()

let test_eager_attaches_no_lines () =
  (* The eager cache creates no lines at all: cells built under it are
     indistinguishable from cells built with no cache, which is what
     keeps every seed digest and schedule byte-identical. *)
  Persist.scoped Persist.Eager (fun () ->
      let c = Cell.make 42 in
      Alcotest.(check bool) "no line" true (Cell.line c = None))

let test_lossy_revert_and_flush () =
  Persist.scoped Persist.Lossy (fun () ->
      let c = Cell.make 0 in
      let sim =
        Sim.create ~n:1 (fun _ () ->
            Cell.write c 1;
            (* un-flushed: a crash here loses the write *)
            Cell.write c 2;
            Cell.flush c;
            (* flushed: durable from here on *)
            Cell.write c 3)
      in
      ignore (Sim.step_proc sim 0) (* start *);
      ignore (Sim.step_proc sim 0) (* write 1 *);
      Alcotest.(check int) "volatile copy visible" 1 (Cell.peek c);
      Alcotest.(check int) "durable copy untouched" 0 (Cell.peek_persisted c);
      Sim.crash sim 0;
      Alcotest.(check int) "un-flushed write reverted" 0 (Cell.peek c);
      (* re-run to past the flush, then crash: the flushed value stays *)
      ignore (Sim.step_proc sim 0);
      ignore (Sim.step_proc sim 0) (* write 1 *);
      ignore (Sim.step_proc sim 0) (* write 2 *);
      ignore (Sim.step_proc sim 0) (* flush *);
      Alcotest.(check int) "flush persists" 2 (Cell.peek_persisted c);
      ignore (Sim.step_proc sim 0) (* write 3 *);
      Sim.crash sim 0;
      Alcotest.(check int) "reverts to flushed value" 2 (Cell.peek c))

let test_lossy_coherence () =
  (* The cache is write-back, not write-invisible: OTHER processes see
     un-flushed writes immediately (shared volatile copy); only
     durability is deferred. *)
  Persist.scoped Persist.Lossy (fun () ->
      let c = Cell.make 0 in
      let seen = ref (-1) in
      let sim =
        Sim.create ~n:2 (fun pid () ->
            if pid = 0 then Cell.write c 7 else seen := Cell.read c)
      in
      ignore (Sim.step_proc sim 0);
      ignore (Sim.step_proc sim 0) (* p0 writes, un-flushed *);
      ignore (Sim.step_proc sim 1);
      ignore (Sim.step_proc sim 1) (* p1 reads *);
      Alcotest.(check int) "p1 sees p0's un-flushed write" 7 !seen)

let test_crash_only_reverts_owner () =
  (* Crash of q must not touch p's dirty lines. *)
  Persist.scoped Persist.Lossy (fun () ->
      let a = Cell.make 0 and b = Cell.make 0 in
      let sim =
        Sim.create ~n:2 (fun pid () -> if pid = 0 then Cell.write a 1 else Cell.write b 2)
      in
      ignore (Sim.step_proc sim 0);
      ignore (Sim.step_proc sim 0);
      ignore (Sim.step_proc sim 1);
      ignore (Sim.step_proc sim 1);
      Sim.crash sim 1;
      Alcotest.(check int) "p0's dirty line survives p1's crash" 1 (Cell.peek a);
      Alcotest.(check int) "p1's dirty line reverted" 0 (Cell.peek b))

let test_fence_persists_all_own_lines () =
  Persist.scoped Persist.Lossy (fun () ->
      let a = Cell.make 0 and b = Cell.make 0 in
      let sim =
        Sim.create ~n:1 (fun _ () ->
            Cell.write a 1;
            Cell.write b 2;
            Sim.fence ())
      in
      for _ = 1 to 4 do
        ignore (Sim.step_proc sim 0)
      done;
      Alcotest.(check int) "a fenced" 1 (Cell.peek_persisted a);
      Alcotest.(check int) "b fenced" 2 (Cell.peek_persisted b);
      Sim.crash sim 0;
      Alcotest.(check (pair int int)) "nothing reverts" (1, 2) (Cell.peek a, Cell.peek b))

let test_flush_cost_steps () =
  (* A barrier takes exactly [flush_cost] steps under every policy. *)
  List.iter
    (fun policy ->
      Persist.scoped ~flush_cost:3 policy (fun () ->
          let c = Cell.make 0 in
          let sim =
            Sim.create ~n:1 (fun _ () ->
                Cell.write c 1;
                Cell.flush c)
          in
          ignore (Sim.step_proc sim 0) (* start *);
          ignore (Sim.step_proc sim 0) (* write *);
          ignore (Sim.step_proc sim 0) (* flush 1/3 *);
          ignore (Sim.step_proc sim 0) (* flush 2/3 *);
          (match policy with
          | Persist.Eager -> ()
          | _ ->
              Alcotest.(check int)
                "not yet persisted mid-barrier" 0 (Cell.peek_persisted c));
          ignore (Sim.step_proc sim 0) (* flush 3/3: write-back happens *);
          Alcotest.(check bool) "finished" true (Sim.finished sim 0);
          match policy with
          | Persist.Eager ->
              (* no line: the write was durable at its own step *)
              Alcotest.(check int) "eager writes straight through" 1 (Cell.peek c)
          | _ -> Alcotest.(check int) "persisted at the last barrier step" 1 (Cell.peek_persisted c)))
    [ Persist.Eager; Persist.Lossy; Persist.Torn ]

let test_torn_parity_deterministic () =
  (* A torn crash persists the parity-selected subset of the victim's
     dirty lines and loses the rest -- deterministically, so replay and
     fingerprint-dedup stay sound. *)
  let run () =
    Persist.scoped Persist.Torn (fun () ->
        let cells = Array.init 4 (fun _ -> Cell.make 0) in
        let sim =
          Sim.create ~n:1 (fun _ () -> Array.iteri (fun i c -> Cell.write c (i + 1)) cells)
        in
        for _ = 1 to 5 do
          ignore (Sim.step_proc sim 0)
        done;
        Sim.crash sim 0;
        Array.map (fun c -> (Cell.peek c, Cell.peek_persisted c)) cells)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two runs tear identically" true (a = b);
  let kept = Array.to_list a |> List.filter (fun (v, _) -> v <> 0) |> List.length in
  Alcotest.(check bool)
    (Printf.sprintf "a torn crash is partial: kept %d of 4" kept)
    true
    (kept > 0 && kept < 4)

let test_silent_store_keeps_owner () =
  (* A write of the physically identical value must not steal line
     ownership: q's no-op write followed by q's crash would otherwise
     revert p's un-persisted change. *)
  Persist.scoped Persist.Lossy (fun () ->
      let c = Cell.make 0 in
      let sim =
        Sim.create ~n:2 (fun pid () ->
            if pid = 0 then Cell.write c 5 else Cell.write c (Cell.read c))
      in
      ignore (Sim.step_proc sim 0);
      ignore (Sim.step_proc sim 0) (* p0 writes 5, dirty, owner p0 *);
      ignore (Sim.step_proc sim 1);
      ignore (Sim.step_proc sim 1) (* p1 reads 5 *);
      ignore (Sim.step_proc sim 1) (* p1 re-writes the same 5 *);
      Sim.crash sim 1;
      Alcotest.(check int) "p0's write survives p1's crash" 5 (Cell.peek c);
      Sim.crash sim 0;
      Alcotest.(check int) "and reverts only when p0 crashes" 0 (Cell.peek c))

(* --- fingerprints --- *)

let test_fingerprint_sees_cache_state () =
  (* Two executions with identical volatile contents, step counts and
     control state, differing only in WHICH line got flushed, must
     fingerprint differently: their futures differ (a crash reverts one
     and not the other).  Dedup soundness depends on it. *)
  let fp flush_c =
    let saved = Heap.current () in
    Heap.activate (Heap.create ());
    Fun.protect
      ~finally:(fun () ->
        match saved with Some a -> Heap.activate a | None -> Heap.deactivate ())
      (fun () ->
        Persist.scoped Persist.Lossy (fun () ->
            let c = Cell.make 0 and d = Cell.make 0 in
            let sim =
              Sim.create ~n:1 (fun _ () ->
                  Cell.write c 1;
                  Cell.flush (if flush_c then c else d))
            in
            for _ = 1 to 3 do
              ignore (Sim.step_proc sim 0)
            done;
            (Sim.fingerprint_digest sim, (Cell.peek c, Cell.peek d))))
  in
  let fp_clean, v_clean = fp true and fp_dirty, v_dirty = fp false in
  Alcotest.(check (pair int int)) "same volatile contents either way" v_clean v_dirty;
  Alcotest.(check bool) "different fingerprints" true (fp_dirty <> fp_clean)

(* --- eager byte-identity regression pin --- *)

let test_eager_scoped_byte_identical () =
  (* Same-seed adversary runs must be event-for-event identical with no
     cache and under an explicitly scoped eager model: the persistency
     layer is strictly opt-in.  (The e2/e4/e7 experiment tables are the
     coarse version of this pin; this is the fine-grained one.) *)
  let run scoped =
    let go () =
      let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t 2 in
      let sys = Helpers.team_system cert () in
      let rng = Random.State.make [| 2022 |] in
      let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob = 0.15; max_crashes = 4 }) in
      ignore (Adversary.run ~record:false adv sys.Helpers.sim);
      ignore (Helpers.crash_and_rerun ~rng sys.Helpers.sim);
      ( Sim.events sys.Helpers.sim,
        Array.to_list sys.Helpers.outputs.Rcons_algo.Outputs.outputs )
    in
    (* An eager scope installs no cache, even over another ambient one. *)
    if scoped then Persist.scoped Persist.Lossy (fun () -> Persist.scoped Persist.Eager go)
    else go ()
  in
  let ev_plain, out_plain = run false and ev_eager, out_eager = run true in
  Alcotest.(check bool) "identical event streams" true (ev_plain = ev_eager);
  Alcotest.(check bool) "identical outputs" true (out_plain = out_eager)

(* --- Figure 2 under the lossy cache --- *)

let lossy_workload ?(annotated = false) () =
  Cex.team2 ~persist:Persist.Lossy ~annotated "sticky"

(* The explorer's provenance parameters of the violation [w] produces:
   the persistency model must come from the system [mk] built, with no
   ambient scope around the call. *)
let violation_params w =
  match Cex.mk w with
  | Error e -> Alcotest.fail e
  | Ok mk -> (
      match Explore.explore ~max_crashes:1 ~mk () with
      | _ -> Alcotest.fail ("expected a violation on " ^ Cex.fingerprint w)
      | exception Explore.Violation v -> (
          Alcotest.(check bool) ("found: " ^ v.Explore.v_msg) true
            (String.length v.Explore.v_msg > 0);
          match v.Explore.v_provenance with
          | Some p -> p.Schedule.params
          | None -> Alcotest.fail "violation without provenance"))

let test_unannotated_fig2_violates_lossy () =
  let params = violation_params (lossy_workload ()) in
  Alcotest.(check (option string)) "provenance records the system's policy" (Some "lossy")
    (List.assoc_opt "persist" params);
  Alcotest.(check (option string)) "and its flush cost" (Some "1")
    (List.assoc_opt "flush_cost" params);
  (* An eager workload (the broken level-3 negative control) builds with
     no cache, and its provenance records no persistency at all. *)
  let params = violation_params (Cex.team2 ~faithful:false ~level:3 "sticky") in
  Alcotest.(check bool) "eager: no persist param" false (List.mem_assoc "persist" params);
  Alcotest.(check bool) "eager: no flush_cost param" false (List.mem_assoc "flush_cost" params)

(* A lossy workload explored with no ambient scope at all is reduced as
   lossy: the sleep sets must not let crashes commute with other
   processes' steps.  These are the bench/perf explore-reduced pins;
   reduced as eager, the same workload walks 74 232 nodes. *)
let test_unwrapped_lossy_reduced_pin () =
  let w = Cex.log ~persist:Persist.Lossy ~annotated:true ~slots:1 ~level:2 "sticky" in
  match Cex.mk w with
  | Error e -> Alcotest.fail e
  | Ok mk ->
      let s = Explore.explore ~max_crashes:1 ~dedup:true ~por:true ~mk () in
      Alcotest.(check (list int)) "schedules / nodes / distinct states / por-pruned"
        [ 8; 120_843; 47_443; 42_605 ]
        [ s.Explore.schedules; s.nodes; s.distinct_states; s.por_pruned ]

(* Under an eager cache at flush cost 3 no object has a line, so each
   barrier takes its cost from the step context -- also when a rollback
   rebuilds a continuation, long after the build's scope has closed. *)
let test_rollback_keeps_barrier_cost () =
  match Cex.mk (Cex.team2 ~annotated:true ~flush_cost:3 "sticky") with
  | Error e -> Alcotest.fail e
  | Ok mk ->
      let run undo = Explore.explore ~max_crashes:0 ~dedup:true ~undo ~mk () in
      Alcotest.(check bool) "rollback = rebuild" true (run true = run false)

let test_committed_artifact_replays () =
  match find_artifact () with
  | None -> Alcotest.fail "cannot locate _counterexamples/e12_fig2_lossy.json"
  | Some file -> (
      let cex = Cex.load ~file in
      Alcotest.(check string) "it is the agreement violation" "agreement violated" cex.Cex.msg;
      Alcotest.(check bool) "workload is lossy" true (cex.Cex.workload.Cex.persist = Persist.Lossy);
      Alcotest.(check bool) "un-annotated" false cex.Cex.workload.Cex.annotated;
      match Cex.replay cex with
      | `Violated msg -> Alcotest.(check string) "still fires" "agreement violated" msg
      | `Passed -> Alcotest.fail "committed lossy witness went stale")

let test_annotated_fig2_exhaustive_lossy () =
  (* The acceptance check: the annotated variant survives every 1-crash
     schedule under the lossy cache.  [dedup] makes it feasible -- raw
     interleavings explode with the extra barrier steps, distinct states
     do not -- and is sound because cache state is fingerprinted. *)
  let w = lossy_workload ~annotated:true () in
  match Cex.mk w with
  | Error e -> Alcotest.fail e
  | Ok mk -> (
      match
        Explore.explore ~max_crashes:1 ~dedup:true ~fingerprint:(Cex.fingerprint w) ~mk ()
      with
      | stats ->
          Alcotest.(check bool)
            (Printf.sprintf "no violation in %d schedules / %d states" stats.Explore.schedules
               stats.Explore.distinct_states)
            true (stats.Explore.schedules > 0)
      | exception Explore.Violation v ->
          Alcotest.fail ("annotated variant violated: " ^ v.Explore.v_msg))

let test_annotated_fig2_exhaustive_torn () =
  let w = Cex.team2 ~persist:Persist.Torn ~annotated:true "sticky" in
  match Cex.mk w with
  | Error e -> Alcotest.fail e
  | Ok mk -> (
      match
        Explore.explore ~max_crashes:1 ~dedup:true ~fingerprint:(Cex.fingerprint w) ~mk ()
      with
      | stats -> Alcotest.(check bool) "explored" true (stats.Explore.schedules > 0)
      | exception Explore.Violation v ->
          Alcotest.fail ("annotated variant violated under torn: " ^ v.Explore.v_msg))

(* --- shrinking (satellite: a shrunk lossy schedule still violates) --- *)

let lossy_mk =
  lazy (match Cex.mk (lossy_workload ()) with Ok mk -> mk | Error e -> failwith e)

(* Random raw schedules over the 2-process lossy system: ~9% crash
   choices, the rest steps, alternating pids by the encoded value. *)
let schedule_gen = QCheck2.Gen.(list_size (int_range 10 60) (int_bound 999))

let decode codes =
  List.map
    (fun x ->
      let pid = x mod 2 in
      if x mod 11 = 0 then Schedule.Crash_choice pid else Schedule.Step_choice pid)
    codes

let violations_seen = ref 0

let qcheck_shrunk_lossy_still_violates =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"shrunk lossy schedule still violates under replay"
       ~print:(fun codes -> String.concat ";" (List.map string_of_int codes))
       schedule_gen
       (fun codes ->
         let mk = Lazy.force lossy_mk in
         let schedule = decode codes in
         match Shrink.check ~mk schedule with
         | None -> true (* this schedule found no violation: nothing to preserve *)
         | Some (msg, _) -> (
             incr violations_seen;
             let cex =
               {
                 Cex.workload = lossy_workload ();
                 msg;
                 schedule;
                 shrunk_from = None;
                 provenance = None;
               }
             in
             match Cex.minimize cex with
             | Error _ -> false (* shrink refused a violating schedule *)
             | Ok m -> (
                 List.length m.Cex.schedule <= List.length schedule
                 && m.Cex.shrunk_from = Some (List.length schedule)
                 &&
                 match Cex.replay m with
                 | `Violated _ -> true
                 | `Passed -> false (* the shrunk schedule must still violate *)))))

let test_shrunk_lossy_found_some () =
  (* The property above must not pass vacuously: across the generated
     schedules the checker has to hit real violations. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d violating schedules exercised" !violations_seen)
    true (!violations_seen > 0)

(* --- durable linearizability --- *)

let counter_spec : (int, string, int) Rcons_history.Linearizability.spec =
  {
    Rcons_history.Linearizability.init = 0;
    apply =
      (fun s op ->
        match op with
        | "incr" -> (s + 1, s + 1)
        | "get" -> (s, s)
        | _ -> invalid_arg "counter_spec");
    equal_resp = ( = );
  }

let test_durable_lin_unpersisted_op_may_vanish () =
  (* p0 completes incr->1 but never persists it; a crash follows; p1
     then reads 0.  Recoverable linearizability rejects this history
     (the incr happened before the get), durable linearizability
     accepts it (the un-persisted incr may have vanished). *)
  let h = Rcons_history.History.create () in
  let t0 = Rcons_history.History.invoke h ~pid:0 "incr" in
  Rcons_history.History.respond h ~pid:0 ~tag:t0 1;
  Rcons_history.History.crash h ~pid:0;
  let t1 = Rcons_history.History.invoke h ~pid:1 "get" in
  Rcons_history.History.respond h ~pid:1 ~tag:t1 0;
  Alcotest.(check bool)
    "not recoverably linearizable" false
    (Rcons_history.Conditions.recoverably_linearizable counter_spec h);
  Alcotest.(check bool)
    "durably linearizable" true
    (Rcons_history.Conditions.durably_linearizable counter_spec h)

let test_durable_lin_persisted_op_mandatory () =
  (* Same history, but the incr carries a persist marker: now it may NOT
     vanish, and the stale read violates even the durable condition. *)
  let h = Rcons_history.History.create () in
  let t0 = Rcons_history.History.invoke h ~pid:0 "incr" in
  Rcons_history.History.persist h ~pid:0 ~tag:t0;
  Rcons_history.History.respond h ~pid:0 ~tag:t0 1;
  Rcons_history.History.crash h ~pid:0;
  let t1 = Rcons_history.History.invoke h ~pid:1 "get" in
  Rcons_history.History.respond h ~pid:1 ~tag:t1 0;
  Alcotest.(check bool)
    "not durably linearizable" false
    (Rcons_history.Conditions.durably_linearizable counter_spec h)

let test_durable_lin_no_crash_is_plain () =
  (* With no crash in the history nothing may vanish: durable and
     recoverable linearizability coincide. *)
  let h = Rcons_history.History.create () in
  let t0 = Rcons_history.History.invoke h ~pid:0 "incr" in
  Rcons_history.History.respond h ~pid:0 ~tag:t0 1;
  let t1 = Rcons_history.History.invoke h ~pid:1 "get" in
  Rcons_history.History.respond h ~pid:1 ~tag:t1 0;
  Alcotest.(check bool)
    "stale read still rejected" false
    (Rcons_history.Conditions.durably_linearizable counter_spec h)

let test_classify_includes_durable () =
  let h = Rcons_history.History.create () in
  let t0 = Rcons_history.History.invoke h ~pid:0 "incr" in
  Rcons_history.History.respond h ~pid:0 ~tag:t0 1;
  let v = Rcons_history.Conditions.classify counter_spec h in
  Alcotest.(check bool) "recoverable" true v.Rcons_history.Conditions.recoverable;
  Alcotest.(check bool) "durable" true v.Rcons_history.Conditions.durable

(* --- the annotated universal construction under lossy --- *)

let test_runiversal_annotated_lossy () =
  (* Figure 7 with persist annotations, driven by seeded random lossy
     adversaries: every resulting history must be durably linearizable
     (annotated responses carry persist markers, so this is not
     vacuous). *)
  for seed = 1 to 12 do
    Persist.scoped Persist.Lossy (fun () ->
        let history = Rcons_history.History.create () in
        let u =
          Rcons_universal.Runiversal.create ~history ~annotated:true ~n:2
            Rcons_universal.Derived.counter
        in
        let runner = Rcons_universal.Script.create u ~n:2 ~max_ops:2 in
        let scripts =
          [|
            [| Rcons_universal.Derived.Incr; Rcons_universal.Derived.Get |];
            [| Rcons_universal.Derived.Incr |];
          |]
        in
        let sim =
          Sim.create ~n:2 (fun pid () ->
              Rcons_universal.Script.run runner pid scripts.(pid))
        in
        let rng = Random.State.make [| seed |] in
        let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob = 0.15; max_crashes = 3 }) in
        ignore (Adversary.run ~record:false adv sim);
        Alcotest.(check bool)
          (Printf.sprintf "durably linearizable (seed %d)" seed)
          true
          (Rcons_history.Conditions.durably_linearizable
             (Rcons_universal.Derived.lin_spec Rcons_universal.Derived.counter)
             history))
  done

(* --- corrupted artifacts (satellite: replay diagnosis) --- *)

let write_tmp contents =
  let file = Filename.temp_file "rcons_cex" ".json" in
  let oc = open_out file in
  output_string oc contents;
  close_out oc;
  file

let test_corrupt_artifact_diagnosis () =
  (* Truncated JSON: the parser names the offset it gave up at. *)
  let good =
    match find_artifact () with
    | Some f ->
        let ic = open_in f in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
    | None -> Alcotest.fail "cannot locate the committed artifact"
  in
  let truncated = write_tmp (String.sub good 0 (String.length good / 2)) in
  (match Cex.load ~file:truncated with
  | _ -> Alcotest.fail "truncated artifact should not load"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("diagnosis names the offset: " ^ msg)
        true
        (String.length msg > 0 && contains ~sub:"offset" msg));
  Sys.remove truncated;
  (* Structurally valid JSON missing a required field: named field. *)
  let missing = write_tmp {|{"version":1,"kind":"counterexample"}|} in
  (match Cex.load ~file:missing with
  | _ -> Alcotest.fail "field-less artifact should not load"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("diagnosis names the field: " ^ msg)
        true
        (contains ~sub:"workload" msg || contains ~sub:"field" msg));
  Sys.remove missing;
  (* Unreadable path: Sys_error, which the CLI also maps to exit 2. *)
  match Cex.load ~file:"/nonexistent/nowhere.json" with
  | _ -> Alcotest.fail "missing file should not load"
  | exception Sys_error _ -> ()

let suite =
  [
    Alcotest.test_case "policy strings and bounds" `Quick test_policy_strings;
    Alcotest.test_case "eager attaches no lines" `Quick test_eager_attaches_no_lines;
    Alcotest.test_case "lossy: revert vs flush" `Quick test_lossy_revert_and_flush;
    Alcotest.test_case "lossy: un-flushed writes are coherent" `Quick test_lossy_coherence;
    Alcotest.test_case "crash reverts only the victim's lines" `Quick
      test_crash_only_reverts_owner;
    Alcotest.test_case "fence persists all own lines" `Quick test_fence_persists_all_own_lines;
    Alcotest.test_case "barriers cost flush_cost steps" `Quick test_flush_cost_steps;
    Alcotest.test_case "torn crashes are partial and deterministic" `Quick
      test_torn_parity_deterministic;
    Alcotest.test_case "silent stores keep the owner" `Quick test_silent_store_keeps_owner;
    Alcotest.test_case "fingerprint sees cache state" `Quick test_fingerprint_sees_cache_state;
    Alcotest.test_case "eager scoped = no cache, byte-identical" `Quick
      test_eager_scoped_byte_identical;
    Alcotest.test_case "un-annotated Fig 2 violates under lossy" `Slow
      test_unannotated_fig2_violates_lossy;
    Alcotest.test_case "committed lossy witness replays" `Quick test_committed_artifact_replays;
    Alcotest.test_case "annotated Fig 2 exhaustive under lossy" `Slow
      test_annotated_fig2_exhaustive_lossy;
    Alcotest.test_case "annotated Fig 2 exhaustive under torn" `Slow
      test_annotated_fig2_exhaustive_torn;
    qcheck_shrunk_lossy_still_violates;
    (* `Slow: the counter it reads is only incremented by the qcheck
       case above, which the quick tier skips -- running this under -q
       would fail vacuously. *)
    Alcotest.test_case "qcheck property was not vacuous" `Slow test_shrunk_lossy_found_some;
    Alcotest.test_case "durable lin: un-persisted op may vanish" `Quick
      test_durable_lin_unpersisted_op_may_vanish;
    Alcotest.test_case "durable lin: persisted op is mandatory" `Quick
      test_durable_lin_persisted_op_mandatory;
    Alcotest.test_case "durable lin: crash-free = plain" `Quick test_durable_lin_no_crash_is_plain;
    Alcotest.test_case "classify reports durability" `Quick test_classify_includes_durable;
    Alcotest.test_case "annotated RUniversal durable under lossy" `Quick
      test_runiversal_annotated_lossy;
    Alcotest.test_case "corrupted artifact diagnosis" `Quick test_corrupt_artifact_diagnosis;
    Alcotest.test_case "unwrapped lossy log reduces as lossy" `Quick
      test_unwrapped_lossy_reduced_pin;
    Alcotest.test_case "rollback keeps an eager barrier's cost" `Quick
      test_rollback_keeps_barrier_cost;
  ]
