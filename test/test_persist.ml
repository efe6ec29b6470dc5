(* The weak-persistency fault model: the [Persist] write-back cache, the
   flush/fence barriers, the crash semantics (lossy / torn), their
   integration with fingerprints and the explorer, and the
   durable-linearizability condition built on them.

   The two headline facts, machine-checked here:
   - the un-annotated Figure 2 violates agreement under [Lossy] (the
     committed [_counterexamples/e12_fig2_lossy.json] replays it), and
   - the persist-annotated variant passes the exhaustive 1-crash check
     under the same policy (on sticky-bit; under eager it must agree
     with the plain build on every type but the pinned defect set). *)

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
  match Persist.scoped ~flush_cost:0 Persist.Lossy ignore with
  | () -> Alcotest.fail "flush_cost 0 should raise"
  | exception Invalid_argument _ -> ()

let test_eager_attaches_no_lines () =
  (* The eager cache creates no lines at all: cells built under it are
     indistinguishable from cells built with no cache, which is what
     keeps every seed digest and schedule byte-identical. *)
  Persist.scoped Persist.Eager (fun () ->
      let c = Cell.make 42 in
      Alcotest.(check bool) "no line" true (Cell.line c = None))

let test_lossy_revert_and_flush () =
  Persist.scoped ~barriers:true Persist.Lossy (fun () ->
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
  Persist.scoped ~barriers:true Persist.Lossy (fun () ->
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
  (* In a system built with barriers on, a barrier takes exactly
     [flush_cost] steps under every policy; built with them off it takes
     none, and the link-and-persist read and write are a plain read and
     a plain write. *)
  List.iter
    (fun (policy, barriers) ->
      let name = Printf.sprintf "%s, barriers %b" (Persist.policy_to_string policy) barriers in
      Persist.scoped ~flush_cost:3 ~barriers policy (fun () ->
          let c = Cell.make 0 in
          let sim =
            Sim.create ~n:1 (fun _ () ->
                Cell.write c 1;
                Cell.flush c;
                ignore (Cell.read_persist c);
                Cell.write_persist c 2)
          in
          let step () = ignore (Sim.step_proc sim 0) in
          step () (* start *);
          step () (* write *);
          if barriers then begin
            step () (* flush 1/3 *);
            step () (* flush 2/3 *);
            if policy <> Persist.Eager then
              Alcotest.(check int) (name ^ ": not yet persisted mid-barrier") 0
                (Cell.peek_persisted c);
            step () (* flush 3/3: write-back happens *)
          end;
          (* Eager has no line: the write was durable at its own step.
             Otherwise only a barrier persists it. *)
          Alcotest.(check int) (name ^ ": durable after the flush")
            (if barriers || policy = Persist.Eager then 1 else 0)
            (Cell.peek_persisted c);
          let rest = ref 0 in
          while not (Sim.finished sim 0) do
            step ();
            incr rest
          done;
          (* read + flush + confirm, then write + flush + confirm *)
          Alcotest.(check int) (name ^ ": read_persist + write_persist steps")
            (if barriers then 10 else 2)
            !rest;
          Alcotest.(check int) (name ^ ": last write visible") 2 (Cell.peek c)))
    (List.concat_map
       (fun p -> [ (p, false); (p, true) ])
       [ Persist.Eager; Persist.Lossy; Persist.Torn ])

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

(* One non-volatile location behind three process-side operations: an
   update that moves it off its initial state the first time and is a
   no-op every time after, a flush, and an inspection. *)
type loc = { update : unit -> unit; flush : unit -> unit; initial : unit -> bool }

(* Two locations of each kind a system builds on: plain cells, sticky-bit
   objects (a [Sim_obj] over a cell) and two entries of one [Growable].
   Built inside the caller's persistency scope and heap arena. *)
let location_kinds : (string * (unit -> loc * loc)) list =
  [
    ( "cell",
      fun () ->
        let loc () =
          let c = Cell.make 0 in
          {
            update = (fun () -> Cell.write c 5);
            flush = (fun () -> Cell.flush c);
            initial = (fun () -> Cell.peek c = 0);
          }
        in
        (loc (), loc ()) );
    ( "sticky-bit object",
      fun () ->
        match Rcons_spec.Sticky_bit.t with
        | Rcons_spec.Object_type.Pack (module T) ->
            let loc () =
              let init = List.hd T.candidate_initial_states in
              let o = Sim_obj.make (module T) init in
              {
                update = (fun () -> ignore (Sim_obj.apply o (List.hd T.update_ops)));
                flush = (fun () -> Sim_obj.flush o);
                initial = (fun () -> T.compare_state (Sim_obj.peek o) init = 0);
              }
            in
            (loc (), loc ()) );
    ( "growable entry",
      fun () ->
        let g = Growable.make (fun _ -> 0) in
        let loc i =
          ignore (Growable.cell g i);
          {
            update = (fun () -> Growable.write g i 5);
            flush = (fun () -> Growable.flush g i);
            initial = (fun () -> Growable.peek g i = 0);
          }
        in
        (loc 0, loc 1) );
  ]

let test_silent_store_keeps_owner () =
  (* A no-op update must not steal line ownership: q's no-op followed
     by q's crash would otherwise revert p's un-persisted change. *)
  List.iter
    (fun (kind, locations) ->
      Persist.scoped Persist.Lossy (fun () ->
          let l, _ = locations () in
          let sim = Sim.create ~n:2 (fun _ () -> l.update ()) in
          ignore (Sim.step_proc sim 0);
          ignore (Sim.step_proc sim 0) (* p0 updates, dirty, owner p0 *);
          ignore (Sim.step_proc sim 1);
          ignore (Sim.step_proc sim 1) (* p1's update changes nothing *);
          Sim.crash sim 1;
          Alcotest.(check bool) (kind ^ ": p0's update survives p1's crash") false (l.initial ());
          Sim.crash sim 0;
          Alcotest.(check bool) (kind ^ ": and reverts only when p0 crashes") true (l.initial ())))
    location_kinds

(* --- fingerprints --- *)

let test_fingerprint_sees_cache_state () =
  (* Two executions with identical volatile contents, step counts and
     control state, differing only in WHICH location got flushed, must
     fingerprint differently: their futures differ (a crash reverts one
     and not the other).  Dedup soundness depends on it. *)
  let fp locations flush_updated =
    let saved = Heap.current () in
    Heap.activate (Heap.create ());
    Fun.protect
      ~finally:(fun () ->
        match saved with Some a -> Heap.activate a | None -> Heap.deactivate ())
      (fun () ->
        Persist.scoped ~barriers:true Persist.Lossy (fun () ->
            let a, b = locations () in
            let sim =
              Sim.create ~n:1 (fun _ () ->
                  a.update ();
                  (if flush_updated then a else b).flush ())
            in
            for _ = 1 to 3 do
              ignore (Sim.step_proc sim 0)
            done;
            (Sim.fingerprint_digest sim, (a.initial (), b.initial ()))))
  in
  List.iter
    (fun (kind, locations) ->
      let fp_clean, v_clean = fp locations true and fp_dirty, v_dirty = fp locations false in
      Alcotest.(check (pair bool bool)) (kind ^ ": same volatile contents either way") v_clean
        v_dirty;
      Alcotest.(check bool) (kind ^ ": different fingerprints") true (fp_dirty <> fp_clean))
    location_kinds

(* --- eager byte-identity regression pin --- *)

let test_eager_scoped_byte_identical () =
  (* Same-seed adversary runs must be choice-for-choice identical with no
     cache and under an explicitly scoped eager model: the persistency
     layer is strictly opt-in.  (The e2/e4/e7 experiment tables are the
     coarse version of this pin; this is the fine-grained one.) *)
  let run ~build ~ambient =
    let go () =
      let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t 2 in
      let sys = build (fun () -> Helpers.team_system cert ()) in
      let rng = Random.State.make [| 2022 |] in
      let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob = 0.15; max_crashes = 4 }) in
      let o = Adversary.run adv sys.Helpers.sim in
      let crashed, rerun = Helpers.crash_and_rerun ~rng sys.Helpers.sim in
      ( o.Adversary.schedule
        @ List.map (fun i -> Schedule.Crash_choice i) crashed
        @ rerun.Adversary.schedule,
        Array.to_list sys.Helpers.outputs.Rcons_algo.Outputs.outputs )
    in
    ambient go
  in
  let plain f = f () in
  let ev_plain, out_plain = run ~build:plain ~ambient:plain in
  (* An eager scope installs no cache, even over another ambient one. *)
  let ev_eager, out_eager =
    run ~build:plain ~ambient:(fun go ->
        Persist.scoped Persist.Lossy (fun () -> Persist.scoped Persist.Eager go))
  in
  Alcotest.(check bool) "identical schedules" true (ev_plain = ev_eager);
  Alcotest.(check bool) "identical outputs" true (out_plain = out_eager);
  (* A system built with barriers on carries them: stepped under an
     ambient barriers-off scope -- the shape of a benchmark wrapping an
     explorer run around [mk] -- it runs exactly as with nothing
     ambient, and not like the barrier-free build. *)
  let barriers f = Persist.scoped ~barriers:true Persist.Lossy f in
  let ev_b, out_b = run ~build:barriers ~ambient:plain in
  let ev_b', out_b' = run ~build:barriers ~ambient:(Persist.scoped Persist.Lossy) in
  Alcotest.(check bool) "barriers: identical schedules" true (ev_b = ev_b');
  Alcotest.(check bool) "barriers: identical outputs" true (out_b = out_b');
  Alcotest.(check bool) "barriers take steps" true (List.length ev_b > List.length ev_plain)

(* --- Figure 2 under the lossy cache --- *)

let lossy_workload () = Cex.team2 ~persist:Persist.Lossy "sticky"

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

(* The exhaustive 1-crash check of Figure 2 built with barriers, on
   sticky-bit under [policy]: no violation, and the explorer statistics
   pinned, so a change to the barriers' step shapes shows.  [dedup]
   makes it feasible -- raw interleavings explode with the extra barrier
   steps, distinct states do not -- and is sound because cache state is
   fingerprinted. *)
let annotated_fig2_pinned (policy, pins) =
  let w = Cex.team2 ~persist:policy ~annotated:true "sticky" in
  let name = Persist.policy_to_string policy in
  match Cex.mk w with
  | Error e -> Alcotest.fail e
  | Ok mk -> (
      match
        Explore.explore ~max_crashes:1 ~dedup:true ~fingerprint:(Cex.fingerprint w) ~mk ()
      with
      | stats ->
          Alcotest.(check (list int))
            (name ^ ": schedules / nodes / distinct states")
            pins
            [ stats.Explore.schedules; stats.nodes; stats.distinct_states ]
      | exception Explore.Violation v ->
          Alcotest.fail
            (Printf.sprintf "annotated variant violated under %s: %s" name v.Explore.v_msg))

(* The acceptance check: the barrier-carrying build survives every
   1-crash schedule under the lossy cache. *)
let test_annotated_fig2_exhaustive_lossy () =
  annotated_fig2_pinned (Persist.Lossy, [ 147; 62_822; 32_928 ])

(* Torn, and eager: the paper's own model, where the barriers are
   semantic no-ops but still steps. *)
let test_annotated_fig2_exhaustive_torn () =
  List.iter annotated_fig2_pinned
    [ (Persist.Torn, [ 132; 55_150; 28_810 ]); (Persist.Eager, [ 96; 33_715; 17_593 ]) ]

(* --- structural pin: under eager, barriers do not change a verdict --- *)

(* Eager is the paper's NVRAM model, where a barrier is a semantic
   no-op, so Figure 2 built with barriers must reach the plain build's
   verdict for every type and crash bound.  Covered: every catalogue
   type (those without a level-2 recording witness fail to build both
   ways), plus S_2-S_4 and T_3-T_5, at 0 and 1 crash, under dedup + por.
   [diverging] is the documented defect of the annotated build (its
   apply retry is keyed on the value q0, which recurs in S_n and T_3):
   those types must still diverge, so the fix has to empty the list. *)
let test_annotated_matches_plain_eager () =
  let diverging = [ "S2"; "S3"; "S4"; "T3" ] in
  let names =
    List.map (fun e -> Rcons_spec.Object_type.name e.Rcons_spec.Catalogue.ot)
      Rcons_spec.Catalogue.all
    @ [ "S2"; "S3"; "S4"; "T3"; "T4"; "T5" ]
  in
  let verdict ~annotated ~max_crashes name =
    match Cex.mk (Cex.team2 ~annotated name) with
    | Error e -> Error e
    | Ok mk -> (
        match Explore.explore ~max_crashes ~dedup:true ~por:true ~mk () with
        | (_ : Explore.stats) -> Ok "no violation"
        | exception Explore.Violation v -> Ok v.Explore.v_msg)
  in
  let built = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun max_crashes ->
          let plain = verdict ~annotated:false ~max_crashes name
          and annotated = verdict ~annotated:true ~max_crashes name in
          if Result.is_ok plain then incr built;
          let label = Printf.sprintf "%s at %d crash(es)" name max_crashes in
          if List.mem name diverging then
            Alcotest.(check bool) (label ^ ": known defect still diverges") true
              (plain <> annotated)
          else
            Alcotest.(check (result string string)) (label ^ ": same verdict") plain annotated)
        [ 0; 1 ])
    names;
  Alcotest.(check int) "types x crash bounds with a witness" 26 !built

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
    Persist.scoped ~barriers:true Persist.Lossy (fun () ->
        let history = Rcons_history.History.create () in
        let scripts =
          [|
            [| Rcons_universal.Derived.Incr; Rcons_universal.Derived.Get |];
            [| Rcons_universal.Derived.Incr |];
          |]
        in
        let _, _, sim =
          Rcons_universal.Script.system ~history Rcons_universal.Derived.counter scripts
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

(* --- the durable one-shot RC confirms on a clean line --- *)

(* A scripted lossy schedule in which a value-only read-back accepts an
   undecided winner: p0 reads q's (p1's) un-flushed 11, q crashes
   (reverting it), p0 flushes the clean line, q re-proposes 11
   (dirtying it again), and p0's read-back matches.  q crashes once
   more, r (p2) decides 12, and p0's 11 disagrees.  The clean-line
   confirm makes p0 retry instead, and it returns 12. *)
let test_one_shot_durable_agreement () =
  let sim, outputs =
    Persist.scoped ~barriers:true Persist.Lossy (fun () ->
        Rcons_algo.Outputs.system ~inputs:[| 10; 11; 12 |] (fun () ->
            let o = Rcons_algo.One_shot.create () in
            fun _pid v -> Rcons_algo.One_shot.decide_durable o v))
  in
  let step i = ignore (Sim.step_proc sim i) in
  (* Each [step] of a started process runs one access: decide, flush,
     read-back (the first step of a run only reaches its decide). *)
  List.iter
    (function `S i -> step i | `C i -> Sim.crash sim i)
    [ `S 1; `S 1; (* q decides 11: dirty line *)
      `S 0; `S 0; (* p's decide returns 11 *)
      `C 1; (* the line reverts *)
      `S 0; (* p flushes the clean line *)
      `S 1; `S 1; (* q decides 11 again: dirty line *)
      `S 0; (* p's read-back *)
      `C 1; (* the line reverts again *)
      `S 2; `S 2; `S 2; `S 2 (* r decides 12, flushes, confirms *) ];
  Adversary.round_robin sim;
  Alcotest.(check (list (list int)))
    "every process returns the durable winner" [ [ 12 ]; [ 12 ]; [ 12 ] ]
    (Array.to_list outputs.Rcons_algo.Outputs.outputs);
  Alcotest.(check bool) "agreement" true (Rcons_algo.Outputs.agreement_ok outputs)

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
    Alcotest.test_case "annotated Fig 2 = plain under eager (known defect pinned)" `Quick
      test_annotated_matches_plain_eager;
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
    Alcotest.test_case "durable one-shot RC confirms on a clean line" `Quick
      test_one_shot_durable_agreement;
    Alcotest.test_case "corrupted artifact diagnosis" `Quick test_corrupt_artifact_diagnosis;
    Alcotest.test_case "unwrapped lossy log reduces as lossy" `Quick
      test_unwrapped_lossy_reduced_pin;
    Alcotest.test_case "rollback keeps an eager barrier's cost" `Quick
      test_rollback_keeps_barrier_cost;
  ]
