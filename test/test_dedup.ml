(* State-space deduplication: fingerprint soundness and the explorer's
   dedup mode.

   Five layers of guarantees are pinned here:
   - [~dedup:false] is byte-identical to the pre-dedup explorer -- the
     raw statistics on the Figure 2 and Figure 4 suites are hard-coded
     baselines captured from the seed explorer, so any accidental change
     to raw-mode semantics (the spine-reuse replay in particular) fails
     loudly;
   - [~dedup:true] is deterministic: sequential and parallel runs report
     identical statistics on any domain count / frontier depth, and a
     violating algorithm yields the identical violation schedule;
   - [Sim.fingerprint_digest] is replay-stable (qcheck): re-executing the
     same schedule against a fresh system from the same builder reproduces
     the digest byte for byte -- the property that makes deduplication
     sound across replays and domains;
   - the observation trace folded into each process's fingerprint
     section separates runs that saw the same values in another order or
     segmentation, and forgets what a crashed run saw;
   - the summed heap digest separates objects that swap values, digests
     the identity relabeling as no relabeling, and forgets a slot
     registered in a rolled-back branch. *)

open Rcons_runtime

let domains = 4

let stats_eq =
  Alcotest.testable
    (fun ppf (s : Explore.stats) ->
      Format.fprintf ppf
        "{schedules=%d; nodes=%d; max_depth=%d; dedup_hits=%d; distinct_states=%d; por_pruned=%d; \
         symmetry_hits=%d}"
        s.schedules s.nodes s.max_depth s.dedup_hits s.distinct_states s.por_pruned
        s.symmetry_hits)
    ( = )

let raw (schedules, nodes, max_depth) : Explore.stats =
  { schedules; nodes; max_depth; dedup_hits = 0; distinct_states = 0; por_pruned = 0; symmetry_hits = 0 }

(* --- raw mode is byte-identical to the seed explorer --- *)

let test_raw_baselines () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let sticky = Helpers.cert_of Rcons_spec.Sticky_bit.t 2 in
  Alcotest.check stats_eq "Figure 2 on S_2, 1 crash"
    (raw (30120, 112674, 19))
    (Explore.explore ~max_crashes:1 ~mk:(Helpers.team_mk s2) ());
  Alcotest.check stats_eq "Figure 2 on sticky bit, 1 crash"
    (raw (29470, 109374, 18))
    (Explore.explore ~max_crashes:1 ~mk:(Helpers.team_mk sticky) ());
  Alcotest.check stats_eq "Figure 4, n=2, no crashes"
    (raw (3432, 12868, 14))
    (Explore.explore ~max_crashes:0 ~mk:(Helpers.fig4_mk 2) ())

let test_raw_baseline_two_crashes () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  Alcotest.check stats_eq "Figure 2 on S_2, 2 crashes"
    (raw (1442171, 5417237, 24))
    (Explore.explore ~max_crashes:2 ~mk:(Helpers.team_mk s2) ())

(* --- dedup determinism: seq = par on any domain count / frontier --- *)

let test_dedup_seq_par_identical () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let seq = Explore.explore ~max_crashes:1 ~dedup:true ~mk:(Helpers.team_mk cert) () in
  Alcotest.(check bool) "dedup actually deduplicates" true (seq.dedup_hits > 0);
  Alcotest.(check bool) "distinct states counted" true (seq.distinct_states > 0);
  List.iter
    (fun (domains, frontier_depth) ->
      let par =
        Explore.explore ~max_crashes:1 ~dedup:true ~domains ~frontier_depth
          ~mk:(Helpers.team_mk cert) ()
      in
      Alcotest.check stats_eq
        (Printf.sprintf "dedup stats (domains %d, frontier %d)" domains frontier_depth)
        seq par)
    [ (2, 1); (4, 3); (4, 7); (8, 4) ]

let test_dedup_fig4_identical () =
  let seq = Explore.explore ~max_crashes:1 ~dedup:true ~mk:(Helpers.fig4_mk 2) () in
  let par = Explore.explore ~max_crashes:1 ~dedup:true ~domains ~mk:(Helpers.fig4_mk 2) () in
  Alcotest.(check bool) "fig4 dedup actually deduplicates" true (seq.dedup_hits > 0);
  Alcotest.check stats_eq "fig4 dedup stats seq = par" seq par

(* The acceptance bar of this change: on the 2-crash Figure 2 / S_2
   workload, deduplication must visit at least 5x fewer nodes than the
   raw tree walk (whose size is pinned by [test_raw_baseline_two_crashes])
   with the same pass outcome. *)
let test_dedup_node_reduction () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let raw_nodes = 5_417_237 in
  let dd = Explore.explore ~max_crashes:2 ~dedup:true ~mk:(Helpers.team_mk cert) () in
  Alcotest.(check bool)
    (Printf.sprintf "dedup nodes %d <= raw nodes %d / 5" dd.nodes raw_nodes)
    true
    (dd.nodes * 5 <= raw_nodes);
  Alcotest.(check int) "hits + distinct = nodes + root" (dd.nodes + 1)
    (dd.dedup_hits + dd.distinct_states)

let test_dedup_violation_schedule_identical () =
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t 3 in
  let run ?domains ?frontier_depth () =
    match
      Explore.explore ?domains ?frontier_depth ~max_crashes:0 ~dedup:true
        ~mk:(Helpers.team_mk ~faithful:false cert) ()
    with
    | (_ : Explore.stats) -> Alcotest.fail "expected a violation"
    | exception Explore.Violation { v_msg = msg; v_schedule = sched; _ } ->
        Format.asprintf "%s at %a" msg Explore.pp_schedule sched
  in
  let seq = run () in
  List.iter
    (fun frontier_depth ->
      Alcotest.(check string)
        (Printf.sprintf "dedup violation schedule (frontier %d)" frontier_depth)
        seq
        (run ~domains ~frontier_depth ()))
    [ 1; 3; 5 ]

(* --- fingerprint replay stability (qcheck) --- *)

(* Decode an int list into a schedule applied directly (legality does not
   matter for stability -- both executions apply the same operations). *)
let apply_encoded sim codes =
  let n = Sim.num_procs sim in
  List.iter
    (fun x ->
      let pid = x mod n in
      if x mod 5 = 0 then Sim.crash sim pid
      else if not (Sim.finished sim pid) then ignore (Sim.step_proc sim pid))
    codes

let with_arena f =
  let saved = Heap.current () in
  Heap.activate (Heap.create ());
  Fun.protect
    ~finally:(fun () -> match saved with Some a -> Heap.activate a | None -> Heap.deactivate ())
    f

let fingerprint_after mk codes =
  with_arena @@ fun () ->
  let sim, _check = mk () in
  apply_encoded sim codes;
  let fp = Sim.fingerprint_digest sim in
  Sim.abandon sim;
  fp

let schedule_gen = QCheck2.Gen.(list_size (int_range 0 14) (int_bound 999))

let qcheck_fingerprint_stable ~count ~name mk =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name
       ~print:(fun codes -> String.concat ";" (List.map string_of_int codes))
       schedule_gen
       (fun codes ->
         let mk = mk () in
         fingerprint_after mk codes = fingerprint_after mk codes))

(* Figure 7 with barriers under lossy: nodes, their cells and their RC
   instances are made lazily, and cache lines are part of the state. *)
let fig7_mk () =
  Persist.scoped ~barriers:true Persist.Lossy (fun () ->
      let open Rcons_universal in
      let scripts = [| [| Derived.Incr; Derived.Get |]; [| Derived.Incr |] |] in
      let _, _, sim = Script.system Derived.counter scripts in
      (sim, ignore))

(* --- the observation trace is a chain, not a bag --- *)

(* A one-process system whose run observes the two values [src] holds
   when it reads them, then parks on a final labelled step.  [src] is
   deliberately outside the heap arena: the heap snapshot is empty, so
   the process's observation trace is all that can tell two runs
   apart. *)
let observer src =
  Sim.create ~n:1 (fun _ () ->
      ignore (Sim.step ~label:"read" (fun () -> fst !src));
      ignore (Sim.step ~label:"read" (fun () -> snd !src));
      Sim.step ~label:"end" (fun () -> ()))

(* Fingerprint after the run has observed [a] then [b], optionally after
   a first run that observed [before] and crashed. *)
let observed ?before (a, b) =
  with_arena @@ fun () ->
  let src = ref ("", "") in
  let sim = observer src in
  let steps k =
    for _ = 1 to k do
      ignore (Sim.step_proc sim 0)
    done
  in
  (match before with
  | None -> ()
  | Some pre ->
      src := pre;
      steps 3;
      Sim.crash sim 0);
  src := (a, b);
  steps 3;
  let fp = Sim.fingerprint_digest ~graded:false sim in
  Sim.abandon sim;
  fp

let test_trace_chain () =
  List.iter
    (fun (what, x, y) ->
      Alcotest.(check bool) what true (observed x <> observed y))
    [
      (* an order-insensitive fold (XOR, a sum, a multiset) collides here *)
      ("order matters", ("x", "y"), ("y", "x"));
      (* concatenating raw payloads without framing collides here *)
      ("segmentation matters", ("ab", "c"), ("a", "bc"));
      (* keeping only the latest observation collides here *)
      ("history matters", ("x", "y"), ("z", "y"));
    ];
  (* A crash resets the chain: the pre-crash run's observations are lost
     with its local state, so they must not reach the fingerprint. *)
  Alcotest.(check bool) "pre-crash runs differ" true
    (observed ("p", "q") <> observed ("r", "s"));
  Alcotest.(check string) "crash resets the chain"
    (Digest.to_hex (observed ~before:("p", "q") ("x", "y")))
    (Digest.to_hex (observed ~before:("r", "s") ("x", "y")))

(* --- fingerprint bytes are pinned --- *)

(* Each system's digests at the root and after one short fixed
   schedule, each built under a fresh arena.  The bytes follow the
   order in which a builder registers its objects as well as each
   object's own digest, and the symmetry hits the CI sweeps pin are
   counted over them, so a builder that reorders its objects fails
   here.  Figure 2 is pinned through both of its callers, the workload
   build and the test helper, which must agree. *)
let pinned_schedule =
  Schedule.
    [ Step_choice 0; Step_choice 1; Crash_choice 0; Step_choice 0; Step_choice 1; Step_choice 1 ]

let pinned_digests mk =
  with_arena @@ fun () ->
  let sim = mk () in
  let root = Digest.to_hex (Sim.fingerprint_digest sim) in
  List.iter (Schedule.apply sim) pinned_schedule;
  let after = Digest.to_hex (Sim.fingerprint_digest sim) in
  Sim.abandon sim;
  (root, after)

(* The pinned systems, each with its expected digests and every builder
   that must produce them. *)
let pinned_systems () =
  let workload ?level name () =
    match Rcons.Counterexample.team_system (Rcons.Counterexample.team2 ?level name) with
    | Ok build -> fst (build ())
    | Error e -> Alcotest.fail e
  in
  let helper mk () = fst (mk ()) in
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let sticky3 = Helpers.cert_of Rcons_spec.Sticky_bit.t 3 in
  [
    ( "Figure 2 on S_2",
      ("d3c6ed4d7c163d8701893b3b975b5a50", "9e5b2ad47e698d3e4d453d753789fc1a"),
      [ workload "S2"; helper (Helpers.team_mk s2) ] );
    ( "Figure 2 on sticky, level 3",
      ("260a17fefefe2904fbbc2f5edf076d1e", "e26b273c698b2a46a8b42be6046cef35"),
      [ workload ~level:3 "sticky"; helper (Helpers.team_mk sticky3) ] );
    ( "tournament on sticky, n = 3",
      ("ed60ec6faa5be87f1b256bb2d31ac7a5", "e79edc4bcfeda4359710bceaede426b8"),
      [ (fun () -> (Helpers.rc_system sticky3 ~n:3 ()).Helpers.sim) ] );
    ( "Figure 4, n = 2",
      ("cedf9e92c1679b598c4b13ccbc07fd0d", "04548ab6f109d9fb1e8f49cb8f53c578"),
      [ helper (Helpers.fig4_mk 2) ] );
    (* Figure 7's nodes register lazily, each behind a slot holding
       its tag; p1's node registers inside the pinned schedule. *)
    ( "Figure 7, lossy with barriers",
      ("d9c347f197f2cf046182fdd36ee921d8", "a371bd8050d55a0ba1fbcd9d991d049c"),
      [ helper fig7_mk ] );
  ]

let test_fingerprint_pins () =
  List.iter
    (fun (name, expect, builds) ->
      List.iter
        (fun mk -> Alcotest.(check (pair string string)) name expect (pinned_digests mk))
        builds)
    (pinned_systems ())

(* --- the summed heap digest --- *)

(* The symmetry explorer digests the identity relabeling with no
   [perm], so that cached pid-bearing slots serve it; that is sound only
   if an identity [perm] gives the same bytes.  Checked on every pinned
   system and on a lossy replicated log, whose vote rows and cache-line
   owners are pid-bearing, graded and ungraded, at the root and after
   the pinned schedule. *)
let test_identity_perm () =
  let lossy_log () =
    let w = Rcons.Counterexample.log ~persist:Persist.Lossy ~annotated:true ~slots:1 "sticky" in
    match Rcons.Counterexample.mk w with Ok mk -> fst (mk ()) | Error e -> Alcotest.fail e
  in
  let systems =
    ("replicated log, lossy", lossy_log)
    :: List.concat_map
         (fun (name, _, builds) -> List.map (fun mk -> (name, mk)) builds)
         (pinned_systems ())
  in
  List.iter
    (fun (name, mk) ->
      with_arena @@ fun () ->
      let sim = mk () in
      let id = Array.init (Sim.num_procs sim) Fun.id in
      let check where =
        List.iter
          (fun graded ->
            Alcotest.(check string)
              (Printf.sprintf "%s, %s, graded %b" name where graded)
              (Digest.to_hex (Sim.fingerprint_digest ~graded sim))
              (Digest.to_hex (Sim.fingerprint_digest ~graded ~perm:id sim)))
          [ true; false ]
      in
      check "root";
      List.iter (Schedule.apply sim) pinned_schedule;
      check "after the pinned schedule";
      Sim.abandon sim)
    systems

(* Two cells holding each other's values: a combine that ignores which
   slot a digest came from (a plain sum or XOR of the thunk digests)
   collides here. *)
let test_swapped_cells () =
  let digest (a, b) =
    with_arena @@ fun () ->
    let ca = Cell.make a and cb = Cell.make b in
    let sim = Sim.create ~n:1 (fun _ () -> ignore (Cell.read ca + Cell.read cb)) in
    let d = Sim.fingerprint_digest sim in
    Sim.abandon sim;
    d
  in
  Alcotest.(check bool) "A = 1, B = 2 against A = 2, B = 1" true (digest (1, 2) <> digest (2, 1));
  Alcotest.(check string) "same values, same digest"
    (Digest.to_hex (digest (1, 2)))
    (Digest.to_hex (digest (1, 2)))

(* A slot registered lazily inside a branch that is then rolled back
   must leave nothing behind: the arena after the rollback, and the
   indices it hands out next, are those of a run that never took the
   branch.  Figure 7 registers p1's node inside the pinned schedule;
   the digest after rolling that schedule back and running p0 alone
   must equal a fresh run of p0 alone. *)
let test_rolled_back_registration () =
  let p0_only = Schedule.[ Step_choice 0; Step_choice 0; Step_choice 0; Step_choice 0 ] in
  let fresh =
    with_arena @@ fun () ->
    let sim = fst (fig7_mk ()) in
    List.iter (Schedule.apply sim) p0_only;
    let d = Sim.fingerprint_digest sim in
    Sim.abandon sim;
    d
  in
  let rolled =
    with_arena @@ fun () ->
    Undo.install ();
    Fun.protect ~finally:Undo.uninstall @@ fun () ->
    let sim = fst (fig7_mk ()) in
    let root = Sim.mark sim in
    List.iter (Schedule.apply sim) pinned_schedule;
    ignore (Sim.fingerprint_digest sim);
    Sim.rollback sim root;
    List.iter (Schedule.apply sim) p0_only;
    let d = Sim.fingerprint_digest sim in
    Sim.abandon sim;
    d
  in
  Alcotest.(check string) "rolled back = fresh" (Digest.to_hex fresh) (Digest.to_hex rolled)

let suite =
  [
    Alcotest.test_case "fingerprint bytes pinned (Figures 2, 4 and 7, tournament)" `Quick
      test_fingerprint_pins;
    Alcotest.test_case "identity relabeling digests as none" `Quick test_identity_perm;
    Alcotest.test_case "swapped cells digest differently" `Quick test_swapped_cells;
    Alcotest.test_case "rolled-back lazy registration leaves no trace" `Quick
      test_rolled_back_registration;
    Alcotest.test_case "raw mode matches seed baselines" `Quick test_raw_baselines;
    Alcotest.test_case "raw mode matches seed baseline (2 crashes)" `Slow
      test_raw_baseline_two_crashes;
    Alcotest.test_case "dedup stats: seq = par (domain/frontier sweep)" `Quick
      test_dedup_seq_par_identical;
    Alcotest.test_case "dedup stats: seq = par on Figure 4" `Quick test_dedup_fig4_identical;
    Alcotest.test_case "dedup node reduction >= 5x (2 crashes)" `Slow test_dedup_node_reduction;
    Alcotest.test_case "dedup violation schedule: seq = par" `Quick
      test_dedup_violation_schedule_identical;
    (let cert = lazy (Helpers.cert_of (Rcons_spec.Sn.make 2) 2) in
     qcheck_fingerprint_stable ~count:100 ~name:"fingerprint is replay-stable (random schedules)"
       (fun () -> Helpers.team_mk (Lazy.force cert)));
    qcheck_fingerprint_stable ~count:60
      ~name:"fingerprint is replay-stable (Figure 4, lazy objects)" (fun () -> Helpers.fig4_mk 3);
    qcheck_fingerprint_stable ~count:60 ~name:"fingerprint is replay-stable (Figure 7, lazy nodes)"
      (fun () -> fig7_mk);
    Alcotest.test_case "observation trace is an ordered chain, reset by crashes" `Quick
      test_trace_chain;
  ]
