(* State-space deduplication: fingerprint soundness and the explorer's
   dedup mode.

   Four layers of guarantees are pinned here:
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
     segmentation, and forgets what a crashed run saw. *)

open Rcons_runtime
open Rcons_algo

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

let team_mk ?faithful cert () =
  let sys = Helpers.team_system ?faithful cert () in
  (sys.Helpers.sim, sys.Helpers.check)

(* Figure 4: recoverable consensus from consensus under simultaneous
   crashes; consensus instances are created lazily during execution, so
   this system exercises mid-run heap registration. *)
let fig4_mk n () =
  let inputs = Array.init n (fun i -> (i + 1) * 10) in
  let outputs = Outputs.make ~inputs in
  let make_consensus () =
    let c = One_shot.create () in
    { Simultaneous_rc.propose = (fun _pid v -> One_shot.decide c v) }
  in
  let rc = Simultaneous_rc.create ~n ~make_consensus in
  let body pid () = Outputs.record outputs pid (Simultaneous_rc.decide rc pid inputs.(pid)) in
  (Sim.create ~n body, fun () -> Outputs.check_exn ~fail:Explore.fail outputs)

let raw (schedules, nodes, max_depth) : Explore.stats =
  { schedules; nodes; max_depth; dedup_hits = 0; distinct_states = 0; por_pruned = 0; symmetry_hits = 0 }

(* --- raw mode is byte-identical to the seed explorer --- *)

let test_raw_baselines () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let sticky = Helpers.cert_of Rcons_spec.Sticky_bit.t 2 in
  Alcotest.check stats_eq "Figure 2 on S_2, 1 crash"
    (raw (30120, 112674, 19))
    (Explore.explore ~max_crashes:1 ~mk:(team_mk s2) ());
  Alcotest.check stats_eq "Figure 2 on sticky bit, 1 crash"
    (raw (29470, 109374, 18))
    (Explore.explore ~max_crashes:1 ~mk:(team_mk sticky) ());
  Alcotest.check stats_eq "Figure 4, n=2, no crashes"
    (raw (3432, 12868, 14))
    (Explore.explore ~max_crashes:0 ~mk:(fig4_mk 2) ())

let test_raw_baseline_two_crashes () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  Alcotest.check stats_eq "Figure 2 on S_2, 2 crashes"
    (raw (1442171, 5417237, 24))
    (Explore.explore ~max_crashes:2 ~mk:(team_mk s2) ())

(* --- dedup determinism: seq = par on any domain count / frontier --- *)

let test_dedup_seq_par_identical () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let seq = Explore.explore ~max_crashes:1 ~dedup:true ~mk:(team_mk cert) () in
  Alcotest.(check bool) "dedup actually deduplicates" true (seq.dedup_hits > 0);
  Alcotest.(check bool) "distinct states counted" true (seq.distinct_states > 0);
  List.iter
    (fun (domains, frontier_depth) ->
      let par =
        Explore.explore ~max_crashes:1 ~dedup:true ~domains ~frontier_depth ~mk:(team_mk cert) ()
      in
      Alcotest.check stats_eq
        (Printf.sprintf "dedup stats (domains %d, frontier %d)" domains frontier_depth)
        seq par)
    [ (2, 1); (4, 3); (4, 7); (8, 4) ]

let test_dedup_fig4_identical () =
  let seq = Explore.explore ~max_crashes:1 ~dedup:true ~mk:(fig4_mk 2) () in
  let par = Explore.explore ~max_crashes:1 ~dedup:true ~domains ~mk:(fig4_mk 2) () in
  Alcotest.(check bool) "fig4 dedup actually deduplicates" true (seq.dedup_hits > 0);
  Alcotest.check stats_eq "fig4 dedup stats seq = par" seq par

(* The acceptance bar of this change: on the 2-crash Figure 2 / S_2
   workload, deduplication must visit at least 5x fewer nodes than the
   raw tree walk (whose size is pinned by [test_raw_baseline_two_crashes])
   with the same pass outcome. *)
let test_dedup_node_reduction () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let raw_nodes = 5_417_237 in
  let dd = Explore.explore ~max_crashes:2 ~dedup:true ~mk:(team_mk cert) () in
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
        ~mk:(team_mk ~faithful:false cert) ()
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

let qcheck_fingerprint_stable =
  let cert = lazy (Helpers.cert_of (Rcons_spec.Sn.make 2) 2) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"fingerprint is replay-stable (random schedules)"
       ~print:(fun codes -> String.concat ";" (List.map string_of_int codes))
       schedule_gen
       (fun codes ->
         let mk = team_mk (Lazy.force cert) in
         fingerprint_after mk codes = fingerprint_after mk codes))

let qcheck_fingerprint_stable_fig4 =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"fingerprint is replay-stable (Figure 4, lazy objects)"
       ~print:(fun codes -> String.concat ";" (List.map string_of_int codes))
       schedule_gen
       (fun codes -> fingerprint_after (fig4_mk 3) codes = fingerprint_after (fig4_mk 3) codes))

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

let suite =
  [
    Alcotest.test_case "raw mode matches seed baselines" `Quick test_raw_baselines;
    Alcotest.test_case "raw mode matches seed baseline (2 crashes)" `Slow
      test_raw_baseline_two_crashes;
    Alcotest.test_case "dedup stats: seq = par (domain/frontier sweep)" `Quick
      test_dedup_seq_par_identical;
    Alcotest.test_case "dedup stats: seq = par on Figure 4" `Quick test_dedup_fig4_identical;
    Alcotest.test_case "dedup node reduction >= 5x (2 crashes)" `Slow test_dedup_node_reduction;
    Alcotest.test_case "dedup violation schedule: seq = par" `Quick
      test_dedup_violation_schedule_identical;
    qcheck_fingerprint_stable;
    qcheck_fingerprint_stable_fig4;
    Alcotest.test_case "observation trace is an ordered chain, reset by crashes" `Quick
      test_trace_chain;
  ]
