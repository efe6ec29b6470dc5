(* Determinism of the parallel engine: everything computed with
   [?domains > 1] must be byte-equal to its sequential counterpart --
   witness certificates across the whole catalogue, classification
   reports, explorer statistics, and the violation schedule found on a
   seeded broken algorithm.  A qcheck meta-test extends the guarantee to
   random finite types.

   The machine running the suite may have a single core; correctness of
   the deterministic merge (Rcons_par.Pool) does not depend on real
   parallel execution, only on multiple domains actually running the
   sharded code paths, which they do regardless of core count. *)

open Rcons_check
open Rcons_runtime
module Cex = Rcons.Counterexample

let domains = 4

(* Disable the granularity cutoff for the whole test binary: with the
   default 1ms grace period most of these workloads would finish inline
   and never touch the pool, and the determinism suites are only worth
   running if cursor claims and the shared visited store actually
   execute.  (A dedicated test below re-enables the cutoff and checks the
   inline path separately.) *)
let () = Rcons_par.Pool.set_sequential_cutoff 0.

(* --- the pool primitives themselves --- *)

let test_pool_map () =
  let f i = (i * 37) mod 101 in
  Alcotest.(check (array int)) "map = Array.init" (Array.init 1000 f)
    (Rcons_par.Pool.map ~domains 1000 f);
  Alcotest.(check (array int)) "empty" [||] (Rcons_par.Pool.map ~domains 0 f)

let test_pool_find_first () =
  (* Many hits: the smallest index must win even though later hits are
     found first by other domains. *)
  let f i = if i mod 7 = 3 then Some (i * 2) else None in
  Alcotest.(check (option int)) "first hit wins" (Some 6) (Rcons_par.Pool.find_first ~domains 1000 f);
  Alcotest.(check (option int)) "no hit" None (Rcons_par.Pool.find_first ~domains 1000 (fun _ -> None));
  Alcotest.(check (option int)) "late single hit" (Some 999)
    (Rcons_par.Pool.find_first ~domains 1000 (fun i -> if i = 999 then Some i else None))

(* An index above a hit learns it is superseded, so it may stop early;
   the hit still wins, and nothing is superseded outside a scan. *)
let test_pool_superseded () =
  let open Rcons_par.Pool in
  let started = Atomic.make false and saw = Atomic.make false in
  let wait_for cond =
    let t0 = Unix.gettimeofday () in
    while (not (cond ())) && Unix.gettimeofday () -. t0 < 5. do
      Unix.sleepf 0.0001
    done
  in
  let r =
    find_first ~domains 64 (fun i ->
        match i with
        | 1 ->
            (* Hold the hit at 1 back until index 2 has started. *)
            wait_for (fun () -> Atomic.get started);
            Some 1
        | 2 ->
            Atomic.set started true;
            wait_for superseded;
            if superseded () then Atomic.set saw true;
            Some 2
        | _ -> None)
  in
  Alcotest.(check (option int)) "smallest hit wins" (Some 1) r;
  Alcotest.(check bool) "an index above the hit saw itself superseded" true (Atomic.get saw);
  Alcotest.(check bool) "false outside a scan" false (superseded ())

(* Claims follow index order, so once the hit at 5 is known no
   participant starts an index far above it, however long the range;
   misses are slow so the hit lands while the others are still busy. *)
let test_pool_find_first_front () =
  let far = Atomic.make 0 in
  let r =
    Rcons_par.Pool.find_first ~domains 1_000_000 (fun i ->
        if i = 5 then Some i
        else begin
          if i > 10_000 then Atomic.incr far;
          Unix.sleepf 0.001;
          None
        end)
  in
  Alcotest.(check (option int)) "hit" (Some 5) r;
  Alcotest.(check int) "indices started above 10 000" 0 (Atomic.get far)

let test_pool_exn_propagates () =
  Alcotest.check_raises "exception crosses domains" (Failure "boom") (fun () ->
      ignore (Rcons_par.Pool.map ~domains 100 (fun i -> if i = 50 then failwith "boom" else i)))

let test_cutoff_config () =
  let saved = Rcons_par.Pool.sequential_cutoff () in
  Rcons_par.Pool.set_sequential_cutoff 0.25;
  Alcotest.(check (float 1e-9)) "set/get" 0.25 (Rcons_par.Pool.sequential_cutoff ());
  (* Scans that drain inside the grace period take the inline path and
     must still produce the canonical answers. *)
  let f i = (i * 37) mod 101 in
  Alcotest.(check (array int)) "map under cutoff" (Array.init 500 f)
    (Rcons_par.Pool.map ~domains 500 f);
  Alcotest.(check (option int)) "find_first under cutoff" (Some 6)
    (Rcons_par.Pool.find_first ~domains 1000 (fun i -> if i mod 7 = 3 then Some (i * 2) else None));
  Rcons_par.Pool.set_sequential_cutoff (-1.);
  Alcotest.(check (float 1e-9)) "clamped at zero" 0. (Rcons_par.Pool.sequential_cutoff ());
  Rcons_par.Pool.set_sequential_cutoff saved

let test_telemetry () =
  let saved = Rcons_par.Pool.sequential_cutoff () in
  let open Rcons_par.Pool in
  set_sequential_cutoff 10.;
  let b0 = Telemetry.snapshot () in
  ignore (map ~domains 200 (fun i -> i));
  let d = Telemetry.diff (Telemetry.snapshot ()) b0 in
  Alcotest.(check bool) "grace-period completion counted" true (d.Telemetry.seq_cutoffs >= 1);
  Alcotest.(check int) "no job submitted under cutoff" 0 d.Telemetry.jobs;
  set_sequential_cutoff 0.;
  let b1 = Telemetry.snapshot () in
  ignore (map ~domains 200 (fun i -> i));
  let d = Telemetry.diff (Telemetry.snapshot ()) b1 in
  Alcotest.(check bool) "job submitted" true (d.Telemetry.jobs >= 1);
  Alcotest.(check bool) "chunks claimed" true (d.Telemetry.chunks >= 1);
  set_sequential_cutoff saved

(* --- the visited store --- *)

(* The cover rule, one key at a time: a stored (mask, depth) pair
   covers a later claim whose mask is a superset at no smaller depth;
   anything else claims again and is stored too. *)
let test_visited_cover_rule () =
  let module V = Rcons_par.Visited in
  let v = V.create () in
  let k = Digest.string "state" in
  Alcotest.(check bool) "first claim expands" true (V.claim v k ~mask:0b0101 ~depth:5);
  Alcotest.(check bool) "same pair covered" false (V.claim v k ~mask:0b0101 ~depth:5);
  Alcotest.(check bool) "superset mask, greater depth covered" false
    (V.claim v k ~mask:0b1101 ~depth:7);
  Alcotest.(check bool) "subset mask claims again" true (V.claim v k ~mask:0b0001 ~depth:5);
  Alcotest.(check bool) "smaller depth claims again" true (V.claim v k ~mask:0b0101 ~depth:3);
  Alcotest.(check bool) "disjoint mask claims again" true (V.claim v k ~mask:0b1000 ~depth:9);
  Alcotest.(check bool) "covered by a later pair" false (V.claim v k ~mask:0b0011 ~depth:6);
  Alcotest.(check int) "one distinct key" 1 (V.cardinal v);
  let a = Digest.string "a" in
  Alcotest.(check bool) "add claims once" true (V.add v a);
  Alcotest.(check bool) "add again loses" false (V.add v a);
  Alcotest.(check bool) "add covers every later pair" false (V.claim v a ~mask:0b111 ~depth:0);
  Alcotest.(check bool) "add after masked claims claims again" true (V.add v k);
  Alcotest.(check bool) "then covers every pair" false (V.claim v k ~mask:0 ~depth:0);
  Alcotest.(check int) "two distinct keys" 2 (V.cardinal v)

(* N domains race to claim the same key set (each in a different rotated
   order, so collisions hit different probe clusters at different
   times).  Exactly-once means the wins across all domains partition the
   distinct keys. *)
let visited_race ~num_domains keys =
  let n = Array.length keys in
  let v = Rcons_par.Visited.create () in
  let wins =
    Array.init num_domains (fun d ->
        Domain.spawn (fun () ->
            let w = ref 0 in
            for i = 0 to n - 1 do
              if Rcons_par.Visited.add v keys.((i + (d * 131)) mod n) then incr w
            done;
            !w))
    |> Array.map Domain.join
  in
  (v, Array.fold_left ( + ) 0 wins)

let distinct_sorted l = List.sort_uniq compare l

(* 20 000 keys over 64 shards of 128 slots: every shard doubles at least
   twice while the domains race. *)
let test_visited_exactly_once () =
  let n = 20_000 in
  let keys = Array.init n (fun i -> Digest.string (string_of_int i)) in
  let v, total = visited_race ~num_domains:6 keys in
  Alcotest.(check int) "every key claimed exactly once" n total;
  Alcotest.(check int) "cardinal" n (Rcons_par.Visited.cardinal v);
  Alcotest.(check bool) "elements = keys (no lost inserts across growth)" true
    (distinct_sorted (List.map fst (Rcons_par.Visited.elements v))
     = distinct_sorted (Array.to_list keys));
  Alcotest.(check bool) "late add loses" false (Rcons_par.Visited.add v keys.(0));
  Alcotest.(check bool) "absent key claims" true
    (Rcons_par.Visited.add v (Digest.string "absent"))

let visited_gen =
  QCheck2.Gen.(
    let* n = int_range 50 600 in
    let* num_domains = int_range 2 6 in
    let* seed = int_bound 1_000_000 in
    return (n, num_domains, seed))

let print_visited (n, num_domains, seed) =
  Printf.sprintf "n=%d domains=%d seed=%d" n num_domains seed

(* Random key sets mix digest-length keys (the fast hash path) with short
   ones (the fallback path) and contain duplicates, so some [add]s lose
   within a single domain as well as across domains. *)
let visited_exactly_once (n, num_domains, seed) =
  let rng = Random.State.make [| seed; n; 7 |] in
  let keys =
    Array.init n (fun _ ->
        if Random.State.bool rng then Digest.string (string_of_int (Random.State.int rng 500))
        else String.init (1 + Random.State.int rng 6) (fun _ ->
                 Char.chr (32 + Random.State.int rng 90)))
  in
  let distinct = distinct_sorted (Array.to_list keys) in
  let v, total = visited_race ~num_domains keys in
  total = List.length distinct
  && Rcons_par.Visited.cardinal v = List.length distinct
  && distinct_sorted (List.map fst (Rcons_par.Visited.elements v)) = distinct

let qcheck_visited =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"visited set: exactly-once claims under domain races"
       ~print:print_visited visited_gen visited_exactly_once)

(* --- witness determinism across the catalogue --- *)

let show_rec = function
  | None -> "none"
  | Some c -> Format.asprintf "%a" Certificate.pp_recording c

let show_disc = function
  | None -> "none"
  | Some c -> Format.asprintf "%a" Certificate.pp_discerning c

let test_witnesses_catalogue () =
  List.iter
    (fun e ->
      let ot = e.Rcons_spec.Catalogue.ot in
      let name = Rcons_spec.Object_type.name ot in
      List.iter
        (fun n ->
          Alcotest.(check string)
            (Printf.sprintf "%s recording witness n=%d" name n)
            (show_rec (Recording.witness ot n))
            (show_rec (Recording.witness ~domains ot n));
          Alcotest.(check string)
            (Printf.sprintf "%s discerning witness n=%d" name n)
            (show_disc (Discerning.witness ot n))
            (show_disc (Discerning.witness ~domains ot n)))
        [ 2; 3 ])
    Rcons_spec.Catalogue.all

let test_witnesses_separating_types () =
  List.iter
    (fun (name, ot, n) ->
      Alcotest.(check string)
        (Printf.sprintf "%s recording witness n=%d" name n)
        (show_rec (Recording.witness ot n))
        (show_rec (Recording.witness ~domains ot n)))
    [
      ("S_4", Rcons_spec.Sn.make 4, 4);
      ("T_5", Rcons_spec.Tn.make 5, 3);
      ("T_5 (no witness)", Rcons_spec.Tn.make 5, 4);
    ]

let test_classify_reports () =
  List.iter
    (fun (name, ot) ->
      let seq = Classify.classify ~limit:4 ot in
      let par = Classify.classify ~domains ~limit:4 ot in
      Alcotest.(check bool) (name ^ ": classify report identical") true (seq = par))
    [
      ("sticky", Rcons_spec.Sticky_bit.t);
      ("cas", Rcons_spec.Cas.default);
      ("T_4", Rcons_spec.Tn.make 4);
      ("swap", Rcons_spec.Swap.default);
      ("stack", Rcons_spec.Stack.default);
    ]

let test_brute_force_agrees () =
  List.iter
    (fun (name, ot) ->
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s brute recording n=%d" name n)
            (Brute_force.is_recording ot n)
            (Brute_force.is_recording ~domains ot n);
          Alcotest.(check bool)
            (Printf.sprintf "%s brute discerning n=%d" name n)
            (Brute_force.is_discerning ot n)
            (Brute_force.is_discerning ~domains ot n))
        [ 2; 3 ])
    [ ("tas", Rcons_spec.Test_and_set.t); ("flip", Rcons_spec.Flip_bit.t) ]

(* --- explorer determinism --- *)

let stats_eq = Alcotest.testable
    (fun ppf (s : Explore.stats) ->
      Format.fprintf ppf "{schedules=%d; nodes=%d; max_depth=%d}" s.schedules s.nodes s.max_depth)
    ( = )

let test_explore_stats_identical () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let seq = Explore.explore ~max_crashes:1 ~mk:(Helpers.team_mk cert) () in
  List.iter
    (fun frontier_depth ->
      let par =
        Explore.explore ~max_crashes:1 ~domains ~frontier_depth ~mk:(Helpers.team_mk cert) ()
      in
      Alcotest.check stats_eq
        (Printf.sprintf "merged stats = sequential stats (frontier %d)" frontier_depth)
        seq par)
    [ 1; 3; 7 ]

(* The same workload through both engine modes: raw (frontier fan-out
   with watermark merge) and dedup (shared visited store) must
   each report stats byte-equal to their sequential counterpart, at
   several frontier depths. *)
let test_explore_stats_parity_modes () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  List.iter
    (fun dedup ->
      let seq = Explore.explore ~dedup ~max_crashes:1 ~mk:(Helpers.team_mk cert) () in
      List.iter
        (fun frontier_depth ->
          let par =
            Explore.explore ~dedup ~max_crashes:1 ~domains ~frontier_depth
              ~mk:(Helpers.team_mk cert) ()
          in
          Alcotest.check stats_eq
            (Printf.sprintf "%s stats parity (frontier %d)"
               (if dedup then "dedup" else "raw")
               frontier_depth)
            seq par)
        [ 2; 5 ])
    [ false; true ]

(* Raw+por across the parallel frontier: sleep sets travel with frontier
   items, so the reduced walk stays deterministic -- merged parallel
   stats (including the por_pruned counter) must equal the sequential
   reduced run at every frontier depth.  (dedup+por is sequential-only
   by construction and refused with domains > 1, pinned in
   test_reduction.ml.) *)
let test_explore_stats_parity_por () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let seq = Explore.explore ~por:true ~max_crashes:1 ~mk:(Helpers.team_mk cert) () in
  Alcotest.(check bool) "por actually pruned" true (seq.por_pruned > 0);
  List.iter
    (fun frontier_depth ->
      let par =
        Explore.explore ~por:true ~max_crashes:1 ~domains ~frontier_depth
          ~mk:(Helpers.team_mk cert) ()
      in
      Alcotest.check stats_eq
        (Printf.sprintf "raw+por stats parity (frontier %d)" frontier_depth)
        seq par)
    [ 2; 5 ]

let test_explore_sticky_identical () =
  (* A different algorithm shape than S_2: the sticky bit's 2-recording
     certificate exercises the q0-free path of Figure 2. *)
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t 2 in
  let seq = Explore.explore ~max_crashes:1 ~mk:(Helpers.team_mk cert) () in
  let par = Explore.explore ~max_crashes:1 ~domains ~mk:(Helpers.team_mk cert) () in
  Alcotest.check stats_eq "sticky-bit one-crash stats" seq par

(* The broken Figure 2 variant (no |B| = 1 guard) must be caught on the
   same schedule, whatever the domain count: the parallel explorer
   surfaces the violation the sequential DFS would have raised first. *)
let test_explore_violation_schedule_identical () =
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t 3 in
  let run ?domains ?frontier_depth () =
    match
      Explore.explore ?domains ?frontier_depth ~max_crashes:0
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
        (Printf.sprintf "violation schedule (frontier %d)" frontier_depth)
        seq
        (run ~domains ~frontier_depth ()))
    [ 1; 4 ]

(* --- rollback vs rebuild: the two backtrack strategies --- *)

(* The explorer's single walker restores its live system to each fork
   point either by rolling the undo journal back ([~undo:true], the
   default) or by rebuilding the fork point from its prefix on a fresh
   system ([~undo:false], the oracle).  The strategy must be invisible:
   on any workload, in every exploration mode, both report the same
   stats and surface the same first violation on the same schedule --
   sequentially and across the parallel frontier, under every
   persistency policy.  Rendering the outcome (stats,
   violation+schedule, or the checkpoint a node budget cuts) as one
   string makes any disagreement a single comparison. *)
let engine_outcome ?domains ?frontier_depth ?dedup ?por ?symmetry ?node_budget ~max_crashes ~undo
    mk =
  match
    Explore.explore ?domains ?frontier_depth ?dedup ?por ?symmetry ?node_budget ~max_crashes ~undo
      ~mk ()
  with
  | s ->
      Format.asprintf
        "stats{schedules=%d; nodes=%d; depth=%d; dedup_hits=%d; distinct=%d; por_pruned=%d; \
         symmetry_hits=%d}"
        s.Explore.schedules s.nodes s.max_depth s.dedup_hits s.distinct_states s.por_pruned
        s.symmetry_hits
  | exception Explore.Violation { v_msg = msg; v_schedule = sched; _ } ->
      Format.asprintf "%s at %a" msg Explore.pp_schedule sched
  | exception Explore.Interrupted cp ->
      "checkpoint " ^ Json.to_string (Explore.checkpoint_to_json cp)

(* Exploration modes the walker serves.  Raw, dedup and raw por run on
   1/2/4 domains; por + dedup is sequential-only, and dedup + symmetry
   runs sequentially on the 3-process sticky workload, the smallest one
   with a non-trivial symmetry class. *)
type engine_mode = Raw | Dedup | Por | Por_dedup | Dedup_symmetry

let engine_modes = [| Raw; Dedup; Por; Por_dedup; Dedup_symmetry |]

let mode_name = function
  | Raw -> "raw"
  | Dedup -> "dedup"
  | Por -> "por"
  | Por_dedup -> "por+dedup"
  | Dedup_symmetry -> "dedup+symmetry"

let engine_gen =
  QCheck2.Gen.(
    let* ot = int_bound 1 in
    let* pol = int_bound 2 in
    let* max_crashes = int_bound 1 in
    let* faithful = bool in
    let* mode = int_bound (Array.length engine_modes - 1) in
    return (ot, pol, max_crashes, faithful, engine_modes.(mode)))

let print_engine_case (ot, pol, max_crashes, faithful, mode) =
  Printf.sprintf "ot=%s policy=%s crashes=%d faithful=%b mode=%s"
    (if mode = Dedup_symmetry then "sticky(level 3)" else if ot = 0 then "S_2" else "sticky")
    (match pol with 0 -> "eager" | 1 -> "lossy" | _ -> "torn")
    max_crashes faithful (mode_name mode)

let engines_agree (ot_idx, pol, max_crashes, faithful, mode) =
  let policy = match pol with 0 -> Persist.Eager | 1 -> Persist.Lossy | _ -> Persist.Torn in
  let cert =
    if mode = Dedup_symmetry then Helpers.cert_of Rcons_spec.Sticky_bit.t 3
    else Helpers.cert_of (if ot_idx = 0 then Rcons_spec.Sn.make 2 else Rcons_spec.Sticky_bit.t) 2
  in
  let mk () = Persist.scoped policy (Helpers.team_mk ~faithful cert) in
  let dedup = mode <> Raw && mode <> Por in
  let por = mode = Por || mode = Por_dedup in
  let symmetry =
    if mode = Dedup_symmetry then Some (Certificate.symmetry_classes cert) else None
  in
  let domain_counts = if mode = Por_dedup || mode = Dedup_symmetry then [ 1 ] else [ 1; 2; 4 ] in
  let reference = engine_outcome ~dedup ~por ?symmetry ~max_crashes ~undo:true mk in
  List.for_all
    (fun d ->
      let run undo =
        if d = 1 then engine_outcome ~dedup ~por ?symmetry ~max_crashes ~undo mk
        else
          engine_outcome ~domains:d ~frontier_depth:2 ~dedup ~por ?symmetry ~max_crashes ~undo
            mk
      in
      run true = reference && run false = reference)
    domain_counts

let qcheck_engines =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12
       ~name:"undo engine = replay oracle (random workload/policy/mode, 1/2/4 domains)"
       ~print:print_engine_case engine_gen engines_agree)

(* The workloads whose between-step bookkeeping goes through
   [Undo.aside] -- the log's histories, observations, once-flags and
   counters, Figure 4's lazily created instances, RUniversal's registry,
   history and script responses -- under the same oracle.  Each case
   also pins which kind of outcome it has, so none is vacuous. *)
let test_bookkeeping_engine_parity () =
  let cex w = match Cex.mk w with Ok mk -> mk | Error e -> Alcotest.fail e in
  let universal_mk () =
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
        let lin = Rcons_universal.Derived.lin_spec Rcons_universal.Derived.counter in
        ( sim,
          fun () ->
            if
              Sim.all_finished sim
              && not (Rcons_history.Conditions.durably_linearizable lin history)
            then Explore.fail "not durably linearizable" ))
  in
  List.iter
    (fun (name, kind, node_budget, dedup, por, mk) ->
      let run undo = engine_outcome ?node_budget ~dedup ~por ~max_crashes:1 ~undo mk in
      let rollback = run true in
      Alcotest.(check bool)
        (Printf.sprintf "%s: outcome is %s (%s)" name kind rollback)
        true
        (String.starts_with ~prefix:kind rollback);
      Alcotest.(check string) (name ^ ": rollback = rebuild") rollback (run false))
    [
      ( "annotated lossy log, 1 slot",
        "checkpoint",
        Some 30_000,
        true,
        true,
        cex (Cex.log ~persist:Persist.Lossy ~annotated:true ~slots:1 "sticky") );
      ( "barrier-free lossy log, 2 slots",
        "log agreement violated",
        None,
        true,
        true,
        cex (Cex.log ~persist:Persist.Lossy ~slots:2 "sticky") );
      ("Figure 4, n=2", "stats", None, true, false, Helpers.fig4_mk 2);
      ( "annotated lossy RUniversal counter, 2 procs",
        "checkpoint",
        Some 20_000,
        false,
        false,
        universal_mk );
    ]

let interrupted_checkpoint ~undo mk =
  match Explore.explore ~max_crashes:1 ~node_budget:200 ~undo ~mk () with
  | (_ : Explore.stats) -> Alcotest.fail "node budget did not trip"
  | exception Explore.Interrupted cp -> cp

(* An interrupted run cuts byte-identical checkpoints under either
   strategy, and either strategy resumes it to the uninterrupted
   stats. *)
let test_checkpoint_engine_parity () =
  let mk = Helpers.team_mk (Helpers.cert_of (Rcons_spec.Sn.make 2) 2) in
  let cp = interrupted_checkpoint ~undo:true mk in
  Alcotest.(check string) "checkpoint JSON identical under both strategies"
    (Json.to_string (Explore.checkpoint_to_json cp))
    (Json.to_string (Explore.checkpoint_to_json (interrupted_checkpoint ~undo:false mk)));
  let final = Explore.explore ~max_crashes:1 ~undo:true ~mk () in
  List.iter
    (fun (name, s) -> Alcotest.check stats_eq name final s)
    [
      ("rollback resumes the checkpoint", Explore.explore ~max_crashes:1 ~resume_from:cp ~mk ());
      ( "rebuild resumes the checkpoint",
        Explore.explore ~max_crashes:1 ~resume_from:cp ~undo:false ~mk () );
      ("uninterrupted rebuild run", Explore.explore ~max_crashes:1 ~undo:false ~mk ());
    ]

(* --- qcheck meta-test on random finite types --- *)

let table_gen =
  QCheck2.Gen.(
    let* num_states = int_range 2 3 in
    let* num_ops = int_range 1 2 in
    let* num_resps = int_range 1 2 in
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed; num_states; num_ops; 13 |] in
    return (Rcons_spec.Finite_type.random ~num_resps ~num_states ~num_ops rng))

let print_table (t : Rcons_spec.Finite_type.table) =
  Format.asprintf "%d states %d ops %s" t.num_states t.num_ops
    (String.concat ";"
       (Array.to_list t.transition
       |> List.concat_map (fun row ->
              Array.to_list row |> List.map (fun (q, r) -> Printf.sprintf "%d/%d" q r))))

let parallel_agrees table =
  let ot = Rcons_spec.Finite_type.of_table table in
  List.for_all
    (fun n ->
      show_rec (Recording.witness ot n) = show_rec (Recording.witness ~domains ot n)
      && show_disc (Discerning.witness ot n) = show_disc (Discerning.witness ~domains ot n))
    [ 2; 3 ]

let qcheck_parallel =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"parallel witness = sequential witness (random types)"
       ~print:print_table table_gen parallel_agrees)

let suite =
  [
    Alcotest.test_case "pool: map" `Quick test_pool_map;
    Alcotest.test_case "pool: find_first" `Quick test_pool_find_first;
    Alcotest.test_case "pool: find_first starts no index far above its first hit" `Quick
      test_pool_find_first_front;
    Alcotest.test_case "pool: superseded" `Quick test_pool_superseded;
    Alcotest.test_case "pool: exceptions propagate" `Quick test_pool_exn_propagates;
    Alcotest.test_case "pool: sequential cutoff config" `Quick test_cutoff_config;
    Alcotest.test_case "pool: telemetry counters" `Quick test_telemetry;
    Alcotest.test_case "visited set: exactly-once across shard growth" `Quick
      test_visited_exactly_once;
    Alcotest.test_case "visited store: cover rule" `Quick test_visited_cover_rule;
    qcheck_visited;
    Alcotest.test_case "catalogue witnesses byte-equal" `Quick test_witnesses_catalogue;
    Alcotest.test_case "separating-type witnesses byte-equal" `Quick
      test_witnesses_separating_types;
    Alcotest.test_case "classify reports identical" `Quick test_classify_reports;
    Alcotest.test_case "brute-force oracle identical" `Quick test_brute_force_agrees;
    Alcotest.test_case "explorer stats identical (incl. frontier sweep)" `Quick
      test_explore_stats_identical;
    Alcotest.test_case "explorer stats parity: raw and dedup modes" `Quick
      test_explore_stats_parity_modes;
    Alcotest.test_case "explorer stats parity: raw+por across the frontier" `Quick
      test_explore_stats_parity_por;
    Alcotest.test_case "explorer sticky-bit stats identical" `Quick
      test_explore_sticky_identical;
    Alcotest.test_case "violation schedule identical to sequential" `Quick
      test_explore_violation_schedule_identical;
    qcheck_engines;
    Alcotest.test_case "checkpoint parity and cross-engine resume" `Quick
      test_checkpoint_engine_parity;
    Alcotest.test_case "rollback = rebuild on the bookkept workloads" `Quick
      test_bookkeeping_engine_parity;
    qcheck_parallel;
  ]
