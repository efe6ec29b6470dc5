(* Partial-order + symmetry reduction: soundness and determinism.

   Four layers of guarantees are pinned here:
   - the independence relation's ingredients: the footprint conflict
     matrix ([Rcons_spec.Footprint]) and the relabeling group
     ([Sim.relabelings] / [Certificate.symmetry_classes]) behave as the
     explorer's soundness argument assumes;
   - reduced modes are deterministic: the por / por+dedup / +symmetry
     statistics on the Figure 2 suites are hard-coded baselines, so any
     accidental change to the sleep-set computation or the canonical
     fingerprint fails loudly;
   - reduced modes find a violation iff the raw explorer does (the
     sleep-set theorem made executable, qcheck'd over sampled workload
     configurations), and a violation found under reduction replays
     concretely through the [Counterexample] pipeline;
   - the resumption contract: reduced runs refuse [?resume_from], and a
     finished checkpoint (empty cursor) short-circuits instead of
     re-walking its tree. *)

open Rcons_runtime
module Footprint = Rcons_spec.Footprint
module Cex = Rcons.Counterexample

let stats_eq =
  Alcotest.testable
    (fun ppf (s : Explore.stats) ->
      Format.fprintf ppf
        "{schedules=%d; nodes=%d; max_depth=%d; dedup_hits=%d; distinct_states=%d; \
         por_pruned=%d; symmetry_hits=%d}"
        s.schedules s.nodes s.max_depth s.dedup_hits s.distinct_states s.por_pruned
        s.symmetry_hits)
    ( = )

(* --- the independence relation's ingredients --- *)

let test_footprint_matrix () =
  let open Footprint in
  let obj oid kind = Obj { oid; kind } in
  (* Global conflicts with everything, including itself. *)
  Alcotest.(check bool) "global/global" false (independent Global Global);
  Alcotest.(check bool) "global/read" false (independent Global (obj 0 Read));
  Alcotest.(check bool) "read/global" false (independent (obj 0 Read) Global);
  (* Distinct objects always commute, whatever the kinds. *)
  List.iter
    (fun (k1, k2) ->
      Alcotest.(check bool) "distinct oids" true (independent (obj 0 k1) (obj 1 k2)))
    [ (Write, Write); (Update, Update); (Write, Flush); (Sync, Flush) ];
  (* Same object: the conflict matrix. *)
  let indep k1 k2 = independent (obj 7 k1) (obj 7 k2) in
  List.iter
    (fun (k1, k2, expect) ->
      Alcotest.(check bool)
        (Format.asprintf "%a/%a" pp_kind k1 pp_kind k2)
        expect (indep k1 k2);
      Alcotest.(check bool)
        (Format.asprintf "%a/%a (sym)" pp_kind k2 pp_kind k1)
        expect (indep k2 k1))
    [
      (Read, Read, true);
      (Read, Write, false);
      (Read, Update, false);
      (Read, Flush, true);
      (Read, Sync, true);
      (Write, Write, false);
      (Write, Update, false);
      (Write, Flush, false);
      (Write, Sync, false);
      (Update, Update, false);
      (Update, Flush, false);
      (Update, Sync, false);
      (Flush, Flush, true);
      (Flush, Sync, false);
      (Sync, Sync, true);
    ]

let perm_list = List.map Array.to_list

let test_relabelings () =
  Alcotest.(check (list (list int)))
    "no classes -> identity only"
    [ [ 0; 1; 2 ] ]
    (perm_list (Sim.relabelings ~classes:[] 3));
  Alcotest.(check (list (list int)))
    "one pair, identity first"
    [ [ 0; 1; 2 ]; [ 1; 0; 2 ] ]
    (perm_list (Sim.relabelings ~classes:[ [ 0; 1 ] ] 3));
  let g = Sim.relabelings ~classes:[ [ 0; 1 ]; [ 2; 3 ] ] 4 in
  Alcotest.(check int) "two pairs -> 4 relabelings" 4 (List.length g);
  Alcotest.(check (list int)) "identity first" [ 0; 1; 2; 3 ] (Array.to_list (List.hd g));
  (* Closed under composition: a group, not just a generating set. *)
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          let pq = Array.init 4 (fun i -> p.(q.(i))) in
          Alcotest.(check bool) "closed under composition" true
            (List.exists (fun r -> r = pq) g))
        g)
    g

let test_symmetry_classes () =
  (* Level 2: singleton teams, nothing to exchange. *)
  (match Cex.symmetry_classes (Cex.team2 "S2") with
  | Ok [] -> ()
  | Ok cls ->
      Alcotest.failf "S2 level 2 should have no classes, got %d" (List.length cls)
  | Error e -> Alcotest.fail e);
  (* Level 3: one two-member team of equal operations. *)
  match Cex.symmetry_classes (Cex.team2 ~level:3 "sticky") with
  | Ok [ cls ] -> Alcotest.(check int) "one class of two slots" 2 (List.length cls)
  | Ok cls -> Alcotest.failf "sticky level 3: expected one class, got %d" (List.length cls)
  | Error e -> Alcotest.fail e

(* --- reduced modes are deterministic: pinned baselines --- *)

(* Raw counterparts are pinned in test_dedup.ml: S_2 1-crash raw is
   (30120 schedules, 112674 nodes); dedup-only is (39, 1781). *)
let test_reduced_baselines () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  Alcotest.check stats_eq "S_2 1 crash, por"
    {
      schedules = 1442;
      nodes = 14234;
      max_depth = 19;
      dedup_hits = 0;
      distinct_states = 0;
      por_pruned = 5728;
      symmetry_hits = 0;
    }
    (Explore.explore ~max_crashes:1 ~por:true ~mk:(Helpers.team_mk s2) ());
  Alcotest.check stats_eq "S_2 1 crash, dedup+por"
    {
      schedules = 8;
      nodes = 696;
      max_depth = 18;
      dedup_hits = 283;
      distinct_states = 341;
      por_pruned = 182;
      symmetry_hits = 0;
    }
    (Explore.explore ~max_crashes:1 ~dedup:true ~por:true ~mk:(Helpers.team_mk s2) ());
  let sticky3 = Helpers.cert_of Rcons_spec.Sticky_bit.t 3 in
  let classes =
    match Cex.symmetry_classes (Cex.team2 ~level:3 "sticky") with
    | Ok cls -> cls
    | Error e -> Alcotest.fail e
  in
  (* [symmetry_hits] records whether the minimum digest over the group
     beat the identity digest, so unlike every other field it depends on
     the fingerprint bytes themselves, not only on the state graph: a
     change of fingerprint format may move it and nothing else. *)
  Alcotest.check stats_eq "sticky level 3, 0 crashes, dedup+symmetry"
    {
      schedules = 7;
      nodes = 903;
      max_depth = 18;
      dedup_hits = 513;
      distinct_states = 391;
      por_pruned = 0;
      symmetry_hits = 409;
    }
    (Explore.explore ~max_crashes:0 ~dedup:true ~symmetry:classes ~mk:(Helpers.team_mk sticky3) ())

(* The acceptance bar of this change (see also bench E13): on the
   2-crash Figure 2 workload with a two-member team, full reduction
   must visit at least 10x fewer state-graph edges than dedup alone.
   The dedup-only count is a pinned baseline (its run is ~1 min, too
   slow to recompute here; `dune exec bench/main.exe -- E13` does). *)
let test_reduction_factor_two_crashes () =
  let sticky3 = Helpers.cert_of Rcons_spec.Sticky_bit.t 3 in
  let dedup_only_nodes = 169_806 in
  let classes =
    match Cex.symmetry_classes (Cex.team2 ~level:3 "sticky") with
    | Ok cls -> cls
    | Error e -> Alcotest.fail e
  in
  let r =
    Explore.explore ~max_crashes:2 ~dedup:true ~por:true ~symmetry:classes
      ~mk:(Helpers.team_mk sticky3) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "dedup+por+symmetry nodes %d <= dedup nodes %d / 10" r.nodes
       dedup_only_nodes)
    true
    (r.nodes * 10 <= dedup_only_nodes);
  Alcotest.(check bool) "por actually pruned" true (r.por_pruned > 0);
  Alcotest.(check bool) "symmetry actually hit" true (r.symmetry_hits > 0)

(* --- violation iff raw, and concrete replay of reduced-mode finds --- *)

let verdict ?(dedup = false) ?(por = false) ?symmetry w =
  match Cex.mk w with
  | Error e -> Alcotest.fail e
  | Ok mk -> (
      match
        Explore.explore ~max_crashes:0 ~dedup ~por ?symmetry
          ~fingerprint:(Cex.fingerprint w) ~mk ()
      with
      | (_ : Explore.stats) -> None
      | exception Explore.Violation v -> Some v)

let test_violation_replay () =
  let w = Cex.team2 ~faithful:false ~level:3 "sticky" in
  let classes =
    match Cex.symmetry_classes w with Ok cls -> cls | Error e -> Alcotest.fail e
  in
  let raw = verdict w in
  Alcotest.(check bool) "raw finds the broken variant" true (raw <> None);
  List.iter
    (fun (name, v) ->
      match v with
      | None -> Alcotest.failf "%s missed the violation the raw explorer finds" name
      | Some v -> (
          (* The reduced-mode schedule is a real schedule: it must
             replay concretely through the counterexample pipeline. *)
          let cex = Cex.of_violation w v in
          (match Cex.replay cex with
          | `Violated _ -> ()
          | `Passed -> Alcotest.failf "%s: schedule does not replay" name);
          match Cex.minimize cex with
          | Error e -> Alcotest.failf "%s: minimize failed: %s" name e
          | Ok min -> (
              match Cex.replay min with
              | `Violated _ -> ()
              | `Passed -> Alcotest.failf "%s: minimized schedule does not replay" name)))
    [
      ("por", verdict ~por:true w);
      ("dedup+por", verdict ~dedup:true ~por:true w);
      ("dedup+por+symmetry", verdict ~dedup:true ~por:true ~symmetry:classes w);
    ]

(* Violation-iff-raw over sampled workload configurations: object type,
   recording level, variant, persistency policy, crash budget.  The
   qcheck generator picks a configuration; the property runs the raw
   explorer and every reduced mode and demands identical verdicts. *)
let configs =
  [|
    ("S2", 2, 0);
    ("S2", 2, 1);
    ("S3", 3, 0);
    ("sticky", 2, 1);
    ("sticky", 3, 0);
    ("cas", 2, 1);
    ("consensus", 2, 0);
  |]

let config_gen =
  QCheck2.Gen.(
    tup4 (int_bound (Array.length configs - 1)) bool
      (oneofl [ Persist.Eager; Persist.Lossy; Persist.Torn ])
      bool)

let qcheck_violation_iff_raw =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12 ~name:"reduced modes find a violation iff raw does"
       ~print:(fun (i, faithful, policy, annotated) ->
         let ty, level, crashes = configs.(i) in
         Printf.sprintf "%s level=%d crashes=%d faithful=%b %s%s" ty level crashes faithful
           (Persist.policy_to_string policy)
           (if annotated then " annotated" else ""))
       config_gen
       (fun (i, faithful, policy, annotated) ->
         let ty, level, crashes = configs.(i) in
         let w = Cex.team2 ~faithful ~level ~persist:policy ~annotated ty in
         let classes =
           match Cex.symmetry_classes w with Ok cls -> cls | Error e -> Alcotest.fail e
         in
         (* Per-sample node cap: some sampled raw spaces (annotated
            level-3 runs) are minutes of work.  A reduced walk only ever
            visits a subset of the raw tree's nodes, so if raw finishes
            under the cap, so do the reduced modes; a capped raw sample
            is vacuous. *)
         let explore ?(dedup = false) ?(por = false) ?symmetry () =
           match Cex.mk w with
           | Error e -> Alcotest.fail e
           | Ok mk -> (
               match
                 Explore.explore ~max_crashes:crashes ~node_budget:150_000 ~dedup ~por ?symmetry
                   ~mk ()
               with
               | (_ : Explore.stats) -> Some false
               | exception Explore.Violation _ -> Some true
               | exception Explore.Interrupted _ -> None)
         in
         match explore () with
         | None -> true
         | Some _ as raw ->
             raw = explore ~por:true ()
             && raw = explore ~dedup:true ~por:true ()
             && raw = explore ~dedup:true ~por:true ~symmetry:classes ()))

(* --- parameter validation and the resumption contract --- *)

let expect_invalid name f =
  match f () with
  | (_ : Explore.stats) -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* Out-of-range bounds are refused before anything runs: no budget
   trips, so no checkpoint is ever produced for them. *)
let test_bounds_validation () =
  let mk = Helpers.team_mk (Helpers.cert_of (Rcons_spec.Sn.make 2) 2) in
  expect_invalid "max_crashes -1" (fun () -> Explore.explore ~max_crashes:(-1) ~mk ());
  expect_invalid "node_budget 0" (fun () -> Explore.explore ~node_budget:0 ~mk ());
  expect_invalid "node_budget -1" (fun () -> Explore.explore ~node_budget:(-1) ~mk ());
  (* The budget and resume are sequential-only. *)
  expect_invalid "node_budget on 2 domains" (fun () ->
      Explore.explore ~node_budget:100 ~domains:2 ~mk ());
  let cp =
    match Explore.explore ~node_budget:10 ~mk () with
    | (_ : Explore.stats) -> Alcotest.fail "expected the node budget to trip"
    | exception Explore.Interrupted cp -> cp
  in
  expect_invalid "resume_from on 2 domains" (fun () ->
      Explore.explore ~resume_from:cp ~domains:2 ~mk ())

let test_reduced_validation () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  expect_invalid "symmetry without dedup" (fun () ->
      Explore.explore ~symmetry:[ [ 0; 1 ] ] ~mk:(Helpers.team_mk s2) ());
  expect_invalid "por+dedup on several domains" (fun () ->
      Explore.explore ~dedup:true ~por:true ~domains:4 ~mk:(Helpers.team_mk s2) ());
  (* Interrupt a dedup run, then try to resume it with reduction on. *)
  let cp =
    match
      Explore.explore ~max_crashes:1 ~dedup:true ~node_budget:200 ~mk:(Helpers.team_mk s2) ()
    with
    | (_ : Explore.stats) -> Alcotest.fail "expected the node budget to trip"
    | exception Explore.Interrupted cp -> cp
  in
  expect_invalid "resume with por" (fun () ->
      Explore.explore ~max_crashes:1 ~dedup:true ~por:true ~resume_from:cp
        ~mk:(Helpers.team_mk s2) ());
  expect_invalid "resume with symmetry" (fun () ->
      Explore.explore ~max_crashes:1 ~dedup:true ~symmetry:[ [ 0; 1 ] ] ~resume_from:cp
        ~mk:(Helpers.team_mk s2) ())

(* A checkpoint whose cursor is empty denotes a finished run: resuming
   from it must return its statistics verbatim -- not silently re-walk
   the whole tree (the previous behaviour, observable as stats drift:
   re-walking re-counts the pre-interrupt region). *)
let test_empty_cursor_short_circuit () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let cp =
    match
      Explore.explore ~max_crashes:1 ~dedup:true ~node_budget:200 ~mk:(Helpers.team_mk s2) ()
    with
    | (_ : Explore.stats) -> Alcotest.fail "expected the node budget to trip"
    | exception Explore.Interrupted cp -> cp
  in
  (* Surgically empty the cursor via the JSON round-trip. *)
  let finished =
    match Explore.checkpoint_to_json cp with
    | Json.Obj fields ->
        Explore.checkpoint_of_json
          (Json.Obj
             (List.map
                (function "cursor", _ -> ("cursor", Json.List []) | f -> f)
                fields))
    | _ -> Alcotest.fail "checkpoint JSON is not an object"
  in
  let partial = Explore.checkpoint_stats cp in
  let full = Explore.explore ~max_crashes:1 ~dedup:true ~mk:(Helpers.team_mk s2) () in
  Alcotest.(check bool) "interrupt really was partial" true (partial <> full);
  Alcotest.check stats_eq "finished checkpoint returns its stats verbatim" partial
    (Explore.explore ~max_crashes:1 ~dedup:true ~resume_from:finished ~mk:(Helpers.team_mk s2) ())

let suite =
  [
    Alcotest.test_case "footprint conflict matrix" `Quick test_footprint_matrix;
    Alcotest.test_case "relabeling group" `Quick test_relabelings;
    Alcotest.test_case "certificate symmetry classes" `Quick test_symmetry_classes;
    Alcotest.test_case "reduced modes match pinned baselines" `Quick test_reduced_baselines;
    Alcotest.test_case "2-crash reduction factor >= 10x" `Slow
      test_reduction_factor_two_crashes;
    Alcotest.test_case "reduced-mode violations replay concretely" `Quick
      test_violation_replay;
    qcheck_violation_iff_raw;
    Alcotest.test_case "explore refuses out-of-range bounds" `Quick test_bounds_validation;
    Alcotest.test_case "reduced modes refuse invalid parameters" `Quick
      test_reduced_validation;
    Alcotest.test_case "finished checkpoint short-circuits" `Quick
      test_empty_cursor_short_circuit;
  ]
