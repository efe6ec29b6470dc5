(* E13 -- partial-order + symmetry reduction ablation (ISSUE 7).

   One table: workload x crash bound x reduction mode -> nodes walked,
   completed schedules, distinct states, reduction counters, wall-clock,
   verdict.  Raw mode enumerates every interleaving (the paper-table
   numbers); dedup explores the graded state graph (PR "dedup"); por
   adds sleep-set partial-order reduction over step footprints; sym adds
   process-symmetry canonicalization where the workload's processes are
   interchangeable (certificate-derived classes).  The rows demonstrate
   the goal line of the reduction layer: 3-crash Figure 2 sweeps and an
   n = 4 RUniversal sweep inside the CI budget.

   Raw sweeps of the large configurations are far beyond this table's
   budget (the 2-crash raw tree is already 5.4M nodes), so those
   configurations run in the reduced modes only. *)

open Rcons.Runtime

(* RUniversal counter, one Incr per process, checked for recoverable
   linearizability at every leaf (all current runs finished).  The
   history drives the invariant, so it registers with the active Heap
   arena: dedup would otherwise collapse states with different
   observable histories. *)
let runiversal_mk ~n () =
  let open Rcons.Universal in
  let history = Rcons.History.History.create () in
  Heap.register (fun () -> Rcons.Spec.Object_type.digest (Rcons.History.History.events history));
  let scripts = Array.init n (fun _ -> [| Derived.Incr |]) in
  let _, _, sim = Script.system ~history Derived.counter scripts in
  let spec = Derived.lin_spec Derived.counter in
  let check () =
    if Sim.all_finished sim then
      if not (Rcons.History.Linearizability.check_history spec history) then
        Explore.fail "history not recoverable-linearizable"
  in
  (sim, check)

type mode = { m_label : string; m_dedup : bool; m_por : bool; m_sym : bool }

let raw_m = { m_label = "raw"; m_dedup = false; m_por = false; m_sym = false }
let dedup_m = { m_label = "dedup"; m_dedup = true; m_por = false; m_sym = false }
let por_m = { m_label = "dedup+por"; m_dedup = true; m_por = true; m_sym = false }
let por_sym_m = { m_label = "dedup+por+sym"; m_dedup = true; m_por = true; m_sym = true }
let raw_por_m = { m_label = "raw+por"; m_dedup = false; m_por = true; m_sym = false }

let header () =
  Util.row "%-26s %-3s %-14s %12s %12s %10s %12s %9s %9s  %s@." "workload" "cr" "mode" "nodes"
    "schedules" "states" "por-pruned" "sym-hits" "seconds" "verdict"

let row ?node_budget ~name ~classes ~mk ~max_crashes mode =
  let symmetry = if mode.m_sym then Some classes else None in
  match
    Util.time_it (fun () ->
        Explore.explore ~max_crashes ?node_budget ~dedup:mode.m_dedup ~por:mode.m_por ?symmetry
          ~mk ())
  with
  | s, t ->
      Util.row "%-26s %-3d %-14s %12d %12d %10d %12d %9d %9.2f  %s@." name max_crashes
        mode.m_label s.Explore.nodes s.schedules s.distinct_states s.por_pruned s.symmetry_hits
        t "pass"
  | exception Explore.Violation v ->
      Util.row "%-26s %-3d %-14s %62s@." name max_crashes mode.m_label
        ("VIOLATION: " ^ v.Explore.v_msg)
  | exception Explore.Interrupted cp ->
      Util.row "%-26s %-3d %-14s %62s@." name max_crashes mode.m_label
        (Printf.sprintf "(node cap: > %d nodes, infeasible on this budget)"
           (Explore.checkpoint_stats cp).Explore.nodes)

let run () =
  Util.row "@.== E13: partial-order + symmetry reduction (sleep sets over step footprints) ==@.";
  header ();
  (* Interchangeable processes need the same code AND the same input:
     the workload gives one input value per team. *)
  let fig2 ~level name =
    let w = Rcons.Counterexample.team2 ~level name in
    ( Util.ok_or_fail (Rcons.Counterexample.mk w),
      Util.ok_or_fail (Rcons.Counterexample.symmetry_classes w) )
  in
  let fig2_s2, _ = fig2 ~level:2 "S2" in
  let fig2_sticky3, cls3 = fig2 ~level:3 "sticky" in
  let fig2_s4, cls4 = fig2 ~level:4 "S4" in
  let no_cls = [] in
  (* n = 2: no symmetry (singleton teams); raw+por shows the
     interleaving reduction alone, before state dedup. *)
  List.iter
    (fun (crashes, modes) ->
      List.iter
        (row ~name:"Figure 2 on S_2 (n=2)" ~classes:no_cls ~mk:fig2_s2 ~max_crashes:crashes)
        modes)
    [
      (1, [ raw_m; raw_por_m; dedup_m; por_m ]);
      (2, [ raw_m; raw_por_m; dedup_m; por_m ]);
      (3, [ dedup_m; por_m ]);
    ];
  (* n = 3, one two-member team: the reduction-factor ablation (the
     2-crash rows back the BENCH_parallel floor) and the goal-line
     exhaustive 3-crash sweep. *)
  List.iter
    (fun (crashes, modes) ->
      List.iter
        (row ~name:"Figure 2 on sticky (n=3)" ~classes:cls3 ~mk:fig2_sticky3
           ~max_crashes:crashes)
        modes)
    [ (2, [ dedup_m; por_m; por_sym_m ]); (3, [ dedup_m; por_m; por_sym_m ]) ];
  (* n = 4, two two-member teams: Theorem 8/14 boundary territory. *)
  List.iter
    (fun (crashes, modes) ->
      List.iter
        (row ~name:"Figure 2 on S_4 (n=4)" ~classes:cls4 ~mk:fig2_s4 ~max_crashes:crashes)
        modes)
    [ (1, [ dedup_m; por_m; por_sym_m ]) ];
  (* Universal construction: the boundary of the reduction.  The
     recoverable-linearizability invariant needs the history in the
     state fingerprint.  The history records only invocations and
     responses, so dedup still merges interleavings of the processes'
     internal steps (about 1.9 edges per state at n = 2), and por
     prunes commuting accesses to distinct cells.  The capped rows
     record the boundary: at n >= 3 even dedup+por blows the node cap,
     which is why the n = 4 sweep the reduction *does* unlock is Figure
     2 on S_4 above, and why RUniversal at scale stays on the seeded
     random adversaries of E7. *)
  List.iter
    (fun (n, crashes, node_budget, modes) ->
      List.iter
        (row
           ~name:(Printf.sprintf "RUniversal counter (n=%d)" n)
           ~classes:no_cls ~mk:(runiversal_mk ~n) ~max_crashes:crashes ~node_budget)
        modes)
    [
      (2, 0, 500_000, [ dedup_m; por_m ]);
      (2, 1, 2_000_000, [ dedup_m; por_m ]);
      (3, 0, 500_000, [ dedup_m; por_m ]);
      (4, 1, 500_000, [ por_m ]);
    ];
  Util.row
    "@.Sleep-set por prunes interleavings, never states; symmetry quotients relabelings of@.";
  Util.row
    "interchangeable processes.  Raw mode stays the paper-table source (EXPERIMENTS.md E1-E12).@."
