(* Sequential-vs-parallel wall-clock comparison for the domain pool,
   written to BENCH_parallel.json so the performance trajectory of the
   parallel check/explore paths is measurable across commits.

   Every workload is run across a domains scaling curve (powers of two up
   to what the machine exposes) and all outputs are compared against the
   sequential run: the "identical" field is the determinism contract
   checked on real workloads, not just asserted.  Speedups are only
   meaningful when the machine actually exposes multiple cores; "cores"
   records what the OCaml runtime saw, so a 1-core CI box reporting
   ~1.0x ratios is interpretable (the curve then measures pool overhead,
   which the granularity cutoff should keep near zero).

   Speedup floors: each workload carries a floor -- read back from the
   committed BENCH_parallel.json when present, defaulted otherwise --
   and when the machine has at least [domains] cores the bench exits
   non-zero if a workload's speedup drops below its floor.  This is what
   makes the 8-core bench-multicore CI job a regression gate and not
   just a report (RCONS_BENCH_NO_FLOOR=1 skips enforcement for local
   experiments).

   Per-stage telemetry: each workload's run at the headline domain count
   is bracketed with Pool.Telemetry snapshots (jobs / cursor claims /
   grace-period completions), and explore workloads add the
   dedup-engine stage counts (fingerprint hashes, visited-set claims,
   node expansions), so a scaling regression can be localized without
   re-profiling.

   Explore workloads additionally report state-space deduplication
   counters -- raw vs dedup node counts, hit rate, distinct states, and a
   seq-vs-par dedup identity check -- so the effect of [~dedup:true] on
   each workload is tracked alongside its wall-clock numbers. *)

(* Powers of two up to the machine's recommended domain count (so a
   4-core laptop benches 1/2/4, not a thrashing 8). *)
let domain_points =
  let top = Rcons.Par.Pool.available_domains () in
  let rec up d = if d >= top then [ top ] else d :: up (2 * d) in
  List.sort_uniq compare (up 1)

type dedup_stats = {
  raw_nodes : int;
  dd_nodes : int;
  dd_hits : int;
  dd_states : int;
  dd_identical : bool; (* dedup seq = dedup par (stats, bit for bit) *)
  (* Partial-order reduction counters on the same workload: raw+por
     measures interleavings explored vs. the raw bound, dedup+por the
     state-graph edges actually walked. *)
  rp_nodes : int;
  rp_schedules : int;
  rp_pruned : int;
  pd_nodes : int;
  pd_pruned : int;
  (* Incremental-fingerprint split of the sequential dedup run: slots
     re-digested because a mutation dirtied them vs served from cache.
     Saved >> full is the O(delta)-hashing contract being visible. *)
  dd_rehashes_full : int;
  dd_rehashes_saved : int;
}

(* A workload runs at a given domain count and yields (seconds, canonical
   rendering of the result); renderings are compared across the curve. *)
type workload = {
  w_name : string;
  w_run : int -> float * string;
  w_dedup : (int -> int -> dedup_stats) option; (* raw_nodes -> domains -> stats *)
}

let classify_workload name ot limit =
  {
    w_name = name;
    w_run =
      (fun domains ->
        let r, t = Util.time_it (fun () -> Rcons.classify ~domains ~limit ot) in
        (t, Format.asprintf "%a" Rcons.Check.Classify.pp_report r));
    w_dedup = None;
  }

(* Figure 2 on type [name]'s level-2 certificate. *)
let team_mk name = Util.ok_or_fail (Rcons.Counterexample.mk (Rcons.Counterexample.team2 name))

let render_stats (s : Rcons.Runtime.Explore.stats) =
  Printf.sprintf "{schedules=%d; nodes=%d; max_depth=%d; dedup_hits=%d; distinct_states=%d}"
    s.schedules s.nodes s.max_depth s.dedup_hits s.distinct_states

let explore_workload name typ ~max_crashes =
  let mk = team_mk typ in
  {
    w_name = name;
    w_run =
      (fun domains ->
        let s, t =
          Util.time_it (fun () -> Rcons.Runtime.Explore.explore ~max_crashes ~domains ~mk ())
        in
        (t, render_stats s));
    w_dedup =
      Some
        (fun raw_nodes domains ->
          let t0 = Rcons.Par.Pool.Telemetry.snapshot () in
          let dd_seq = Rcons.Runtime.Explore.explore ~max_crashes ~dedup:true ~mk () in
          let dt = Rcons.Par.Pool.Telemetry.(diff (snapshot ()) t0) in
          let dd_par =
            Rcons.Runtime.Explore.explore ~max_crashes ~dedup:true ~domains ~mk ()
          in
          let rp = Rcons.Runtime.Explore.explore ~max_crashes ~por:true ~mk () in
          let pd = Rcons.Runtime.Explore.explore ~max_crashes ~dedup:true ~por:true ~mk () in
          {
            raw_nodes;
            dd_nodes = dd_seq.nodes;
            dd_hits = dd_seq.dedup_hits;
            dd_states = dd_seq.distinct_states;
            dd_identical = dd_seq = dd_par;
            rp_nodes = rp.nodes;
            rp_schedules = rp.schedules;
            rp_pruned = rp.por_pruned;
            pd_nodes = pd.nodes;
            pd_pruned = pd.por_pruned;
            dd_rehashes_full = dt.Rcons.Par.Pool.Telemetry.rehashes_full;
            dd_rehashes_saved = dt.Rcons.Par.Pool.Telemetry.rehashes_saved;
          });
  }

let workloads =
  [
    classify_workload "classify T_6 (limit 7)" (Rcons.Spec.Tn.make 6) 7;
    classify_workload "classify S_4 (limit 5)" (Rcons.Spec.Sn.make 4) 5;
    classify_workload "classify sticky-bit (limit 6)" Rcons.Spec.Sticky_bit.t 6;
    explore_workload "explore Figure 2 on S_2 (1 crash)" "S2" ~max_crashes:1;
    explore_workload "explore Figure 2 on S_2 (2 crashes)" "S2" ~max_crashes:2;
  ]

(* Certificate-cache cold/warm comparison: one full-catalogue classify
   sweep (plus the parametric S_n / T_n mid-range) run three ways --
   seed-cold (fresh cache directory, every level computed and written),
   warm (same directory again, every level a revalidated hit) and
   cold-incremental (no cache at all, the pure in-memory incremental
   scan).  All three renderings must be byte-identical: the cache is a
   pure memo, never an answer source. *)
let cache_limit = 8

let cache_types () =
  List.map (fun e -> e.Rcons.Spec.Catalogue.ot) Rcons.Spec.Catalogue.all
  @ List.map Rcons.Spec.Sn.make [ 4; 5; 6; 7 ]
  @ List.map Rcons.Spec.Tn.make [ 4; 5; 6; 7 ]

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

type cache_row = {
  cc_name : string;
  cc_cold : float;  (* fresh cache dir: compute + store *)
  cc_warm : float;  (* same dir again: revalidated hits *)
  cc_nocache : float;  (* no cache: in-memory incremental scan *)
  cc_identical : bool;
  cc_entries : int;
}

let cert_cache_bench () =
  let dir = "_certs_bench" in
  rm_rf dir;
  let types = cache_types () in
  let render certs =
    String.concat "\n"
      (List.map
         (fun ot ->
           Format.asprintf "%a" Rcons.Check.Classify.pp_report
             (Rcons.classify ~limit:cache_limit ?certs ot))
         types)
  in
  let r_nocache, t_nocache = Util.time_it (fun () -> render None) in
  let r_cold, t_cold = Util.time_it (fun () -> render (Some dir)) in
  let r_warm, t_warm = Util.time_it (fun () -> render (Some dir)) in
  let entries = List.length (Rcons.Check.Cert_cache.list_dir dir) in
  rm_rf dir;
  {
    cc_name =
      Printf.sprintf "classify catalogue + S/T 4-7 (limit %d, %d types)" cache_limit
        (List.length types);
    cc_cold = t_cold;
    cc_warm = t_warm;
    cc_nocache = t_nocache;
    cc_identical = r_cold = r_warm && r_cold = r_nocache;
    cc_entries = entries;
  }

(* Reduction ablation: dedup-only vs dedup+por vs dedup+por+symmetry on
   the 2-crash Figure 2 workload with a two-member team (sticky bit,
   level 3 -- the smallest workload where both reductions bite; the
   singleton teams of S_2 give symmetry nothing to quotient).  Node
   counts are deterministic, so unlike the wall-clock speedup floors the
   reduction-factor floor is enforceable on any machine. *)
type reduction_row = {
  red_name : string;
  red_dedup : Rcons.Runtime.Explore.stats;
  red_por : Rcons.Runtime.Explore.stats;
  red_por_sym : Rcons.Runtime.Explore.stats;
  red_floor : float;
}

let reduction_ablation ~floor () =
  let w = Rcons.Counterexample.team2 ~level:3 "sticky" in
  let classes = Util.ok_or_fail (Rcons.Counterexample.symmetry_classes w) in
  let mk = Util.ok_or_fail (Rcons.Counterexample.mk w) in
  let explore ?(por = false) ?symmetry () =
    Rcons.Runtime.Explore.explore ~max_crashes:2 ~dedup:true ~por ?symmetry ~mk ()
  in
  {
    red_name = "Figure 2 on sticky-bit level 3 (2 crashes)";
    red_dedup = explore ();
    red_por = explore ~por:true ();
    red_por_sym = explore ~por:true ~symmetry:classes ();
    red_floor = floor;
  }

let reduction_factor r =
  if r.red_por_sym.Rcons.Runtime.Explore.nodes > 0 then
    float_of_int r.red_dedup.Rcons.Runtime.Explore.nodes
    /. float_of_int r.red_por_sym.Rcons.Runtime.Explore.nodes
  else 0.

(* Exploration-engine comparison: the same raw 2-crash Figure 2 / S_2
   workload walked sequentially under the two backtrack strategies of
   the explorer's walker -- rollback over the undo journal (default) and
   the rebuild oracle ([~undo:false]), which replays each fork point's
   prefix into a fresh system.  The two must render byte-identical
   statistics -- that's the correctness half -- and rollback must beat
   rebuild by the recorded floor (default 2x): rolling a journal back to
   the fork point costs the steps since the fork, a rebuild costs the
   whole prefix.  The floor is a sequential wall-clock ratio on one
   process, so unlike the scaling floors it is enforced regardless of
   core count (RCONS_BENCH_NO_FLOOR still escapes).  Each strategy is
   timed best-of-2 to damp scheduler noise.  The JSON keeps its
   original keys ([restore_s] for rollback, [replay_s] for rebuild) so
   the trend history stays one series. *)
type engine_row = {
  eng_name : string;
  eng_undo : float;
  eng_rebuild : float;
  eng_identical : bool;
  eng_floor : float;
  eng_undo_t : Rcons.Par.Pool.Telemetry.snapshot; (* journal counters, undo run *)
}

let engine_bench ~floor () =
  let mk = team_mk "S2" in
  let time_engine undo =
    let best = ref infinity and render = ref "" in
    for _ = 1 to 2 do
      let s, t =
        Util.time_it (fun () -> Rcons.Runtime.Explore.explore ~max_crashes:2 ~undo ~mk ())
      in
      if t < !best then best := t;
      render := render_stats s
    done;
    (!best, !render)
  in
  let before = Rcons.Par.Pool.Telemetry.snapshot () in
  let undo_t, undo_render = time_engine true in
  let undo_tele = Rcons.Par.Pool.Telemetry.(diff (snapshot ()) before) in
  let rebuild_t, rebuild_render = time_engine false in
  {
    eng_name = "explore Figure 2 on S_2 (2 crashes, sequential)";
    eng_undo = undo_t;
    eng_rebuild = rebuild_t;
    eng_identical = undo_render = rebuild_render;
    eng_floor = floor;
    eng_undo_t = undo_tele;
  }

let engine_speedup e = if e.eng_undo > 0. then e.eng_rebuild /. e.eng_undo else 0.

let recorded_engine_floor path =
  if not (Sys.file_exists path) then None
  else
    let module J = Rcons.Runtime.Json in
    match J.parse (In_channel.with_open_text path In_channel.input_all) with
    | Error _ -> None
    | Ok j -> (
        try Option.map J.to_float (J.member "floor" (J.field "engine" j)) with _ -> None)

(* Speedup floors (enforced at the headline domain count on machines
   with at least that many cores).  The committed BENCH_parallel.json is
   the source of truth: a floor recorded there is read back and enforced
   on the next run, so tightening the gate is a one-line diff to the
   artifact.  Workloads without a recorded floor get a default: the
   explore fan-outs must actually scale, and the small classify scans
   must stay within the cutoff's tolerance (>= 0.83x of sequential,
   i.e. no more than ~1.2x slower). *)
let default_floor name =
  if name = "explore Figure 2 on S_2 (2 crashes)" then 3.0
  else if name = "explore Figure 2 on S_2 (1 crash)" then 1.5
  else if name = "classify T_6 (limit 7)" then 2.0
  else 0.83

let recorded_floors path =
  if not (Sys.file_exists path) then []
  else
    let module J = Rcons.Runtime.Json in
    match J.parse (In_channel.with_open_text path In_channel.input_all) with
    | Error _ -> []
    | Ok j -> (
        try
          J.to_list (J.field "workloads" j)
          |> List.filter_map (fun w ->
                 match J.member "floor" w with
                 | Some f -> Some (J.to_str (J.field "name" w), J.to_float f)
                 | None -> None)
        with _ -> [])

let recorded_reduction_floor path =
  if not (Sys.file_exists path) then None
  else
    let module J = Rcons.Runtime.Json in
    match J.parse (In_channel.with_open_text path In_channel.input_all) with
    | Error _ -> None
    | Ok j -> (
        try Option.map J.to_float (J.member "floor" (J.field "reduction" j)) with _ -> None)

type row = {
  r_name : string;
  r_seq : float;
  r_par : float;
  r_identical : bool;
  r_curve : (int * float) list;
  r_dedup : dedup_stats option;
  r_floor : float;
  r_stages : Rcons.Par.Pool.Telemetry.snapshot; (* around the par(domains) run *)
}

(* Raw [nodes] from a rendered stats string, for the dedup reduction
   ratio (avoids re-running the raw exploration a third time). *)
let nodes_of_rendering s =
  match String.index_opt s ';' with
  | None -> 0
  | Some _ -> (
      try Scanf.sscanf s "{schedules=%d; nodes=%d" (fun _ n -> n) with _ -> 0)

let schedules_of_rendering s =
  try Scanf.sscanf s "{schedules=%d" (fun n -> n) with _ -> 0

let run ?(domains = 4) ?(out = "BENCH_parallel.json") () =
  let cores = Rcons.Par.Pool.available_domains () in
  let floors = recorded_floors out in
  Util.section
    (Printf.sprintf "Parallel engine: domains scaling curve %s (machine has %d core(s))"
       (String.concat "/" (List.map string_of_int domain_points))
       cores);
  Util.row "%-40s %-10s %-10s %-9s %s@." "workload" "seq" (Printf.sprintf "par(%d)" domains)
    "speedup" "identical";
  let timed d w =
    let before = Rcons.Par.Pool.Telemetry.snapshot () in
    let t, r = w.w_run d in
    (d, (t, r, Rcons.Par.Pool.Telemetry.(diff (snapshot ()) before)))
  in
  let rows =
    List.map
      (fun w ->
        let curve = List.map (fun d -> timed d w) domain_points in
        let curve =
          if List.mem_assoc domains curve then curve else curve @ [ timed domains w ]
        in
        let _, (seq_t, seq_render, _) = List.find (fun (d, _) -> d = 1) curve in
        let _, (par_t, _, stages) = List.find (fun (d, _) -> d = domains) curve in
        let identical = List.for_all (fun (_, (_, r, _)) -> r = seq_render) curve in
        let dedup =
          Option.map (fun f -> f (nodes_of_rendering seq_render) domains) w.w_dedup
        in
        let floor =
          match List.assoc_opt w.w_name floors with
          | Some f -> f
          | None -> default_floor w.w_name
        in
        let speedup = if par_t > 0. then seq_t /. par_t else 0. in
        Util.row "%-40s %8.3fs %8.3fs %8.2fx %b@." w.w_name seq_t par_t speedup identical;
        List.iter
          (fun (d, (t, _, _)) ->
            Util.row "    domains=%d %8.3fs %8.2fx@." d t (if t > 0. then seq_t /. t else 0.))
          curve;
        Util.row "    stages(par %d): %d jobs, %d chunks, %d seq-cutoffs; floor %.2fx@." domains
          stages.Rcons.Par.Pool.Telemetry.jobs stages.chunks stages.seq_cutoffs floor;
        Util.row
          "    undo(par %d): %d restores, %d entries, %d bytes peak; rehashes %d full / %d saved@."
          domains stages.restores stages.undo_entries stages.undo_bytes_peak
          stages.rehashes_full stages.rehashes_saved;
        (match dedup with
        | None -> ()
        | Some dd ->
            Util.row "    dedup: %d -> %d nodes (%.1fx), %d hits, %d distinct states, par identical=%b@."
              dd.raw_nodes dd.dd_nodes
              (if dd.dd_nodes > 0 then float_of_int dd.raw_nodes /. float_of_int dd.dd_nodes
               else 0.)
              dd.dd_hits dd.dd_states dd.dd_identical;
            Util.row "    incremental hashing (seq dedup): %d slots re-digested, %d served from cache@."
              dd.dd_rehashes_full dd.dd_rehashes_saved;
            Util.row
              "    por: %d of %d raw interleavings explored (%d pruned); dedup+por %d nodes (%d pruned)@."
              dd.rp_schedules
              (schedules_of_rendering seq_render)
              dd.rp_pruned dd.pd_nodes dd.pd_pruned);
        {
          r_name = w.w_name;
          r_seq = seq_t;
          r_par = par_t;
          r_identical = identical && Option.fold ~none:true ~some:(fun d -> d.dd_identical) dedup;
          r_curve = List.map (fun (d, (t, _, _)) -> (d, t)) curve;
          r_dedup = dedup;
          r_floor = floor;
          r_stages = stages;
        })
      workloads
  in
  let cc = cert_cache_bench () in
  let cc_speedup = if cc.cc_warm > 0. then cc.cc_cold /. cc.cc_warm else 0. in
  Util.row "@.certificate cache: %s@." cc.cc_name;
  Util.row "    cold %8.4fs   warm %8.4fs   no-cache %8.4fs   warm speedup %8.2fx   %d entries, identical=%b@."
    cc.cc_cold cc.cc_warm cc.cc_nocache cc_speedup cc.cc_entries cc.cc_identical;
  let red =
    reduction_ablation
      ~floor:(Option.value (recorded_reduction_floor out) ~default:10.0)
      ()
  in
  let red_factor = reduction_factor red in
  Util.row "@.reduction ablation: %s@." red.red_name;
  Util.row
    "    dedup %d nodes -> dedup+por %d -> dedup+por+sym %d (%.1fx, floor %.1fx); %d por-pruned, %d symmetry hits@."
    red.red_dedup.Rcons.Runtime.Explore.nodes red.red_por.Rcons.Runtime.Explore.nodes
    red.red_por_sym.Rcons.Runtime.Explore.nodes red_factor red.red_floor
    red.red_por_sym.Rcons.Runtime.Explore.por_pruned
    red.red_por_sym.Rcons.Runtime.Explore.symmetry_hits;
  let eng = engine_bench ~floor:(Option.value (recorded_engine_floor out) ~default:2.0) () in
  let eng_ratio = engine_speedup eng in
  Util.row "@.exploration engine: %s@." eng.eng_name;
  Util.row "    rollback %8.3fs   rebuild %8.3fs   speedup %8.2fx (floor %.1fx), identical=%b@."
    eng.eng_undo eng.eng_rebuild eng_ratio eng.eng_floor eng.eng_identical;
  Util.row "    journal: %d restores, %d entries, %d bytes peak@."
    eng.eng_undo_t.Rcons.Par.Pool.Telemetry.restores eng.eng_undo_t.undo_entries
    eng.eng_undo_t.undo_bytes_peak;
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"domains\": %d,\n" domains;
  p "  \"cores\": %d,\n" (Rcons.Par.Pool.available_domains ());
  p
    "  \"cert_cache\": {\"name\": %S, \"cold_s\": %.4f, \"warm_s\": %.4f, \"nocache_s\": %.4f, \
     \"warm_speedup\": %.2f, \"entries\": %d, \"identical\": %b},\n"
    cc.cc_name cc.cc_cold cc.cc_warm cc.cc_nocache cc_speedup cc.cc_entries cc.cc_identical;
  p
    "  \"reduction\": {\"name\": %S, \"dedup_nodes\": %d, \"dedup_por_nodes\": %d, \
     \"dedup_por_sym_nodes\": %d, \"por_pruned\": %d, \"symmetry_hits\": %d, \
     \"factor\": %.1f, \"floor\": %.1f},\n"
    red.red_name red.red_dedup.Rcons.Runtime.Explore.nodes
    red.red_por.Rcons.Runtime.Explore.nodes red.red_por_sym.Rcons.Runtime.Explore.nodes
    red.red_por_sym.Rcons.Runtime.Explore.por_pruned
    red.red_por_sym.Rcons.Runtime.Explore.symmetry_hits red_factor red.red_floor;
  p
    "  \"engine\": {\"name\": %S, \"restore_s\": %.4f, \"replay_s\": %.4f, \"speedup\": %.2f, \
     \"floor\": %.1f, \"identical\": %b, \"restores\": %d, \"undo_entries\": %d, \
     \"undo_bytes_peak\": %d},\n"
    eng.eng_name eng.eng_undo eng.eng_rebuild eng_ratio eng.eng_floor eng.eng_identical
    eng.eng_undo_t.Rcons.Par.Pool.Telemetry.restores eng.eng_undo_t.undo_entries
    eng.eng_undo_t.undo_bytes_peak;
  p "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      let speedup = if r.r_par > 0. then r.r_seq /. r.r_par else 0. in
      p
        "    {\"name\": %S, \"seq_s\": %.4f, \"par_s\": %.4f, \"speedup\": %.3f, \"floor\": %.2f, \
         \"identical\": %b,\n"
        r.r_name r.r_seq r.r_par speedup r.r_floor r.r_identical;
      p
        "     \"stages\": {\"jobs\": %d, \"chunks\": %d, \"seq_cutoffs\": %d, \
         \"restores\": %d, \"undo_entries\": %d, \"undo_bytes_peak\": %d, \"rehashes_full\": %d, \
         \"rehashes_saved\": %d%s},\n"
        r.r_stages.Rcons.Par.Pool.Telemetry.jobs r.r_stages.chunks r.r_stages.seq_cutoffs r.r_stages.restores r.r_stages.undo_entries
        r.r_stages.undo_bytes_peak r.r_stages.rehashes_full r.r_stages.rehashes_saved
        (match r.r_dedup with
        | None -> ""
        | Some dd ->
            (* Dedup-engine stage counts: every expanded node is hashed
               and offered to the visited set; claims are the wins. *)
            Printf.sprintf ", \"hashes\": %d, \"claims\": %d, \"expansions\": %d"
              (dd.dd_hits + dd.dd_states) dd.dd_states dd.dd_nodes);
      p "     \"scaling\": [%s]%s\n"
        (String.concat ", "
           (List.map (fun (d, t) -> Printf.sprintf "{\"domains\": %d, \"s\": %.4f}" d t) r.r_curve))
        (match r.r_dedup with None -> "" | Some _ -> ",");
      (match r.r_dedup with
      | None -> ()
      | Some dd ->
          p
            "     \"dedup\": {\"raw_nodes\": %d, \"dedup_nodes\": %d, \"dedup_hits\": %d, \
             \"distinct_states\": %d, \"hit_rate\": %.4f, \"node_reduction\": %.1f, \
             \"identical\": %b,\n      \"raw_por_nodes\": %d, \"raw_por_schedules\": %d, \
             \"por_pruned\": %d, \"dedup_por_nodes\": %d, \"dedup_por_pruned\": %d, \
             \"rehashes_full\": %d, \"rehashes_saved\": %d}\n"
            dd.raw_nodes dd.dd_nodes dd.dd_hits dd.dd_states
            (if dd.dd_nodes > 0 then float_of_int dd.dd_hits /. float_of_int dd.dd_nodes else 0.)
            (if dd.dd_nodes > 0 then float_of_int dd.raw_nodes /. float_of_int dd.dd_nodes
             else 0.)
            dd.dd_identical dd.rp_nodes dd.rp_schedules dd.rp_pruned dd.pd_nodes dd.pd_pruned
            dd.dd_rehashes_full dd.dd_rehashes_saved);
      p "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc;
  Util.row "@.wrote %s@." out;
  if not cc.cc_identical then begin
    Util.row "CACHE VIOLATION: cold / warm / no-cache classifications differ@.";
    exit 1
  end;
  if List.for_all (fun r -> r.r_identical) rows then
    Util.row "all parallel results identical to sequential ones@."
  else begin
    Util.row "DETERMINISM VIOLATION: some parallel result differs from its sequential run@.";
    exit 1
  end;
  (* The reduction factor is a deterministic node-count ratio, so its
     floor holds on any machine (RCONS_BENCH_NO_FLOOR still escapes). *)
  if Sys.getenv_opt "RCONS_BENCH_NO_FLOOR" = None && red_factor < red.red_floor then begin
    Util.row "REDUCTION FLOOR VIOLATION: %s at %.1fx, floor %.1fx@." red.red_name red_factor
      red.red_floor;
    exit 1
  end;
  (* The engine comparison is correctness first, speed second: differing
     stats are a bug whatever the environment, while the wall-clock
     floor gets the usual escape hatch. *)
  if not eng.eng_identical then begin
    Util.row "ENGINE VIOLATION: rollback and rebuild strategies rendered different statistics@.";
    exit 1
  end;
  if Sys.getenv_opt "RCONS_BENCH_NO_FLOOR" = None && eng_ratio < eng.eng_floor then begin
    Util.row "ENGINE FLOOR VIOLATION: %s at %.2fx, floor %.1fx@." eng.eng_name eng_ratio
      eng.eng_floor;
    exit 1
  end;
  (* Speedup floors are only meaningful with real cores behind the
     domains; a 1-core laptop regenerating the artifact must not fail on
     ratios that measure nothing. *)
  let enforce = cores >= domains && Sys.getenv_opt "RCONS_BENCH_NO_FLOOR" = None in
  let below =
    List.filter (fun r -> (if r.r_par > 0. then r.r_seq /. r.r_par else 0.) < r.r_floor) rows
  in
  if enforce && below <> [] then begin
    List.iter
      (fun r ->
        Util.row "SPEEDUP FLOOR VIOLATION: %s at %.2fx, floor %.2fx@." r.r_name
          (if r.r_par > 0. then r.r_seq /. r.r_par else 0.)
          r.r_floor)
      below;
    exit 1
  end
  else if not enforce && below <> [] then
    Util.row "(%d workload(s) below floor; not enforced: cores=%d < domains=%d or RCONS_BENCH_NO_FLOOR)@."
      (List.length below) cores domains
