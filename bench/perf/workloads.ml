(* The benchmark workloads.  Each one builds exactly what the named
   rcons_cli command builds, with the same library calls in the same
   order (bin/rcons_cli.ml is the reference), so a number here is a
   number a user of the CLI would see.  [run] is the user command;
   [traced] is the same command with timers around the calls into each
   layer, plus the counters those layers expose. *)

module E = Rcons.Runtime.Explore
module Persist = Rcons.Runtime.Persist
module Sim = Rcons.Runtime.Sim
module Cex = Rcons.Counterexample
module Telemetry = Rcons.Par.Pool.Telemetry
module Catalogue = Rcons.Spec.Catalogue
module Object_type = Rcons.Spec.Object_type
module Classify = Rcons.Check.Classify
module Cert_cache = Rcons.Check.Cert_cache
module Instance = Rcons.Service.Instance
module Soak = Rcons.Service.Soak
module Metrics = Rcons.Service.Metrics

let seconds_since t0 = float_of_int (Probe.now_ns () - t0) *. 1e-9

let timed f =
  let t0 = Probe.now_ns () in
  let v = f () in
  (v, seconds_since t0)

exception Wrong of string
(** A correctness pin or an invariant failed. *)

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* One rep of a user command. *)
type outcome = {
  work : int;  (** tree edges walked, types classified, or ops acknowledged *)
  digest : string;  (** identical on every rep of one seed *)
}

type prepared = {
  run : unit -> outcome;
  traced : unit -> outcome * float * (string * float) list;
      (** outcome, wall seconds of the timed call, per-layer metrics *)
}

type t = {
  name : string;
  reads_certs : bool;
      (** the reps read a certificate cache that one cold pass filled first *)
  setup : seed:int -> certs:string -> prepared;
}

let gc_delta g0 =
  let g1 = Gc.quick_stat () in
  ( g1.Gc.minor_words -. g0.Gc.minor_words,
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )

let ratio a b = if b = 0. then 0. else a /. b

(* --- explore: rcons_cli explore / rcons_cli log --exhaustive --- *)

(* [pins] are the statistics the CLI prints for this workload; any drift
   is a wrong answer, not a performance change.  [scope] is the CLI's
   [with_persist]: a lossy run must execute under an ambient lossy cache,
   or Explore treats the workload as eager and its reduction silently
   prunes more of the graph. *)
let explore_workload ~name ~workload ~max_crashes ~dedup ~por ~probe_cap ~pins =
  let setup ~seed ~certs:_ =
    let w = workload ~seed in
    let scope f =
      match (w.Cex.persist, w.Cex.flush_cost) with
      | Persist.Eager, 1 -> f ()
      | p, fc -> Persist.scoped ~flush_cost:fc p f
    in
    let mk = Probe.mk_exn w in
    let fingerprint = Cex.fingerprint w in
    let explore mk =
      scope (fun () -> E.explore ~max_crashes ~domains:1 ~dedup ~por ~fingerprint ~mk ())
    in
    let outcome (s : E.stats) =
      let got =
        [
          ("schedules", s.E.schedules);
          ("nodes", s.E.nodes);
          ("max depth", s.E.max_depth);
          ("distinct states", s.E.distinct_states);
          ("dedup hits", s.E.dedup_hits);
          ("por-pruned", s.E.por_pruned);
        ]
      in
      List.iter
        (fun (what, v) ->
          match List.assoc_opt what pins with
          | Some pin when pin <> v -> wrong "%s: %s = %d, pinned %d" name what v pin
          | _ -> ())
        got;
      {
        work = s.E.nodes;
        digest = String.concat "/" (List.map (fun (_, v) -> string_of_int v) got);
      }
    in
    let run () = outcome (explore mk) in
    let traced () =
      (match Probe.validate () with Ok () -> () | Error e -> raise (Wrong e));
      let graded = not (por && dedup) in
      let p = scope (fun () -> Probe.walk ?node_cap:probe_cap ~max_crashes ~dedup ~graded mk) in
      (* The real run, with wrappers around the mk closure and the checker
         closure.  Explore calls the checker once per walked edge, in DFS
         preorder, so the last checked node one level up is the parent:
         an edge whose node has more crashes than its parent is a crash. *)
      let mk_calls = ref 0 and mk_s = ref 0. and checks = ref 0 and crash_edges = ref 0 in
      (* Depth is bounded by Explore's default max_steps, 10 000. *)
      let crashes_at_depth = Array.make 10_002 0 in
      let mk' () =
        let (t, check), s = timed mk in
        incr mk_calls;
        mk_s := !mk_s +. s;
        let n = Sim.num_procs t in
        let check' () =
          incr checks;
          let c = ref 0 in
          for i = 0 to n - 1 do
            c := !c + Sim.crash_count t i
          done;
          let d = Sim.total_steps t + !c in
          if !c > crashes_at_depth.(d - 1) then incr crash_edges;
          crashes_at_depth.(d) <- !c;
          check ()
        in
        (t, check')
      in
      let tel0 = Telemetry.snapshot () and g0 = Gc.quick_stat () in
      let s, wall = timed (fun () -> explore mk') in
      let minor, major = gc_delta g0 in
      let tel = Telemetry.diff (Telemetry.snapshot ()) tel0 in
      let o = outcome s in
      let nodes = float_of_int s.E.nodes in
      let crashes = float_of_int !crash_edges in
      let steps = nodes -. crashes in
      let rollbacks = float_of_int tel.Telemetry.restores in
      (* Without por, a probe that walked the whole tree walked Explore's
         tree: its counts must equal the real run's, which also checks
         the outside-in crash and rollback counting above. *)
      (if p.Probe.complete && not por then
         let probe_counts =
           [
             p.Probe.nodes;
             p.Probe.schedules;
             p.Probe.step.calls + p.Probe.rebuild_step.calls;
             p.Probe.crash.calls;
             p.Probe.rollback.calls;
           ]
         and real =
           [ s.E.nodes; s.E.schedules; int_of_float steps; !crash_edges; tel.Telemetry.restores ]
         in
         if probe_counts <> real then
           wrong "%s: probe counts (nodes, schedules, steps, crashes, rollbacks) %s, explore %s"
             name
             (String.concat "/" (List.map string_of_int probe_counts))
             (String.concat "/" (List.map string_of_int real)));
      (* Every walked edge's target is fingerprinted and claimed, and so
         is the root. *)
      let claims = if dedup then nodes +. 1. else 0. in
      let ns = Probe.ns_per_call in
      let step_ns = ns p.Probe.step and rebuild_ns = ns p.Probe.rebuild_step in
      let all_steps =
        {
          Probe.calls = p.Probe.step.calls + p.Probe.rebuild_step.calls;
          ns = p.Probe.step.ns + p.Probe.rebuild_step.ns;
        }
      in
      let attributed =
        1e-9
        *. ((steps *. ns all_steps)
           +. (crashes *. ns p.Probe.crash)
           +. (rollbacks *. ns p.Probe.rollback)
           +. (claims *. (ns p.Probe.fingerprint +. ns p.Probe.claim))
           +. (float_of_int !checks *. ns p.Probe.check))
      in
      let entries = float_of_int tel.Telemetry.undo_entries in
      ( o,
        wall,
        [
          ("sim.step.ns", step_ns);
          ("sim.rebuild_step.ns", rebuild_ns);
          ("sim.crash.ns", ns p.Probe.crash);
          ("undo.rollback.ns", ns p.Probe.rollback);
          ("sim.fingerprint.ns", ns p.Probe.fingerprint);
          ("visited.claim.ns", ns p.Probe.claim);
          ("check.ns", ns p.Probe.check);
          ("sim.step.calls", steps);
          ("sim.crash.calls", crashes);
          ("undo.rollback.calls", rollbacks);
          ("sim.fingerprint.calls", claims);
          ("visited.claim.calls", claims);
          ("check.calls", float_of_int !checks);
          ("mk.calls", float_of_int !mk_calls);
          ("mk.s", !mk_s);
          ("undo.entries", entries);
          ("undo.entries_per_step", ratio entries nodes);
          ("undo.bytes_peak", float_of_int tel.Telemetry.undo_bytes_peak);
          ("heap.rehash_full", float_of_int tel.Telemetry.rehashes_full);
          ("heap.rehash_saved", float_of_int tel.Telemetry.rehashes_saved);
          ("visited.claim.win_ratio", ratio (claims -. float_of_int s.E.dedup_hits) claims);
          ("explore.nodes", nodes);
          ("explore.distinct_states", float_of_int s.E.distinct_states);
          ("explore.por_pruned", float_of_int s.E.por_pruned);
          ("gc.minor_words_per_node", ratio minor nodes);
          ("gc.major_collections", major);
          ("trace.attributed_s", attributed);
        ] )
    in
    { run; traced }
  in
  { name; reads_certs = false; setup }

(* The seed picks the two team inputs: distinct values leave the
   schedule tree unchanged, so the pins hold for every seed. *)
let explore_raw =
  explore_workload ~name:"explore-raw"
    ~workload:(fun ~seed ->
      let rng = Random.State.make [| seed |] in
      let a = Random.State.int rng 1_000_000 in
      Cex.team2 ~inputs:(a, a + 1 + Random.State.int rng 1_000_000) "S2")
    ~max_crashes:2 ~dedup:false ~por:false ~probe_cap:None
    ~pins:[ ("schedules", 1_442_171); ("nodes", 5_417_237); ("max depth", 24) ]

(* The CI explore-log sweep at one crash instead of two: a repetition
   takes about 0.9 s instead of 8 s, so a run holds enough of them for a
   steady median.  The log derives its proposals from the slot layout,
   so the seed has nothing to pick: every seed walks the same graph. *)
let explore_reduced =
  explore_workload ~name:"explore-reduced"
    ~workload:(fun ~seed:_ ->
      Cex.log ~faithful:true ~level:2 ~persist:Persist.Lossy ~annotated:true ~flush_cost:1 ~slots:1
        "sticky")
    ~max_crashes:1 ~dedup:true ~por:true ~probe_cap:(Some 400_000)
    ~pins:
      [
        ("schedules", 8);
        ("nodes", 120_843);
        ("max depth", 74);
        ("distinct states", 47_443);
        ("dedup hits", 41_448);
        ("por-pruned", 42_605);
      ]

(* --- classify: rcons_cli classify --limit 12 --certs-dir DIR --- *)

(* Limit 12 rather than 14: the cold pass takes about 1 s instead of
   3.4 s, so a run holds enough repetitions for a steady median. *)
let classify_limit = 12

(* MD5 of the stdout of [rcons_cli classify --limit 12]: the reports in
   catalogue order, one [Classify.pp_report] line each. *)
let classify_pin = "dbebff67c0b336c3be11e37c13edc719"

let report_digest reports =
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (Format.asprintf "%a\n" Classify.pp_report) reports)))

(* The input is the whole catalogue, as the CLI classifies it by
   default, so the seed has nothing to pick.  (Shuffling the type order
   was tried: it moves the peak heap by 12-16 % between seeds, which
   would make a seed look like a regression.) *)
let classify_workload ~name ~cold =
  let setup ~seed:_ ~certs =
    let types = List.map (fun e -> e.Catalogue.ot) Catalogue.all in
    let outcome reports =
      let digest = report_digest reports in
      if digest <> classify_pin then
        wrong "%s: report digest %s, pinned %s" name digest classify_pin;
      { work = List.length reports; digest }
    in
    let run () =
      outcome (List.map (fun ot -> Rcons.classify ~domains:1 ~limit:classify_limit ~certs ot) types)
    in
    let traced () =
      let limit = classify_limit in
      let g0 = Gc.quick_stat () in
      (* The pass without a cache runs first, so the cached pass after it
         is not the one that pays for warming the process. *)
      let uncached_s =
        if not cold then 0.
        else
          snd
            (timed (fun () ->
                 List.iter
                   (fun ot ->
                     ignore (Classify.max_discerning ~domains:1 ~limit ot);
                     ignore (Classify.max_recording ~domains:1 ~limit ot))
                   types))
      in
      let fp_s = ref 0. and disc_s = ref 0. and rec_s = ref 0. in
      let reports, wall =
        timed (fun () ->
            List.map
              (fun ot ->
                (* Classify keys the cache on this fingerprint (depth
                   [max 8 limit]) and memoizes it, so the scans below
                   reuse it. *)
                let time r f =
                  let v, s = timed f in
                  r := !r +. s;
                  v
                in
                ignore (time fp_s (fun () -> Object_type.fingerprint_t ~depth:(max 8 limit) ot));
                let discerning =
                  time disc_s (fun () -> Classify.max_discerning ~domains:1 ~limit ~certs ot)
                in
                let recording =
                  time rec_s (fun () -> Classify.max_recording ~domains:1 ~limit ~certs ot)
                in
                let readable = Object_type.readable ot in
                {
                  Classify.type_name = Object_type.name ot;
                  is_readable = readable;
                  discerning;
                  recording;
                  cons = Classify.cons_bounds_of ~readable discerning;
                  rcons = Classify.rcons_bounds_of ~readable ~discerning recording;
                })
              types)
      in
      let _, major = gc_delta g0 in
      let o = outcome reports in
      let files = List.map fst (Cert_cache.list_dir certs) in
      let revalidate_s =
        snd
          (timed (fun () ->
               List.iter
                 (fun f ->
                   match Cert_cache.revalidate_file f with
                   | Cert_cache.Valid -> ()
                   | _ -> wrong "%s: cache entry %s does not revalidate" name f)
                 files))
      in
      let entries = float_of_int (List.length files) in
      ( o,
        wall,
        [
          ("object_type.fingerprint.s", !fp_s);
          ("discerning.scan.s", !disc_s);
          ("recording.scan.s", !rec_s);
          ("cert_cache.entries", entries);
          ("cert_cache.write_s", if cold then !disc_s +. !rec_s -. uncached_s else 0.);
          ("cert_cache.revalidate.ns", 1e9 *. ratio revalidate_s entries);
          ("gc.major_collections", major);
          ("trace.attributed_s", !fp_s +. !disc_s +. !rec_s);
        ] )
    in
    { run; traced }
  in
  { name; reads_certs = not cold; setup }

(* --- serve: rcons_cli serve --instances 128 --ops 8 --persist lossy --- *)

(* The CLI's fleet, field for field: default flags (storm adversary,
   crash probability 0.05, 12 crashes, burst 2, flush cost 1, annotated,
   50 000-tick budget), every fourth instance a replicated log on the
   sticky bit's 2-recording certificate.  128 instances rather than 512
   keep a repetition near 1 s, so a run holds enough of them for a
   steady median; the per-instance work is the same. *)
let fleet ~seed ~sessions ~queue_cap =
  let adversary =
    match
      Rcons.Runtime.Adversary.policy_of_string ~crash_prob:0.05 ~max_crashes:12 ~burst:2 "storm"
    with
    | Ok a -> a
    | Error e -> failwith e
  in
  let cert =
    match Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 2 with
    | Some c -> c
    | None -> failwith "no 2-recording certificate for the sticky bit"
  in
  List.init 128 (fun id ->
      let base =
        {
          (Soak.default ~id ~seed) with
          Instance.adversary;
          persist = Persist.Lossy;
          flush_cost = 1;
          annotated = true;
          sessions;
          ops_per_session = 8;
          queue_cap;
          max_ticks = 50_000;
        }
      in
      match id mod 4 with
      | 3 ->
          {
            base with
            Instance.kind = Instance.Log;
            cert = Some cert;
            sessions = max 1 (sessions / 2);
            open_ops = 4;
            open_rate = 0.2;
          }
      | _ -> base)

(* [pin] is the commit digest [rcons_cli serve] prints at seed 1500. *)
let serve_workload ~name ~sessions ~queue_cap ~pin =
  let setup ~seed ~certs:_ =
    let cfgs = fleet ~seed ~sessions ~queue_cap in
    let outcome (s : Soak.summary) =
      if s.Soak.s_stuck > 0 then wrong "%s: %d instances stuck" name s.Soak.s_stuck;
      if seed = 1500 && s.Soak.s_commit_digest <> pin then
        wrong "%s: commit digest %s at seed 1500, pinned %s" name s.Soak.s_commit_digest pin;
      { work = s.Soak.s_acked; digest = s.Soak.s_commit_digest }
    in
    let guard f =
      try f ()
      with Instance.Violation v -> wrong "%s: instance %d, tick %d: %s" name v.instance v.tick v.msg
    in
    let run () = guard (fun () -> outcome (Soak.run ~domains:1 cfgs).Soak.summary) in
    let traced () =
      guard @@ fun () ->
      List.iter Instance.validate cfgs;
      let g0 = Gc.quick_stat () in
      let runs, wall =
        timed (fun () ->
            List.map
              (fun (cfg : Instance.config) ->
                let r, s = timed (fun () -> Instance.run cfg) in
                (cfg.Instance.kind, s, r))
              cfgs)
      in
      let minor, major = gc_delta g0 in
      let s = Soak.summarize (List.map (fun (_, _, r) -> r) runs) in
      let o = outcome s in
      let time_of k = List.fold_left (fun a (k', t, _) -> if k' = k then a +. t else a) 0. runs in
      let busy = List.fold_left (fun a (_, t, _) -> a +. t) 0. runs in
      let f = float_of_int in
      let ticks = List.fold_left (fun a (_, _, r) -> a + r.Instance.r_ticks) 0 runs in
      ( o,
        wall,
        [
          ("instance.universal.s", time_of Instance.Universal);
          ("instance.log.s", time_of Instance.Log);
          ("instance.max_s", List.fold_left (fun a (_, t, _) -> Float.max a t) 0. runs);
          ("instance.sim_steps", f s.Soak.s_sim_steps);
          ("instance.ns_per_sim_step", 1e9 *. ratio busy (f s.Soak.s_sim_steps));
          ("instance.ticks", f ticks);
          ("instance.checks_run", f s.Soak.s_checks_run);
          ("instance.generations", f s.Soak.s_generations);
          ("instance.crashes_delivered", f s.Soak.s_crashes_delivered);
          ("instance.recoveries", f s.Soak.s_recoveries);
          ("gc.minor_words_per_acked_op", ratio minor (f s.Soak.s_acked));
          ("gc.major_collections", major);
          ("admission.shed", f s.Soak.s_shed);
          ("admission.shed_rate", ratio (f s.Soak.s_shed) (f (s.Soak.s_shed + s.Soak.s_admitted)));
          ("backoff.retries", f s.Soak.s_retries);
          ("backoff.timeouts", f s.Soak.s_timeouts);
          ("service.latency_p50_ticks", f (Metrics.percentile s.Soak.s_latency 0.50));
          ("service.latency_p99_ticks", f (Metrics.percentile s.Soak.s_latency 0.99));
          ("service.recovery_p99_ticks", f (Metrics.percentile s.Soak.s_recovery 0.99));
          ("service.gave_up_ratio", ratio (f s.Soak.s_gave_up) (f s.Soak.s_submitted));
          ("trace.attributed_s", busy);
        ] )
    in
    { run; traced }
  in
  { name; reads_certs = false; setup }

let all =
  [
    explore_raw;
    explore_reduced;
    classify_workload ~name:"classify-cold" ~cold:true;
    classify_workload ~name:"classify-warm" ~cold:false;
    serve_workload ~name:"serve-churn" ~sessions:32 ~queue_cap:32
      ~pin:"b12d4d8e4f612b0fa00b0969413b461b";
    serve_workload ~name:"serve-overload" ~sessions:48 ~queue_cap:6
      ~pin:"9ddff735846d7ebc4f71acf519686b2d";
  ]
