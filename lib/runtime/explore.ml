(* Bounded exhaustive schedule exploration ("stateless model checking").

   The explorer enumerates every schedule of a freshly created system --
   each point chooses either a step of an unfinished process or a crash of
   a started, unfinished process (bounded by [max_crashes]) -- and runs a
   user invariant after every choice.  Process bodies must be
   deterministic: a system is rebuilt by re-executing its schedule
   prefix.

   One walker, two backtrack strategies.  The walker keeps ONE live
   system per (sub)tree: entering a child applies the choice in place,
   and returning to the fork point restores the system before the next
   sibling.  [Rollback] (the default) snapshots logically -- every
   mutation the simulator performs while an {!Undo} journal is installed
   pushes an inverse closure, [Sim.mark] records the journal length at a
   fork point, and [Sim.rollback] pops back to it and rebuilds the
   one-shot continuations by value-feeding (see sim.ml) -- so a sibling
   costs O(steps since the fork point), and the heap fingerprint on the
   dedup path is recomputed only for containers written since the last
   hash (see heap.ml).  [Rebuild] ([?undo:false]) is the correctness
   oracle: no journal, and a restore abandons the live system and
   replays the node's prefix from the root into a fresh one, O(depth).
   Only the restore differs, so both strategies produce byte-identical
   statistics, violations, and checkpoints in every mode.

   Pruning: crashing a process that has not taken a step since its last
   (re)start is a no-op in the model (it would restart at the beginning,
   where it already is), so such choices are skipped; this also prevents
   consecutive duplicate crashes.

   Deduplication ([dedup = true]): two schedules that reach the same
   global state -- same non-volatile heap (via [Heap] arenas and
   [Sim.fingerprint_digest]) and same per-process control state -- have identical
   futures, so the schedule tree is explored as a state graph: the
   visited store ([Rcons_par.Visited], sharded, safe across domains)
   claims each fingerprint exactly once, the claimant expands the
   state's children, and every later encounter is counted as a dedup
   hit and pruned.  Because the
   fingerprint includes cumulative per-process step/crash counts, the
   state graph is graded by depth, so the set of expanded states and
   walked edges -- and therefore every statistic -- is independent of
   visit order and of the domain count.  Statistics change meaning under
   dedup ([nodes] counts state-graph edges, not tree edges), which is why
   it is off by default: raw counts are what the paper-facing tables use.

   Partial-order reduction ([por = true]): every shared-memory access
   declares a step footprint, which yields a sound independence relation
   over choices (see [Rcons_spec.Footprint]).  Crashes never commute
   with their victim's steps; two crashes of distinct processes commute
   when at least two crash credits remain (each reverts only its own
   victim's lines); a crash commutes with another process's step only
   under the eager persistency model (a lossy cache makes the crash
   revert shared lines the step may read).  The walker then runs the
   classic sleep-set algorithm: a choice in the node's sleep set starts
   a subtree that differs from an already-explored sibling subtree only
   by swaps of adjacent independent transitions, so it is skipped and
   counted in [por_pruned].  Sleep sets prune *interleavings*, never
   *states*: every reachable state is still visited by some schedule,
   and the invariants here are state properties (output agreement and
   validity), so a reduced run finds a violation iff the raw run does.
   With [dedup] the fingerprint switches to the ungraded form (total
   crashes only -- see [Sim.fingerprint_digest ~graded:false]) so that
   states differing only in a discarded pre-crash prefix collapse, and
   the same visited store claims under its cover rule instead: it keeps
   the sleep mask and depth each state was expanded under and prunes a
   revisit only when a previous expansion used a subset sleep mask at
   no greater depth (re-expanding otherwise, after
   Godefroid--Holzmann--Pirottin); the combination stays sound but
   its statistics are visit-order dependent, so por + dedup is
   sequential only.  Raw por composes with the
   parallel walkers: frontier items carry their sleep sets into phase 2,
   and the phase split does not change which subtrees are explored, so
   parallel reduced runs report the sequential reduced statistics.

   Symmetry reduction ([symmetry = classes]): states that differ only by
   a relabeling of interchangeable processes -- same code, same input;
   the *caller* asserts interchangeability by listing the pid classes --
   share a canonical digest (the least [Sim.fingerprint_digest ~perm]
   over the relabelings), so the deduplicating explorer expands one
   representative per orbit.
   [symmetry_hits] counts expanded-edge targets whose canonical digest
   beat the identity labeling.  Every schedule actually walked remains a
   concrete one, so violation replay needs no unwinding.

   Parallel mode ([domains > 1]): the tree is walked sequentially down to
   [frontier_depth]; the nodes of that frontier -- in DFS order, which
   with the fixed choice ordering is lexicographic order on schedules --
   are then distributed across OCaml 5 domains by one
   [Rcons_par.Pool.find_first], each re-executing its subtree on its own
   fresh systems built by [mk].  Per-subtree statistics are merged in
   frontier order, and if any subtree finds a violation the one with the
   smallest frontier index wins (subtrees that can no longer win see
   [Pool.superseded] and cancel themselves), so the schedule reported is
   exactly the one the sequential DFS would have raised first: results
   of completed explorations are bit-identical to the sequential path.
   With [dedup = true] the walkers instead share the visited set (their
   statistics are order-independent, see above); if any walker finds a
   violation the run falls back to one sequential deduplicating pass,
   whose first violation is deterministic -- so seq and par dedup runs
   report identical stats and identical violation schedules, though the
   dedup violation schedule may differ from the raw-mode one.

   Budget ([node_budget], sequential mode only; the only node limit):
   instead of losing an interrupted exhaustive run, the explorer raises
   [Interrupted] with a serializable checkpoint -- the DFS cursor (the
   schedule prefix of the first uncounted node), the statistics
   accumulated so far, (under dedup) the visited store with each key's
   covers, and the run's provenance.  Resuming from the checkpoint
   re-descends the cursor spine without re-counting it, skips the
   fully-explored subtrees to its left (under por they join the spine
   node's sleep set, as they did when they were explored), and
   continues the DFS exactly where it stopped, so the final statistics
   are bit-identical to an uninterrupted run in every sequential mode.
   A checkpoint resumes only under the provenance it was taken with. *)

type choice = Schedule.choice = Step_choice of int | Crash_choice of int

let pp_schedule = Schedule.pp

type violation = {
  v_msg : string;
  v_schedule : choice list;
  v_provenance : Schedule.provenance option;
      (* None only transiently, inside [explore]: the boundary wrapper
         attaches the run's provenance before the exception escapes. *)
}

exception Violation of violation

let violation msg prefix = Violation { v_msg = msg; v_schedule = List.rev prefix; v_provenance = None }

type stats = {
  schedules : int;
  nodes : int;
  max_depth : int;
  dedup_hits : int; (* 0 unless [dedup] *)
  distinct_states : int; (* 0 unless [dedup] *)
  por_pruned : int; (* 0 unless [por] *)
  symmetry_hits : int; (* 0 unless [symmetry] *)
}

let apply_choice = Schedule.apply

(* [mk ()] must build a fresh system together with an invariant checker;
   the checker raises [Violation_found msg] (via [fail]) on a property
   violation.  It is run after every choice, so violations are reported at
   the earliest point they are observable. *)
exception Violation_found of string

let fail msg = raise (Violation_found msg)

(* A resumable cut of an interrupted sequential exploration. *)
type checkpoint = {
  cp_cursor : choice list; (* schedule prefix of the first uncounted node *)
  cp_stats : stats; (* totals accumulated strictly before the cursor *)
  cp_visited : (string * (int * int) list) list;
      (* claimed fingerprints (raw digests), each with its (sleep mask,
         depth) covers in claim order; [] unless dedup *)
  cp_provenance : Schedule.provenance; (* the run that cut it *)
}

exception Interrupted of checkpoint

let checkpoint_stats cp = cp.cp_stats

(* Version 4: the run's parameters are its provenance, and every
   visited digest carries its covers.  Version 3 had the same layout but
   digests of the older fingerprint bytes (framed heap slots, decimal
   counts), which no state of this build matches; version 2 recorded
   five parameter fields, which could not name a reduction. *)
let checkpoint_version = 4

(* A visited entry is one string, ["<digest hex> <mask>:<depth> ..."],
   covers in claim order: one line per state in the pretty-printed file,
   as large checkpoints hold millions of them. *)
let checkpoint_to_json cp =
  let entry (d, covers) =
    Json.String
      (String.concat " "
         (Digest.to_hex d :: List.map (fun (m, depth) -> Printf.sprintf "%d:%d" m depth) covers))
  in
  Json.Obj
    [
      ("version", Json.Int checkpoint_version);
      ("kind", Json.String "explore-checkpoint");
      ("provenance", Schedule.provenance_to_json cp.cp_provenance);
      ( "stats",
        Json.Obj
          [
            ("schedules", Json.Int cp.cp_stats.schedules);
            ("nodes", Json.Int cp.cp_stats.nodes);
            ("max_depth", Json.Int cp.cp_stats.max_depth);
            ("dedup_hits", Json.Int cp.cp_stats.dedup_hits);
            ("distinct_states", Json.Int cp.cp_stats.distinct_states);
            ("por_pruned", Json.Int cp.cp_stats.por_pruned);
            ("symmetry_hits", Json.Int cp.cp_stats.symmetry_hits);
          ] );
      ("cursor", Schedule.to_json cp.cp_cursor);
      ("visited", Json.List (List.map entry cp.cp_visited));
    ]

let checkpoint_of_json j =
  if (match Json.member "kind" j with Some (Json.String "explore-checkpoint") -> false | _ -> true)
  then invalid_arg "Explore.checkpoint_of_json: not an explore checkpoint";
  (* Only this build's format loads: an older cursor or visited digest
     may name something else here, and misresuming would silently
     finish a different exploration. *)
  (match Json.member "version" j with
  | Some (Json.Int v) when v = checkpoint_version -> ()
  | v ->
      invalid_arg
        (Printf.sprintf
           "Explore.checkpoint_of_json: %s checkpoint is not this build's version %d; rerun the \
            exploration"
           (match v with Some v -> "version " ^ Json.to_string v | None -> "unversioned")
           checkpoint_version));
  let int k v = Json.to_int (Json.field k v) in
  let stats = Json.field "stats" j in
  let entry j =
    let bad () = invalid_arg ("Explore.checkpoint_of_json: bad visited entry " ^ Json.to_string j) in
    let cover c =
      match List.map int_of_string_opt (String.split_on_char ':' c) with
      | [ Some m; Some depth ] -> (m, depth)
      | _ -> bad ()
    in
    match String.split_on_char ' ' (Json.to_str j) with
    | d :: (_ :: _ as covers) when String.length d = 32 -> (Digest.from_hex d, List.map cover covers)
    | _ -> bad ()
  in
  {
    cp_cursor = Schedule.of_json (Json.field "cursor" j);
    cp_stats =
      {
        schedules = int "schedules" stats;
        nodes = int "nodes" stats;
        max_depth = int "max_depth" stats;
        dedup_hits = int "dedup_hits" stats;
        distinct_states = int "distinct_states" stats;
        por_pruned = int "por_pruned" stats;
        symmetry_hits = int "symmetry_hits" stats;
      };
    cp_visited = List.map entry (Json.to_list (Json.field "visited" j));
    cp_provenance = Schedule.provenance_of_json (Json.field "provenance" j);
  }

(* [Json.save] writes temp-then-rename: a crash of the host process
   while the checkpoint is written never leaves a truncated file where
   [--resume] expects a valid one. *)
let save_checkpoint ~file cp = Json.save ~file (checkpoint_to_json cp)
let load_checkpoint ~file = checkpoint_of_json (Json.load ~file)

(* Per-walker statistics; one per domain in parallel mode, merged in
   frontier order at the end. *)
type counter = {
  mutable c_schedules : int;
  mutable c_nodes : int;
  mutable c_max_depth : int;
  mutable c_dedup_hits : int;
  mutable c_por_pruned : int;
  mutable c_symmetry_hits : int;
}

let fresh_counter () =
  {
    c_schedules = 0;
    c_nodes = 0;
    c_max_depth = 0;
    c_dedup_hits = 0;
    c_por_pruned = 0;
    c_symmetry_hits = 0;
  }

let counter_of_stats s =
  {
    c_schedules = s.schedules;
    c_nodes = s.nodes;
    c_max_depth = s.max_depth;
    c_dedup_hits = s.dedup_hits;
    c_por_pruned = s.por_pruned;
    c_symmetry_hits = s.symmetry_hits;
  }

exception Cancelled
(* Internal: a parallel subtree walker learned that its result can no
   longer matter (a smaller frontier index holds a violation in raw mode;
   any walker does in dedup mode). *)

exception Interrupt_at of choice list
(* Internal: a budget tripped at this (forward) cursor prefix; the
   explore entry point converts it into [Interrupted] with a checkpoint. *)

(* How the walker returns its live system to a fork point (see the
   header): pop the undo journal, or replay the node's prefix into a
   fresh system (the oracle). *)
type backtrack = Rollback | Rebuild

(* Where a fork's restore returns the live system: nowhere (the last
   child leaves it to the enclosing restore), a journal mark, or a
   replay of the fork point's prefix. *)
type restore_point = Elided | Mark of Sim.mark | Replay

let explore ?(max_crashes = 1) ?domains ?(frontier_depth = 4) ?(dedup = false) ?(por = false)
    ?symmetry ?node_budget ?resume_from ?fingerprint ?(undo = true) ~mk () =
  (* The per-schedule step bound: a schedule deeper than this is
     reported as a wait-freedom violation.  Every workload here finishes
     far below it; it is recorded in the provenance, so a checkpoint
     taken under another bound is refused on resume. *)
  let max_steps = 10_000 in
  let backtrack = if undo then Rollback else Rebuild in
  let workers = Rcons_par.Pool.resolve_domains domains in
  let frontier_depth = max 1 frontier_depth in
  if (node_budget <> None || resume_from <> None) && workers > 1 then
    invalid_arg "Explore.explore: budgets and resume require domains = 1";
  if por && dedup && workers > 1 then
    invalid_arg "Explore.explore: por + dedup is order-dependent and requires domains = 1";
  if symmetry <> None && not dedup then
    invalid_arg "Explore.explore: symmetry reduction requires dedup";
  if max_crashes < 0 then invalid_arg "Explore.explore: max_crashes must be >= 0";
  (match node_budget with
  | Some b when b < 1 ->
      invalid_arg (Printf.sprintf "Explore.explore: node_budget must be >= 1 (got %d)" b)
  | _ -> ());
  (* The budget bounds the work of THIS invocation, not of the whole
     (possibly many-times-resumed) exploration: a resumed run starts its
     node allowance afresh above the checkpoint's counters, so chaining
     [explore ~node_budget ~resume_from] makes steady progress. *)
  let base_nodes = match resume_from with Some cp -> cp.cp_stats.nodes | None -> 0 in
  (* The workload's persistency model, read off the first system [mk]
     returns -- the root, built on this domain before any worker starts.
     [mk] owns its policy, so every later build agrees.  Under the eager
     model a crash touches only its victim's control state, so it
     commutes with other processes' steps; a lossy cache makes it revert
     shared lines, which those steps may read.  Eager at cost 1 is no
     model at all, also when built with barriers (the fingerprint says
     so). *)
  let model = Atomic.make None in
  let eager_model t =
    let m =
      match Atomic.get model with
      | Some m -> m
      | None ->
          let m = Option.map (fun c -> (Persist.policy c, Persist.flush_cost c)) (Sim.cache t) in
          let m = if m = Some (Persist.Eager, 1) then None else m in
          Atomic.set model (Some m);
          m
    in
    match m with None | Some (Persist.Eager, _) -> true | Some _ -> false
  in
  (* The run's identity: origin, parameters, persistency model and
     workload fingerprint.  It goes on every violation and every
     checkpoint, and a checkpoint resumes only under an equal one.  The
     model is known once the first system has been built. *)
  let prov () =
    {
      Schedule.origin = "explore";
      seed = None;
      params =
        ([
           ("max_crashes", string_of_int max_crashes);
           ("max_steps", string_of_int max_steps);
           ("dedup", string_of_bool dedup);
         ]
        @ (if por then [ ("por", "true") ] else [])
        @ (match symmetry with
          | None -> []
          | Some classes ->
              [
                ( "symmetry",
                  String.concat ""
                    (List.map
                       (fun cls ->
                         "[" ^ String.concat " " (List.map string_of_int cls) ^ "]")
                       classes) );
              ])
        @
        match Atomic.get model with
        | None | Some None -> []
        | Some (Some (p, fc)) ->
            [ ("persist", Persist.policy_to_string p); ("flush_cost", string_of_int fc) ]);
      fingerprint;
    }
  in
  (* A process body that raises is a property violation with a
     schedule, not an explorer error.  [prefix] is most-recent-first, as
     [violation] expects. *)
  let guarded_apply t c prefix =
    match Schedule.apply_guarded t c with
    | Ok () -> ()
    | Error msg ->
        Sim.abandon t;
        raise (violation msg prefix)
  in
  let replay prefix =
    (* Fingerprinting needs every system under its own arena; the arena
       stays active while the system runs so that lazily created objects
       keep registering (the explorer runs one system at a time per
       domain).  The arena active before [explore] is restored on exit.
       The write-back cache is [mk]'s business: the system carries its
       own.  Object ids restart at zero so footprints are comparable
       across replays of the same prefix. *)
    Rcons_spec.Footprint.reset_oids ();
    if dedup then Heap.activate (Heap.create ());
    let t, check = mk () in
    let applied = ref [] in
    List.iter
      (fun c ->
        applied := c :: !applied;
        guarded_apply t c !applied;
        match check () with
        | () -> ()
        | exception Violation_found msg ->
            Sim.abandon t;
            raise (violation msg prefix))
      (List.rev prefix);
    (t, check)
  in
  (* The symmetry group is derived from the class list and the process
     count of the first system built; computed once, in the main domain
     (the root state is always fingerprinted before workers start). *)
  let perms_cache = Atomic.make None in
  let perms_for t =
    match Atomic.get perms_cache with
    | Some ps -> ps
    | None ->
        let ps =
          Sim.relabelings
            ~classes:(match symmetry with Some c -> c | None -> assert false)
            (Sim.num_procs t)
        in
        Atomic.set perms_cache (Some ps);
        ps
  in
  (* por + dedup identifies states by the ungraded fingerprint: remaining
     crash budget is all a state's futures depend on, so the discarded
     prefixes of crashed runs collapse. *)
  let ungraded = por && dedup in
  let graded = not ungraded in
  let fp_of cnt t =
    match symmetry with
    | None -> Sim.fingerprint_digest ~graded t
    | Some _ ->
        (* The canonical digest: the least over the relabeling group,
           identity first.  A hit is a least digest that beats the
           identity's, so the counter depends on the digest bytes and
           not only on the state graph.  The identity is digested with
           no [perm], which gives the same bytes and lets the cached
           pid-bearing slots serve it. *)
        let perms = perms_for t in
        let d0 = Sim.fingerprint_digest ~graded t in
        let d =
          List.fold_left
            (fun acc perm ->
              let d = Sim.fingerprint_digest ~graded ~perm t in
              if String.compare d acc < 0 then d else acc)
            d0 (List.tl perms)
        in
        if String.compare d d0 < 0 then cnt.c_symmetry_hits <- cnt.c_symmetry_hits + 1;
        d
  in
  let mask_of_choice = function
    | Step_choice i -> 1 lsl (2 * i)
    | Crash_choice i -> 1 lsl ((2 * i) + 1)
  in
  let mask_of sleep = List.fold_left (fun m c -> m lor mask_of_choice c) 0 sleep in
  (* Claim the live state in the visited store: the exactly-once claim
     of graded dedup, or under por + dedup the cover rule over the sleep
     set and depth the state is about to be expanded under (see
     [Rcons_par.Visited]). *)
  let claim vset cnt t sleep depth =
    let fp = fp_of cnt t in
    if por then Rcons_par.Visited.claim vset fp ~mask:(mask_of sleep) ~depth
    else Rcons_par.Visited.add vset fp
  in
  let choices t crashes_used =
    let n = Sim.num_procs t in
    let rec collect i acc =
      if i < 0 then acc
      else
        let acc = if Sim.finished t i then acc else Step_choice i :: acc in
        let acc =
          if crashes_used < max_crashes && Sim.started t i && not (Sim.finished t i) then
            Crash_choice i :: acc
          else acc
        in
        collect (i - 1) acc
    in
    collect (n - 1) []
  in
  let stats_of ?store cnt =
    {
      schedules = cnt.c_schedules;
      nodes = cnt.c_nodes;
      max_depth = cnt.c_max_depth;
      dedup_hits = cnt.c_dedup_hits;
      distinct_states = (match store with Some v -> Rcons_par.Visited.cardinal v | None -> 0);
      por_pruned = cnt.c_por_pruned;
      symmetry_hits = cnt.c_symmetry_hits;
    }
  in
  (* Journal ownership and system lifetime for one walk: [run_walk
     prefix f] builds the walk's live system -- the root, or a frontier
     node replayed from its prefix (the cross-domain handoff: undo
     journals and the continuations they rebuild are domain-local) --
     and hands it to [f] in a ref, which a [Rebuild] restore replaces.
     Under [Rollback] the journal is installed BEFORE the system is
     built, so every step value from the root on lands in the
     per-process vlogs (rollback rebuilds continuations by feeding them
     back), and it is uninstalled -- flushing its telemetry -- when the
     walk ends.  The live system is abandoned however the walk exits
     (normally, [Violation], [Interrupt_at], [Cancelled], ...). *)
  let run_walk prefix f =
    let journaled = backtrack = Rollback in
    if journaled then Undo.install ();
    Fun.protect ~finally:(fun () -> if journaled then Undo.uninstall ()) @@ fun () ->
    let live = ref (replay prefix) in
    Fun.protect ~finally:(fun () -> Sim.abandon (fst !live)) @@ fun () -> f live
  in
  (* The DFS walker over the schedule tree (or, with [store], the state
     graph), rooted at the node [prefix0].  Entering a child takes a
     restore point, applies the choice to the live system in place and
     recurses; returning restores the system to the fork point under the
     [backtrack] strategy.  [stop_depth = Some d] turns nodes at depth d
     into frontier emissions instead of recursions (phase 1 of the
     parallel split); [cancelled] is polled at every node by parallel
     subtree walkers.  [resume] is the remaining cursor path of a
     checkpoint being resumed: its spine is re-descended without
     counting, subtrees to its left are skipped, and everything to its
     right runs normally.  [sleep0] is the node's inherited sleep set
     (por mode; frontier items carry theirs into phase 2).  The
     [stop_depth = None], no-cancellation, no-store, no-resume
     instantiation is the plain sequential explorer.  Exceptions unwind
     WITHOUT restoring -- the system is dead to this walk either way,
     and [run_walk] abandons it. *)
  let walk ?stop_depth ?(emit = fun _ _ _ -> ()) ?(cancelled = fun () -> false) ?store
      ?(resume = []) ?(sleep0 = []) cnt prefix0 depth0 crashes0 =
    let over_budget () =
      match node_budget with Some b -> cnt.c_nodes - base_nodes > b | None -> false
    in
    run_walk prefix0 @@ fun live ->
    let eager_model = eager_model (fst !live) in
    (* Apply [c] to the live system and run the invariant. *)
    let descend c prefix' =
      let t, check = !live in
      guarded_apply t c prefix';
      match check () with
      | () -> ()
      | exception Violation_found msg ->
          Sim.abandon t;
          raise (violation msg prefix')
    in
    (* The [Rebuild] restore: abandon the live system and replay the
       fork point's prefix into a fresh one. *)
    let rebuild prefix =
      Sim.abandon (fst !live);
      live := replay prefix
    in
    (* Return the live system to a fork's restore point; [prefix] is the
       fork point's. *)
    let restore t prefix = function
      | Elided -> ()
      | Mark m -> Sim.rollback t m
      | Replay -> rebuild prefix
    in
    (* Do choices [u] and [c] commute at a node that has used
       [crashes_used] crashes and whose processes are poised on the
       footprints [fps]?  (por only.) *)
    let indep fps crashes_used u c =
      match (u, c) with
      | Step_choice p, Step_choice q ->
          p <> q && Rcons_spec.Footprint.independent fps.(p) fps.(q)
      | Crash_choice p, Crash_choice q ->
          (* Swapping two crashes needs both executable in either
             order, i.e. two remaining crash credits. *)
          p <> q && max_crashes - crashes_used >= 2
      | Crash_choice p, Step_choice q | Step_choice q, Crash_choice p -> p <> q && eager_model
    in
    let rec expand prefix depth crashes_used resume sleep_in =
      (* Read only at node entry: a [Rebuild] restore swaps the system. *)
      let t = fst !live in
      let cs = choices t crashes_used in
      match cs with
      | [] -> cnt.c_schedules <- cnt.c_schedules + 1 (* leaf; the system lives on *)
      | cs ->
          let fps =
            if por then begin
              let n = Sim.num_procs t in
              if n > 30 then invalid_arg "Explore.explore: por supports at most 30 processes";
              Array.init n (fun i ->
                  match Sim.pending_footprint t i with
                  | Some f -> f
                  | None -> Rcons_spec.Footprint.Global)
            end
            else [||]
          in
          (* Position of the resume cursor among this node's children:
             children before it were fully explored (or pruned asleep)
             before the interrupt; the cursor spine itself ([on_path])
             was already counted and claimed. *)
          let resume_idx, resume_rest =
            match resume with
            | [] -> (-1, [])
            | c0 :: rest ->
                let rec find k = function
                  | [] ->
                      invalid_arg
                        "Explore.explore: resume cursor does not match this workload (different \
                         mk or parameters?)"
                  | c :: tl -> if c = c0 then k else find (k + 1) tl
                in
                (find 0 cs, rest)
          in
          let sleep = ref sleep_in in
          (* Last-child elision: nothing reads the system between the
             final child's return and the enclosing restore (the
             parent's own, or the walk's end), so the last child skips
             its restore point and lets that enclosing restore undo
             both levels at once.  Under [Rollback] a chain of returns
             out of a deep leftmost subtree then costs ONE continuation
             rebuild instead of one per level -- the dominant saving,
             since a rebuild's fixed cost (discard + fresh fiber) dwarfs
             the journal pops.  Observable order is untouched: elision
             only moves WHEN state is restored, never what is walked. *)
          let last = List.length cs - 1 in
          (* A loop rather than [List.iteri]: its closure would capture
             some twenty free variables and be allocated at every node,
             a tenth of the walk's allocation. *)
          let rest = ref cs in
          for k = 0 to last do
            let c = List.hd !rest in
            rest := List.tl !rest;
            if k < resume_idx then begin
              (* Left of the cursor: already covered, so it sleeps for
                 later siblings exactly as it did when it was explored. *)
              if por && not (List.mem c !sleep) then sleep := c :: !sleep
            end
            else if por && List.mem c !sleep then
              (* Asleep: a sibling subtree already covers every
                 interleaving this child would start (modulo swaps of
                 independent transitions). *)
              cnt.c_por_pruned <- cnt.c_por_pruned + 1
            else begin
              let on_path = k = resume_idx && resume_rest <> [] in
              let depth' = depth + 1 in
              let prefix' = c :: prefix in
              let crashes' =
                match c with
                | Crash_choice _ -> crashes_used + 1
                | Step_choice _ -> crashes_used
              in
              let child_sleep =
                if por then List.filter (fun u -> indep fps crashes_used u c) !sleep else []
              in
              (* The restore point of this fork, taken before the child
                 is entered. *)
              let point =
                if k = last then Elided
                else match backtrack with Rollback -> Mark (Sim.mark t) | Rebuild -> Replay
              in
              (if on_path then begin
                 (* Re-descend the checkpoint spine: counted and (in
                    dedup mode) claimed before the interrupt, so
                    neither is repeated. *)
                 descend c prefix';
                 expand prefix' depth' crashes' resume_rest child_sleep;
                 restore t prefix point
               end
               else begin
                 cnt.c_nodes <- cnt.c_nodes + 1;
                 if over_budget () then begin
                   (* Roll the uncounted-on-resume node back out of the
                      counters: the checkpoint's statistics are exactly
                      those of the explored region. *)
                   cnt.c_nodes <- cnt.c_nodes - 1;
                   raise (Interrupt_at (List.rev prefix'))
                 end;
                 if cancelled () then raise Cancelled;
                 if depth' > max_steps then
                   raise (violation "step bound exceeded (wait-freedom?)" prefix');
                 if depth' > cnt.c_max_depth then cnt.c_max_depth <- depth';
                 let frontier =
                   match stop_depth with Some d -> depth' >= d | None -> false
                 in
                 match store with
                 | None ->
                     if frontier then emit prefix' crashes' child_sleep
                     else begin
                       descend c prefix';
                       expand prefix' depth' crashes' [] child_sleep;
                       restore t prefix point
                     end
                 | Some vset ->
                     (* Dedup mode: position the child even at the
                        frontier (its fingerprint must be claimed
                        before emission so phase 2 expands it exactly
                        once). *)
                     descend c prefix';
                     if claim vset cnt (fst !live) child_sleep depth' then begin
                       if frontier then emit prefix' crashes' child_sleep
                       else expand prefix' depth' crashes' [] child_sleep;
                       restore t prefix point
                     end
                     else begin
                       cnt.c_dedup_hits <- cnt.c_dedup_hits + 1;
                       restore t prefix point
                     end
               end);
              (* The child's subtree is now fully covered (explored
                 here, emitted for phase 2, or claimed earlier), so
                 later siblings may sleep on it. *)
              if por then sleep := c :: !sleep
            end
          done
    in
    (* The root is expanded, never reached through an edge, so a dedup
       walk claims it here (frontier roots were claimed in phase 1).  A
       resumed run restored the claim, and with it the counters it
       bumped. *)
    (match store with
    | Some vset when prefix0 = [] && resume = [] -> ignore (claim vset cnt (fst !live) [] 0)
    | _ -> ());
    if cancelled () then raise Cancelled;
    if depth0 > max_steps then raise (violation "step bound exceeded (wait-freedom?)" prefix0);
    if depth0 > cnt.c_max_depth then cnt.c_max_depth <- depth0;
    match stop_depth with
    | Some d when depth0 >= d -> emit prefix0 crashes0 sleep0
    | _ -> expand prefix0 depth0 crashes0 resume sleep0
  in
  (* Sequential runs (plain and resumed): continue the checkpoint's
     counters, cursor and visited store, if any, and convert a budget
     trip into a self-describing checkpoint. *)
  let run_seq () =
    let store = if dedup then Some (Rcons_par.Visited.create ()) else None in
    let cnt, resume =
      match resume_from with
      | Some cp ->
          Option.iter
            (fun vset ->
              List.iter
                (fun (key, covers) ->
                  List.iter
                    (fun (mask, depth) -> ignore (Rcons_par.Visited.claim vset key ~mask ~depth))
                    covers)
                cp.cp_visited)
            store;
          (counter_of_stats cp.cp_stats, cp.cp_cursor)
      | None -> (fresh_counter (), [])
    in
    match walk ?store ~resume cnt [] 0 0 with
    | () -> stats_of ?store cnt
    | exception Interrupt_at cursor ->
        raise
          (Interrupted
             {
               cp_cursor = cursor;
               cp_stats = stats_of ?store cnt;
               cp_visited =
                 (match store with Some vset -> Rcons_par.Visited.elements vset | None -> []);
               cp_provenance = prov ();
             })
  in
  (* Fold phase 2's per-subtree statistics into phase 1's, in frontier
     order; cancelled and violating subtrees add nothing. *)
  let merge_stats s0 subtrees =
    Array.fold_left
      (fun acc r ->
        match r with
        | Some s ->
            {
              acc with
              schedules = acc.schedules + s.schedules;
              nodes = acc.nodes + s.nodes;
              max_depth = max acc.max_depth s.max_depth;
              dedup_hits = acc.dedup_hits + s.dedup_hits;
              por_pruned = acc.por_pruned + s.por_pruned;
              symmetry_hits = acc.symmetry_hits + s.symmetry_hits;
            }
        | None -> acc)
      s0 subtrees
  in
  (* The parallel split.  Phase 1 walks sequentially down to
     [frontier_depth] and emits each frontier node as a (prefix,
     crashes, sleep) triple: the cross-domain handoff token, since a
     live system cannot cross domains -- the receiving walker rebuilds
     the fork point from the prefix ([run_walk]), then explores its
     whole subtree under the run's strategy.  Phase 2 fans the frontier
     out through [Pool.find_first], which returns the violation at the
     smallest frontier index; a walker right of a known violation is
     superseded and cancels itself mid-walk.  Only three things are
     dedup-specific: the walkers share the visited store, any violation
     cancels every walker, and a violation anywhere falls back to the
     deterministic sequential dedup pass (see the header). *)
  let run_par () =
    let store = if dedup then Some (Rcons_par.Visited.create ()) else None in
    let cnt0 = fresh_counter () in
    let frontier_rev = ref [] in
    let emit prefix crashes sleep = frontier_rev := (prefix, crashes, sleep) :: !frontier_rev in
    (* A raw phase-1 violation does NOT abort at once: in DFS order it
       comes after the complete subtrees of every frontier node emitted
       before it, and one of those may hold the violation the sequential
       explorer would have reported first. *)
    let phase1 =
      match walk ~stop_depth:frontier_depth ~emit ?store cnt0 [] 0 0 with
      | () -> None
      | exception Violation v -> Some v
    in
    let frontier = Array.of_list (List.rev !frontier_rev) in
    let subtrees = Array.make (Array.length frontier) None in
    let violated = Atomic.make false in
    let cancelled () = Rcons_par.Pool.superseded () || (dedup && Atomic.get violated) in
    let subtree_violation =
      if dedup && phase1 <> None then None
      else
        Rcons_par.Pool.find_first ~domains:workers (Array.length frontier) (fun i ->
            let prefix, crashes, sleep = frontier.(i) in
            let cnt = fresh_counter () in
            match walk ~cancelled ?store ~sleep0:sleep cnt prefix frontier_depth crashes with
            | () ->
                subtrees.(i) <- Some (stats_of cnt);
                None
            | exception Cancelled -> None
            | exception Violation v ->
                Atomic.set violated true;
                Some v)
    in
    (* A subtree violation orders before the phase-1 one. *)
    match (subtree_violation, phase1) with
    | None, None -> merge_stats (stats_of ?store cnt0) subtrees
    | _ when dedup -> run_seq ()
    | Some v, _ | None, Some v -> raise (Violation v)
  in
  let saved_arena = Heap.current () in
  let restore_arena () =
    match saved_arena with Some a -> Heap.activate a | None -> Heap.deactivate ()
  in
  let attach_provenance f =
    try f ()
    with Violation v when v.v_provenance = None ->
      raise (Violation { v with v_provenance = Some (prov ()) })
  in
  attach_provenance @@ fun () ->
  Fun.protect ~finally:restore_arena @@ fun () ->
  match resume_from with
  | None -> if workers > 1 then run_par () else run_seq ()
  | Some cp ->
      (* Build the root to learn the persistency model, then refuse a
         checkpoint cut by any other run -- other parameters, reductions,
         model or workload -- before a node is counted: the cursor alone
         cannot tell two such runs apart, and finishing the wrong one
         would be a silent wrong answer. *)
      let root, _ = replay [] in
      ignore (eager_model root);
      Sim.abandon root;
      let this = prov () in
      if cp.cp_provenance <> this then
        invalid_arg
          (Format.asprintf "Explore.explore: checkpoint was taken by another run (%a; this run %a)"
             Schedule.pp_provenance cp.cp_provenance Schedule.pp_provenance this);
      (* An empty cursor marks a checkpoint of a completed exploration:
         there is nothing to its right, so its totals are final. *)
      if cp.cp_cursor = [] then cp.cp_stats else run_seq ()
