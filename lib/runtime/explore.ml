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
   futures, so the schedule tree is explored as a state graph: a lock-free
   concurrent visited set ([Rcons_par.Visited]) claims each fingerprint
   exactly once, the claimant expands the state's children, and every
   later encounter is counted as a dedup hit and pruned.  Because the
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
   the visited store records the sleep mask and depth each state was
   expanded under, pruning a revisit only when a previous expansion used
   a subset sleep mask at no greater depth (re-expanding otherwise,
   after Godefroid--Holzmann--Pirottin); the combination stays sound but
   its statistics are visit-order dependent, so por + dedup is
   sequential only and not resumable.  Raw por composes with the
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
   are then distributed across OCaml 5 domains, each re-executing its
   subtree on its own fresh systems built by [mk].  Per-subtree statistics
   are merged in frontier order, and if any subtree finds a violation the
   one with the smallest frontier index wins (with an atomic watermark
   cancelling subtrees that can no longer win), so the schedule reported
   is exactly the one the sequential DFS would have raised first: results
   of completed explorations are bit-identical to the sequential path.
   With [dedup = true] the walkers instead share the visited set (their
   statistics are order-independent, see above); if any walker finds a
   violation the run falls back to one sequential deduplicating pass,
   whose first violation is deterministic -- so seq and par dedup runs
   report identical stats and identical violation schedules, though the
   dedup violation schedule may differ from the raw-mode one.

   Budgets ([node_budget] / [time_budget], sequential mode only): instead
   of losing an interrupted exhaustive run, the explorer raises
   [Interrupted] with a serializable checkpoint -- the DFS cursor (the
   schedule prefix of the first uncounted node), the statistics
   accumulated so far, and (under dedup) the visited-set contents.
   Resuming from the checkpoint re-descends the cursor spine without
   re-counting it, skips the fully-explored subtrees to its left, and
   continues the DFS exactly where it stopped, so the final statistics
   are bit-identical to an uninterrupted run. *)

type choice = Schedule.choice = Step_choice of int | Crash_choice of int

let pp_choice = Schedule.pp_choice
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

exception Budget_exceeded of stats
(* Raised when the exploration tree exceeds [max_nodes]; callers choose
   bounds so that this does not happen in CI, but a runaway configuration
   fails fast instead of hanging. *)

(* A resumable cut of an interrupted sequential exploration. *)
type checkpoint = {
  cp_cursor : choice list; (* schedule prefix of the first uncounted node *)
  cp_stats : stats; (* totals accumulated strictly before the cursor *)
  cp_visited : string list; (* claimed fingerprints (raw digests); [] unless dedup *)
  cp_max_crashes : int;
  cp_max_steps : int;
  cp_dedup : bool;
  cp_por : bool; (* recorded so a resume attempt fails loudly *)
  cp_fingerprint : string option; (* the run's workload [?fingerprint], if it had one *)
}

exception Interrupted of checkpoint

let checkpoint_stats cp = cp.cp_stats
let checkpoint_cursor cp = cp.cp_cursor

(* Version 2: visited digests are of the fixed-width trace-chain
   fingerprint ([Sim.fingerprint_digest]); version 1 digests named list-format
   fingerprints, which no state of this build reproduces. *)
let checkpoint_version = 2

let checkpoint_to_json cp =
  Json.Obj
    [
      ("version", Json.Int checkpoint_version);
      ("kind", Json.String "explore-checkpoint");
      ("max_crashes", Json.Int cp.cp_max_crashes);
      ("max_steps", Json.Int cp.cp_max_steps);
      ("dedup", Json.Bool cp.cp_dedup);
      ("por", Json.Bool cp.cp_por);
      ("fingerprint", match cp.cp_fingerprint with Some fp -> Json.String fp | None -> Json.Null);
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
      ("visited", Json.List (List.map (fun d -> Json.String (Digest.to_hex d)) cp.cp_visited));
    ]

let checkpoint_of_json j =
  if (match Json.member "kind" j with Some (Json.String "explore-checkpoint") -> false | _ -> true)
  then invalid_arg "Explore.checkpoint_of_json: not an explore checkpoint";
  (* Older checkpoints name the engine that took them.  Both backtrack
     strategies cut the same checkpoint, so "undo" and "replay" both
     load; any other tag is from a build this one does not know, whose
     cursor may mean something else: refuse it rather than misresume. *)
  (match Json.member "engine" j with
  | None | Some (Json.String ("undo" | "replay")) -> ()
  | Some (Json.String e) ->
      invalid_arg ("Explore.checkpoint_of_json: unknown exploration engine " ^ e)
  | Some _ -> invalid_arg "Explore.checkpoint_of_json: engine must be a string");
  let int k v = Json.to_int (Json.field k v) in
  let version = match Json.member "version" j with Some v -> Json.to_int v | None -> 1 in
  if version > checkpoint_version then
    invalid_arg
      (Printf.sprintf "Explore.checkpoint_of_json: checkpoint version %d is newer than this build's %d"
         version checkpoint_version);
  let visited = Json.to_list (Json.field "visited" j) in
  (* An older checkpoint's visited digests name states in a fingerprint
     format this build no longer produces: they would never match, and
     every state they claimed would be silently re-expanded and
     re-counted.  A raw checkpoint has none, so it still resumes. *)
  if version < checkpoint_version && visited <> [] then
    invalid_arg
      (Printf.sprintf
         "Explore.checkpoint_of_json: version %d dedup checkpoint holds fingerprints of an \
          older format; rerun the exploration"
         version);
  let stats = Json.field "stats" j in
  (* Fields added after the v1 format default when absent, so pre-reduction
     checkpoints stay loadable. *)
  let opt_int k v = match Json.member k v with Some x -> Json.to_int x | None -> 0 in
  {
    cp_cursor = Schedule.of_json (Json.field "cursor" j);
    cp_stats =
      {
        schedules = int "schedules" stats;
        nodes = int "nodes" stats;
        max_depth = int "max_depth" stats;
        dedup_hits = int "dedup_hits" stats;
        distinct_states = int "distinct_states" stats;
        por_pruned = opt_int "por_pruned" stats;
        symmetry_hits = opt_int "symmetry_hits" stats;
      };
    cp_visited = List.map (fun s -> Digest.from_hex (Json.to_str s)) visited;
    cp_max_crashes = int "max_crashes" j;
    cp_max_steps = int "max_steps" j;
    cp_dedup = Json.to_bool (Json.field "dedup" j);
    cp_por = (match Json.member "por" j with Some b -> Json.to_bool b | None -> false);
    cp_fingerprint =
      (match Json.member "fingerprint" j with
      | None | Some Json.Null -> None
      | Some fp -> Some (Json.to_str fp));
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

(* Internal: pluggable visited-state store.  Graded dedup (and dedup +
   symmetry) uses the lock-free shared [Rcons_par.Visited] set; the
   por + dedup mode uses a sequential store keyed by ungraded
   fingerprint that remembers the (sleep mask, depth) pairs each state
   was expanded under.  [st_claim] returns whether the caller should
   expand the state (false = already covered). *)
type store = {
  st_claim : counter -> Sim.t -> mask:int -> depth:int -> bool;
  st_distinct : unit -> int;
  st_elements : unit -> string list;
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

let explore ?(max_crashes = 1) ?(max_steps = 10_000) ?(max_nodes = 20_000_000) ?domains
    ?(frontier_depth = 4) ?(dedup = false) ?(por = false) ?symmetry ?node_budget ?time_budget
    ?resume_from ?fingerprint ?(undo = true) ~mk () =
  let backtrack = if undo then Rollback else Rebuild in
  let workers = Rcons_par.Pool.resolve_domains domains in
  let frontier_depth = max 1 frontier_depth in
  let budgeted = node_budget <> None || time_budget <> None in
  if (budgeted || resume_from <> None) && workers > 1 then
    invalid_arg "Explore.explore: budgets and resume require domains = 1";
  if por && dedup && workers > 1 then
    invalid_arg "Explore.explore: por + dedup is order-dependent and requires domains = 1";
  if symmetry <> None && not dedup then
    invalid_arg "Explore.explore: symmetry reduction requires dedup";
  (match resume_from with
  | Some cp ->
      if por then
        invalid_arg "Explore.explore: resume with por is unsupported (reduced runs are not resumable)";
      if symmetry <> None then
        invalid_arg "Explore.explore: resume with symmetry is unsupported";
      if cp.cp_por then
        invalid_arg "Explore.explore: checkpoint was taken with por; reduced runs are not resumable";
      if cp.cp_max_crashes <> max_crashes || cp.cp_max_steps <> max_steps || cp.cp_dedup <> dedup
      then
        invalid_arg
          (Printf.sprintf
             "Explore.explore: checkpoint was taken with max_crashes=%d max_steps=%d dedup=%b"
             cp.cp_max_crashes cp.cp_max_steps cp.cp_dedup);
      (* The cursor alone cannot tell two workloads with the same choice
         tree apart (a lossy and an eager run of one algorithm): resuming
         under the wrong one would silently finish a different
         exploration.  Checkpoints predating the field skip the check. *)
      if cp.cp_fingerprint <> None && cp.cp_fingerprint <> fingerprint then
        invalid_arg
          (Printf.sprintf
             "Explore.explore: checkpoint was taken on a different workload (fingerprint %s, \
              this run %s)"
             (Option.get cp.cp_fingerprint)
             (Option.value fingerprint ~default:"none"))
  | None -> ());
  let start_time = if time_budget = None then 0. else Unix.gettimeofday () in
  (* Budgets bound the work of THIS invocation, not of the whole
     (possibly many-times-resumed) exploration: a resumed run starts its
     node allowance afresh above the checkpoint's counters, so chaining
     [explore ~node_budget ~resume_from] makes steady progress. *)
  let base_nodes = match resume_from with Some cp -> cp.cp_stats.nodes | None -> 0 in
  (* The node budget is shared across every domain so that parallel runs
     respect the same global bound as sequential ones. *)
  let nodes_total = Atomic.make 0 in
  (* The workload's persistency model, read off the first system [mk]
     returns -- the root, built on this domain before any worker starts.
     [mk] owns its policy, so every later build agrees.  Under the eager
     model a crash touches only its victim's control state, so it
     commutes with other processes' steps; a lossy cache makes it revert
     shared lines, which those steps may read. *)
  let model = Atomic.make None in
  let eager_model t =
    let m =
      match Atomic.get model with
      | Some m -> m
      | None ->
          let m = Option.map (fun c -> (Persist.policy c, Persist.flush_cost c)) (Sim.cache t) in
          Atomic.set model (Some m);
          m
    in
    match m with None | Some (Persist.Eager, _) -> true | Some _ -> false
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
           not only on the state graph. *)
        let perms = perms_for t in
        let d0 = Sim.fingerprint_digest ~graded ~perm:(List.hd perms) t in
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
  let visited_store vset =
    {
      st_claim = (fun cnt t ~mask:_ ~depth:_ -> Rcons_par.Visited.add vset (fp_of cnt t));
      st_distinct = (fun () -> Rcons_par.Visited.cardinal vset);
      st_elements = (fun () -> Rcons_par.Visited.elements vset);
    }
  in
  (* The por + dedup store (GHP95): a revisit is covered only if a
     previous expansion of the same state used a subset sleep mask (it
     explored at least the transitions we would) at no greater depth
     (its subtree was not truncated earlier by [max_steps] than ours
     would be); otherwise the state is re-expanded and the new
     (mask, depth) recorded.  Sequential-only, so a plain Hashtbl. *)
  let masked_store () =
    let tbl : (string, (int * int) list) Hashtbl.t = Hashtbl.create 4096 in
    {
      st_claim =
        (fun cnt t ~mask ~depth ->
          let fp = fp_of cnt t in
          let stored = Option.value (Hashtbl.find_opt tbl fp) ~default:[] in
          if List.exists (fun (m, d) -> m land mask = m && d <= depth) stored then false
          else begin
            Hashtbl.replace tbl fp ((mask, depth) :: stored);
            true
          end);
      st_distinct = (fun () -> Hashtbl.length tbl);
      st_elements = (fun () -> []);
    }
  in
  let mask_of_choice = function
    | Step_choice i -> 1 lsl (2 * i)
    | Crash_choice i -> 1 lsl ((2 * i) + 1)
  in
  let mask_of sleep = List.fold_left (fun m c -> m lor mask_of_choice c) 0 sleep in
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
      distinct_states = (match store with Some st -> st.st_distinct () | None -> 0);
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
    let budget_stats total = { (stats_of ?store cnt) with nodes = total } in
    let over_budget () =
      (match node_budget with Some b -> cnt.c_nodes - base_nodes > b | None -> false)
      ||
      match time_budget with
      | Some tb -> cnt.c_nodes land 255 = 0 && Unix.gettimeofday () -. start_time > tb
      | None -> false
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
          let indep u c =
            match (u, c) with
            | Step_choice p, Step_choice q ->
                p <> q && Rcons_spec.Footprint.independent fps.(p) fps.(q)
            | Crash_choice p, Crash_choice q ->
                (* Swapping two crashes needs both executable in either
                   order, i.e. two remaining crash credits. *)
                p <> q && max_crashes - crashes_used >= 2
            | Crash_choice p, Step_choice q | Step_choice q, Crash_choice p ->
                p <> q && eager_model
          in
          (* Position of the resume cursor among this node's children:
             children before it were fully explored before the
             interrupt; the cursor spine itself ([on_path]) was already
             counted and claimed. *)
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
            if k < resume_idx then () (* left of the cursor: already explored *)
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
                if por then List.filter (fun u -> indep u c) !sleep else []
              in
              (* The restore point of this fork, taken before the child
                 is entered. *)
              let point =
                if k = last then Elided
                else match backtrack with Rollback -> Mark (Sim.mark t) | Rebuild -> Replay
              in
              let restore () =
                match point with
                | Elided -> ()
                | Mark m -> Sim.rollback t m
                | Replay -> rebuild prefix
              in
              (if on_path then begin
                 (* Re-descend the checkpoint spine: counted and (in
                    dedup mode) claimed before the interrupt, so
                    neither is repeated. *)
                 descend c prefix';
                 expand prefix' depth' crashes' resume_rest [];
                 restore ()
               end
               else begin
                 cnt.c_nodes <- cnt.c_nodes + 1;
                 let total = Atomic.fetch_and_add nodes_total 1 + 1 in
                 if total > max_nodes then raise (Budget_exceeded (budget_stats total));
                 if budgeted && over_budget () then begin
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
                       restore ()
                     end
                 | Some st ->
                     (* Dedup mode: position the child even at the
                        frontier (its fingerprint must be claimed
                        before emission so phase 2 expands it exactly
                        once). *)
                     descend c prefix';
                     if st.st_claim cnt (fst !live) ~mask:(mask_of child_sleep) ~depth:depth'
                     then begin
                       if frontier then emit prefix' crashes' child_sleep
                       else expand prefix' depth' crashes' [] child_sleep;
                       restore ()
                     end
                     else begin
                       cnt.c_dedup_hits <- cnt.c_dedup_hits + 1;
                       restore ()
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
       walk claims it here (frontier roots were claimed in phase 1).  On
       a resumed run it is already claimed; the claim is then a no-op
       returning [false]. *)
    (match store with
    | Some st when prefix0 = [] -> ignore (st.st_claim cnt (fst !live) ~mask:0 ~depth:0)
    | _ -> ());
    if cancelled () then raise Cancelled;
    if depth0 > max_steps then raise (violation "step bound exceeded (wait-freedom?)" prefix0);
    if depth0 > cnt.c_max_depth then cnt.c_max_depth <- depth0;
    match stop_depth with
    | Some d when depth0 >= d -> emit prefix0 crashes0 sleep0
    | _ -> expand prefix0 depth0 crashes0 resume sleep0
  in
  (* Sequential runs (plain and resumed): continue the checkpoint's
     counters and cursor, if any, and convert a budget trip into a
     self-describing checkpoint. *)
  let run_seq ?store () =
    let cnt, resume =
      match resume_from with
      | Some cp -> (counter_of_stats cp.cp_stats, cp.cp_cursor)
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
               cp_visited = (match store with Some st -> st.st_elements () | None -> []);
               cp_max_crashes = max_crashes;
               cp_max_steps = max_steps;
               cp_dedup = dedup;
               cp_por = por;
               cp_fingerprint = fingerprint;
             })
  in
  let run_seq_dedup () =
    if por then run_seq ~store:(masked_store ()) ()
    else begin
      let vset = Rcons_par.Visited.create () in
      (match resume_from with
      | Some cp -> List.iter (fun d -> ignore (Rcons_par.Visited.add vset d)) cp.cp_visited
      | None -> ());
      run_seq ~store:(visited_store vset) ()
    end
  in
  (* Fold phase 2's per-subtree statistics into phase 1's, in frontier
     order; cancelled and violating subtrees add nothing. *)
  let merge_stats cnt0 results =
    Array.fold_left
      (fun acc r ->
        match r with
        | Some (Ok s) ->
            {
              acc with
              schedules = acc.schedules + s.schedules;
              nodes = acc.nodes + s.nodes;
              max_depth = max acc.max_depth s.max_depth;
              dedup_hits = acc.dedup_hits + s.dedup_hits;
              por_pruned = acc.por_pruned + s.por_pruned;
              symmetry_hits = acc.symmetry_hits + s.symmetry_hits;
            }
        | Some (Error _) | None -> acc)
      (stats_of cnt0) results
  in
  let saved_arena = Heap.current () in
  let restore_arena () =
    match saved_arena with Some a -> Heap.activate a | None -> Heap.deactivate ()
  in
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
  let attach_provenance f =
    try f ()
    with Violation v when v.v_provenance = None ->
      raise (Violation { v with v_provenance = Some (prov ()) })
  in
  attach_provenance @@ fun () ->
  Fun.protect ~finally:restore_arena @@ fun () ->
  match resume_from with
  | Some cp when cp.cp_cursor = [] ->
      (* An empty cursor marks a checkpoint of a completed exploration:
         there is nothing to its right.  Resuming used to re-walk the
         whole tree on top of the checkpoint's totals; return them
         unchanged instead. *)
      cp.cp_stats
  | _ ->
      if workers <= 1 then if dedup then run_seq_dedup () else run_seq ()
      else if dedup then begin
        (* Parallel dedup: walkers share the visited set; exactly-once
           expansion makes all statistics schedule-order independent, so no
           watermark is needed for pass runs.  Any violation falls back to
           the deterministic sequential dedup pass (see header comment). *)
        let store = visited_store (Rcons_par.Visited.create ()) in
        let frontier_rev = ref [] in
        let cnt0 = fresh_counter () in
        let violated = Atomic.make false in
        (* A frontier item (prefix, crashes, sleep) is the handoff
           token: a live system cannot cross domains, so the receiving
           walker rebuilds the fork point from the prefix ([run_walk]),
           then explores its whole subtree under the run's strategy. *)
        let emit_frontier prefix crashes sleep =
          frontier_rev := (prefix, crashes, sleep) :: !frontier_rev
        in
        let phase1 =
          match walk ~stop_depth:frontier_depth ~emit:emit_frontier ~store cnt0 [] 0 0 with
          | () -> Ok ()
          | exception Violation _ -> Error ()
        in
        match phase1 with
        | Error () -> run_seq_dedup ()
        | Ok () -> (
            let frontier = Array.of_list (List.rev !frontier_rev) in
            let nf = Array.length frontier in
            let results =
              Rcons_par.Pool.map ~domains:workers nf (fun i ->
                  if Atomic.get violated then None
                  else
                    let prefix, crashes, sleep = frontier.(i) in
                    let cnt = fresh_counter () in
                    let cancelled () = Atomic.get violated in
                    match
                      walk ~cancelled ~store ~sleep0:sleep cnt prefix frontier_depth crashes
                    with
                    | () -> Some (Ok (stats_of cnt))
                    | exception Cancelled -> None
                    | exception Violation _ ->
                        Atomic.set violated true;
                        Some (Error ()))
            in
            match
              Array.exists (function Some (Error ()) -> true | _ -> false) results
            with
            | true -> run_seq_dedup ()
            | false -> { (merge_stats cnt0 results) with distinct_states = store.st_distinct () })
      end
      else begin
        (* Phase 1: sequential walk down to the frontier.  A violation at
           depth < frontier_depth does NOT abort immediately: in DFS order it
           comes after the complete subtrees of every frontier node emitted
           before it, so those subtrees must still be searched -- one of them
           may contain the violation the sequential explorer would have
           reported first. *)
        let frontier_rev = ref [] in
        let cnt0 = fresh_counter () in
        (* See the dedup branch: the (prefix, crashes, sleep) triple is
           the cross-domain handoff token; phase 2 rebuilds it once. *)
        let emit_frontier prefix crashes sleep =
          frontier_rev := (prefix, crashes, sleep) :: !frontier_rev
        in
        let phase1_violation =
          match walk ~stop_depth:frontier_depth ~emit:emit_frontier cnt0 [] 0 0 with
          | () -> None
          | exception Violation v -> Some v
        in
        let frontier = Array.of_list (List.rev !frontier_rev) in
        let nf = Array.length frontier in
        (* Phase 2: fan the frontier subtrees out across domains.  [best] is
           the smallest frontier index known to hold a violation; subtrees at
           larger indices cancel themselves. *)
        let best = Atomic.make max_int in
        let rec lower i =
          let b = Atomic.get best in
          if i < b && not (Atomic.compare_and_set best b i) then lower i
        in
        let results =
          Rcons_par.Pool.map ~domains:workers nf (fun i ->
              if Atomic.get best < i then None
              else
                let prefix, crashes, sleep = frontier.(i) in
                let cnt = fresh_counter () in
                let cancelled () = Atomic.get best < i in
                match walk ~cancelled ~sleep0:sleep cnt prefix frontier_depth crashes with
                | () -> Some (Ok (stats_of cnt))
                | exception Cancelled -> None
                | exception Violation v ->
                    lower i;
                    Some (Error v))
        in
        (* Merge in frontier order: the first subtree violation is exactly the
           first violation of the sequential DFS; a phase-1 violation orders
           after every emitted subtree. *)
        let first_violation =
          Array.to_seq results
          |> Seq.filter_map (function Some (Error v) -> Some v | _ -> None)
          |> Seq.uncons
        in
        (match first_violation with Some (v, _) -> raise (Violation v) | None -> ());
        (match phase1_violation with Some v -> raise (Violation v) | None -> ());
        merge_stats cnt0 results
      end
