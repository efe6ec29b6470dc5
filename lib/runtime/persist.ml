(* Pluggable persistency model: a volatile write-back cache between the
   simulated processes and the non-volatile heap.

   The seed model ([Eager], the default) idealizes persistent memory:
   every shared write is durable the instant the step executes, so a
   crash only destroys process-local state.  Real persistent-memory
   systems -- the setting of Golab's recoverable-consensus work
   (arXiv:1804.10597) and of detectable objects (arXiv:2002.11378) --
   interpose a volatile cache: a store becomes durable only once its
   cache line is written back, explicitly (CLWB/flush, fence) or at the
   hardware's whim.  This module models the adversarial end of that
   spectrum:

   - [Eager]  -- write-through; today's model, bit-identical behavior.
   - [Lossy]  -- a crash of process p reverts every cache line whose
                 latest write was by p and has not been flushed.
   - [Torn]   -- like [Lossy], but each of p's dirty lines independently
                 either persists or reverts, by a deterministic parity
                 rule, modelling a partial write-back racing the crash.

   Coherence is unaffected: processes always read the latest (volatile)
   value.  Only crash recovery observes the durable copy.

   A cache line is one shared location (a [Cell], a [Growable] entry, a
   [Sim_obj]); the owning module supplies [persist]/[revert] closures
   that copy volatile state to the durable shadow and back.  A line is
   *dirty* when its volatile and durable copies may differ, and records
   the pid of the last writer -- crashes are per-process in this model
   (the paper's independent-crash setting), so only the crashing
   process's write-backs are lost.

   Determinism and fingerprint soundness.  Everything here is a
   deterministic function of the schedule: lines get consecutive ids in
   creation order (system builders are deterministic), the [Torn] rule
   persists a dirty line of pid p on p's k-th crash iff
   (line id + k) mod 2 = 0 -- a function of data already present in
   [Sim.fingerprint_digest] (per-process crash counts) and of per-line digests
   (owners are digested by the owning objects), never of the order in
   which the dirty set is traversed.  Equal fingerprints therefore still
   imply equal futures and explorer deduplication stays sound.

   A cache is chosen when a system is built and carried by the system
   from then on.  [scoped] makes a fresh cache ambient on the current
   domain for the duration of a build (none at all for [Eager] at flush
   cost 1: no line, zero overhead, byte-identical digests); object
   constructors attach lines to the ambient cache, and [Sim.create]
   captures it.  After the build nothing reads the ambient slot: inside
   a step, [Sim] installs the system's own cache as the step context
   ([in_step]), and lazily created objects and barriers take the cache
   from there.  So a system runs the same whatever is ambient later --
   another system built since, or no scope at all, as on an explorer
   worker domain. *)

type policy = Eager | Lossy | Torn

let policy_to_string = function Eager -> "eager" | Lossy -> "lossy" | Torn -> "torn"

let policy_of_string = function
  | "eager" -> Eager
  | "lossy" -> Lossy
  | "torn" -> Torn
  | s -> invalid_arg (Printf.sprintf "Persist.policy_of_string: %S (want eager|lossy|torn)" s)

type cache = {
  policy : policy;
  flush_cost : int; (* simulated steps per flush/fence barrier *)
  mutable next_id : int;
  mutable dirty_lines : line list; (* exactly the lines with owner <> None *)
}

and line = {
  id : int;
  cache : cache;
  mutable owner : int option; (* pid of the latest writer; None = clean *)
  persist_now : unit -> unit; (* durable copy <- volatile copy *)
  revert_now : unit -> unit; (* volatile copy <- durable copy *)
  touch : unit -> unit; (* owner's fingerprint-cache invalidation hook *)
}

let create ?(flush_cost = 1) policy =
  if flush_cost < 1 then
    invalid_arg (Printf.sprintf "Persist.create: flush_cost %d < 1" flush_cost);
  { policy; flush_cost; next_id = 0; dirty_lines = [] }

let policy c = c.policy
let flush_cost c = c.flush_cost
let owner l = l.owner
let cache_of l = l.cache

(* The ambient cache for the current domain: read only while a system
   is being built (mirror of the [Heap] arena). *)
let key : cache option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key
let restore saved = Domain.DLS.set key saved

(* The step context: which (cache, pid) is executing a simulator step
   right now on this domain.  [Sim.step_proc] brackets each step of a
   cache-backed system with it; writes performed outside any step
   (set-up [poke]s) see no context and persist immediately. *)
let ctx : (cache * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let in_step c pid f =
  Domain.DLS.set ctx (Some (c, pid));
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx None) f

let no_touch () = ()

(* The flush cost of the system executing the current step; 1 outside
   any step and in the steps of a cache-less system. *)
let step_flush_cost () = match Domain.DLS.get ctx with Some (c, _) -> c.flush_cost | None -> 1

(* A line joins the cache of the system executing the current step (an
   object created lazily) or, outside any step, the ambient cache (a
   build). *)
let attach ?(touch = no_touch) ~persist ~revert () =
  let cache = match Domain.DLS.get ctx with Some (c, _) -> Some c | None -> current () in
  match cache with
  | None -> None
  | Some c when c.policy = Eager -> None (* write-through: no shadow copy needed *)
  | Some c ->
      let l =
        { id = c.next_id; cache = c; owner = None; persist_now = persist; revert_now = revert; touch }
      in
      (* Journal the id allocation: a rolled-back branch must hand out
         the same line ids on re-execution (the Torn crash rule keys on
         them), exactly like [Footprint] oids. *)
      if Undo.recording () then begin
        let id = l.id in
        Undo.log (fun () -> c.next_id <- id)
      end;
      c.next_id <- c.next_id + 1;
      Some l

let unlist l = l.cache.dirty_lines <- List.filter (fun l' -> l' != l) l.cache.dirty_lines

(* A write just landed on [l]'s volatile copy. *)
let dirty l =
  match Domain.DLS.get ctx with
  | Some (_, pid) ->
      if Undo.recording () then begin
        let ow = l.owner in
        if ow = None then
          Undo.log (fun () ->
              l.owner <- None;
              unlist l;
              l.touch ())
        else Undo.log (fun () -> l.owner <- ow; l.touch ())
      end;
      if l.owner = None then l.cache.dirty_lines <- l :: l.cache.dirty_lines;
      l.owner <- Some pid;
      l.touch ()
  | None ->
      (* outside any simulated step: set-up / checker writes are durable *)
      l.persist_now ();
      if l.owner <> None then begin
        if Undo.recording () then begin
          let ow = l.owner in
          let old = l.cache.dirty_lines in
          Undo.log (fun () ->
              l.owner <- ow;
              l.cache.dirty_lines <- old;
              l.touch ())
        end;
        l.owner <- None;
        unlist l;
        l.touch ()
      end

(* Write-back one line (the body of a flush barrier step).  Any process
   may flush any line, as on real hardware. *)
let flush_line l =
  if l.owner <> None then begin
    if Undo.recording () then begin
      let ow = l.owner in
      let old = l.cache.dirty_lines in
      Undo.log (fun () ->
          l.owner <- ow;
          l.cache.dirty_lines <- old;
          l.touch ())
    end;
    l.persist_now ();
    l.owner <- None;
    unlist l;
    l.touch ()
  end

(* Write-back every line last written by the process executing the
   current step (the body of a fence barrier step). *)
let fence_here () =
  match Domain.DLS.get ctx with
  | None -> ()
  | Some (c, pid) ->
      let mine, rest = List.partition (fun l -> l.owner = Some pid) c.dirty_lines in
      if mine <> [] && Undo.recording () then begin
        let owners = List.map (fun l -> (l, l.owner)) mine in
        let old = c.dirty_lines in
        Undo.log (fun () ->
            List.iter
              (fun (l, ow) ->
                l.owner <- ow;
                l.touch ())
              owners;
            c.dirty_lines <- old)
      end;
      List.iter
        (fun l ->
          l.persist_now ();
          l.owner <- None;
          l.touch ())
        mine;
      c.dirty_lines <- rest

(* Crash semantics.  [crashes] is the number of crashes [pid] had
   suffered before this one (= [Sim.crash_count] at the call). *)
let on_crash c ~pid ~crashes =
  let mine, rest = List.partition (fun l -> l.owner = Some pid) c.dirty_lines in
  if mine <> [] && Undo.recording () then begin
    let owners = List.map (fun l -> (l, l.owner)) mine in
    let old = c.dirty_lines in
    Undo.log (fun () ->
        List.iter
          (fun (l, ow) ->
            l.owner <- ow;
            l.touch ())
          owners;
        c.dirty_lines <- old)
  end;
  List.iter
    (fun l ->
      (match c.policy with
      | Eager -> () (* unreachable: eager caches create no lines *)
      | Lossy -> l.revert_now ()
      | Torn -> if (l.id + crashes) mod 2 = 0 then l.persist_now () else l.revert_now ());
      l.owner <- None;
      l.touch ())
    mine;
  c.dirty_lines <- rest

let dirty_count c = List.length c.dirty_lines

(* Build under [policy]: run [f] with a fresh ambient cache of that
   policy -- none at all for eager at cost 1 -- and restore the
   previously ambient cache (if any) afterwards. *)
let scoped ?(flush_cost = 1) p f =
  let fresh = if p = Eager && flush_cost = 1 then None else Some (create ~flush_cost p) in
  let saved = current () in
  restore fresh;
  Fun.protect ~finally:(fun () -> restore saved) f
