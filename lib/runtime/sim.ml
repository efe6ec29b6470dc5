(* Simulated asynchronous shared-memory system with individual process
   crashes and recoveries (the paper's independent-crash model).

   Each process is ordinary OCaml code that performs the [Step] effect for
   every shared-memory access.  The effect handler suspends the process at
   each access, so a driver can interleave processes one shared-memory
   access at a time -- the standard notion of a "step".  Crashing a process
   discards its delimited continuation, which is exactly the model's loss
   of volatile local memory (including the program counter), and re-arms
   the process to re-execute its code from the beginning.  Shared objects
   live in the ordinary OCaml heap, which plays the role of the non-volatile
   memory: it is untouched by crashes.

   Process bodies must be deterministic (they are re-executed after each
   crash) and must not catch the internal [Crashed] exception. *)

type _ Effect.t +=
  | Step : string option * Rcons_spec.Footprint.t option * (unit -> 'a) -> 'a Effect.t

exception Crashed
(* Raised inside a discarded continuation to unwind it cleanly. *)

(* The rollback rebuild's feed source ([Sim.rollback]): while a rebuild
   is re-running a process body, [step] consumes the recorded value of
   each completed step directly -- no effect, no suspension -- and only
   performs (suspending the body where the original run was suspended)
   once the source is exhausted.  [no_feed] is the distinguished "not
   rebuilding" state, so the normal path pays one domain-local load and
   a physical-equality test. *)
let no_feed : unit -> Obj.t option = fun () -> None

let feed_key : (unit -> Obj.t option) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref no_feed)

(* [label] optionally names the shared object the access touches; the
   critical-execution explorer reads it off suspended processes to
   reproduce the "all processes are poised on the same object O" step of
   Theorem 14's proof.  [fp] is the access's step footprint ([None] =
   unknown, treated as conflicting with everything); the partial-order
   reduction reads it off suspended processes to decide which pending
   steps commute. *)
let step ?label ?fp f =
  let r = Domain.DLS.get feed_key in
  if !r == no_feed then Effect.perform (Step (label, fp, f))
  else
    match !r () with
    | Some v ->
        (* Feeding: the cast is safe because the body is deterministic,
           so the k-th step of a given run has one type and the recorded
           value came from that very position.  The step thunk is
           skipped: its heap effects were rolled back and must not
           re-apply.  Trace and vlog were journal-restored. *)
        Obj.obj v
    | None -> Effect.perform (Step (label, fp, f))

type proc = {
  id : int;
  body : unit -> unit;
  tracing : bool; (* record the volatile observation trace (fingerprinting)? *)
  mutable resume : (unit -> unit) option; (* None = this run has finished *)
  mutable discard : (unit -> unit) option; (* unwinds a pending continuation *)
  mutable pending_label : string option; (* label of the suspended access *)
  mutable pending_fp : Rcons_spec.Footprint.t option; (* footprint of same *)
  mutable started : bool; (* has taken a step since its last (re)start *)
  mutable crash_count : int;
  mutable step_count : int;
  mutable trace : Digest.t;
      (* running digest of the values this run's steps returned
         ([chain]); [trace0] on (re)start.  A deterministic body's local
         state -- continuation, program counter included -- is a function
         of that sequence, and the chain pins the sequence (up to MD5
         collisions), which is what makes [fingerprint_digest] a sound
         basis for deduplication. *)
  (* Undo-engine state.  One-shot continuations cannot be snapshotted,
     so [rollback] rebuilds a process's continuation by re-running its
     body and feeding back the values its completed steps returned this
     run ([vlog], recorded while an undo journal is installed): the step
     thunks themselves are skipped, so the rebuild costs
     O(steps since last restart) closure resumptions and no
     shared-memory re-execution.  After [s] step_procs since a
     (re)start the run has completed [s - 1] step thunks (the first
     step_proc only advances the body to its first suspension), so
     [vlen = s - 1]. *)
  mutable vlog : Obj.t array; (* values returned by this run's steps *)
  mutable vlen : int;
  mutable fin : bool; (* this run returned (retc); cleared by [arm] *)
  mutable stale : bool; (* journal rewound past this proc's continuation *)
  uh : Undo.handle; (* the creating domain's journal slot, captured once *)
}

type event = Stepped of int | Crash_event of int

type t = {
  procs : proc array;
  heap : Heap.t option; (* arena active at creation; None = no fingerprinting *)
  cache : Persist.cache option; (* write-back cache ambient at creation: the system's own *)
  mutable total_steps : int;
  mutable events : event list; (* most recent first *)
  mutable dead : bool; (* abandoned: stepping or crashing it is a bug *)
}

let push_vlog p v =
  let n = Array.length p.vlog in
  if p.vlen = n then begin
    let bigger = Array.make (max 8 (2 * n)) (Obj.repr ()) in
    Array.blit p.vlog 0 bigger 0 n;
    p.vlog <- bigger
  end;
  p.vlog.(p.vlen) <- v;
  p.vlen <- p.vlen + 1

(* The observation trace as a hash chain: [trace0] for an empty run, and
   [chain d v = MD5 (d ‖ Heap.digest v)] per completed step.  The
   previous link has a fixed width, so the split between it and the new
   value is unambiguous, and the chain is order- and
   segmentation-sensitive where a plain concatenation or XOR of the
   value digests is not.  The domain-local scratch holds both halves, so
   a link allocates only its 16-byte result. *)
let trace0 = Digest.string "rcons.trace"

let chain_scratch : bytes ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

let chain d v =
  let r = Domain.DLS.get chain_scratch in
  let rec go () =
    let b = !r in
    match Heap.digest_to_bytes b 16 v with
    | len ->
        Bytes.blit_string d 0 b 0 16;
        Digest.subbytes b 0 (16 + len)
    | exception Failure _ ->
        r := Bytes.create (2 * Bytes.length b);
        go ()
  in
  go ()

let run_body p =
  let open Effect.Deep in
  match_with p.body ()
    {
      retc =
        (fun () ->
          p.resume <- None;
          p.discard <- None;
          p.fin <- true);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Step (label, fp, f) ->
              Some
                (fun (k : (a, _) continuation) ->
                  p.pending_label <- label;
                  p.pending_fp <- fp;
                  p.resume <-
                    Some
                      (fun () ->
                        let v = f () in
                        if Undo.h_installed p.uh then push_vlog p (Obj.repr v);
                        if p.tracing then p.trace <- chain p.trace v;
                        continue k v);
                  p.discard <-
                    Some
                      (fun () ->
                        match discontinue k Crashed with
                        | () -> ()
                        | exception Crashed -> ()))
          | _ -> None);
    }

let arm p =
  p.started <- false;
  p.discard <- None;
  p.pending_label <- None;
  p.pending_fp <- None;
  p.trace <- trace0;
  p.vlen <- 0;
  p.fin <- false;
  p.stale <- false; (* a fresh starter needs no rebuild *)
  p.resume <- Some (fun () -> run_body p)

let create ~n body_of =
  let heap = Heap.current () in
  let cache = Persist.current () in
  let procs =
    Array.init n (fun id ->
        let p =
          {
            id;
            body = body_of id;
            tracing = heap <> None;
            resume = None;
            discard = None;
            pending_label = None;
            pending_fp = None;
            started = false;
            crash_count = 0;
            step_count = 0;
            trace = trace0;
            vlog = [||];
            vlen = 0;
            fin = false;
            stale = false;
            uh = Undo.handle ();
          }
        in
        arm p;
        p)
  in
  { procs; heap; cache; total_steps = 0; events = []; dead = false }

let num_procs t = Array.length t.procs
let cache t = t.cache

(* The LOGICAL run state.  A [stale] process (rolled back, continuation
   not yet rebuilt -- see [rebuild]) answers from its journal-restored
   [fin] flag: its [resume] still belongs to the abandoned branch. *)
let proc_finished p = if p.stale then p.fin else p.resume = None
let finished t i = proc_finished t.procs.(i)
let all_finished t = Array.for_all proc_finished t.procs
let started t i = t.procs.(i).started

(* The label of the shared access process [i] is suspended on, if its
   pending step was labelled; None for unstarted/finished processes. *)
let pending_label t i = t.procs.(i).pending_label

(* The footprint of the shared access process [i] is suspended on; None
   for unstarted processes (their first access is not yet known),
   finished processes, and accesses that did not declare one.  Callers
   must treat None as [Footprint.Global]. *)
let pending_footprint t i = if finished t i then None else t.procs.(i).pending_fp
let crash_count t i = t.procs.(i).crash_count
let step_count t i = t.procs.(i).step_count
let total_steps t = t.total_steps
let events t = List.rev t.events

let check_pid t i fn =
  if t.dead then
    invalid_arg (Printf.sprintf "Sim.%s: system has been abandoned" fn);
  if i < 0 || i >= Array.length t.procs then
    invalid_arg
      (Printf.sprintf "Sim.%s: pid %d out of range [0,%d)" fn i (Array.length t.procs))

(* Rebuild a process whose continuation a rollback invalidated.  The
   journal already restored every plain field to the mark's state; what
   cannot be restored is the one-shot continuation, so it is re-created
   by re-running the body with [feed_key] pointing at the restored value
   log: [step] hands each recorded value straight back without
   suspending (no effect, no thunk -- the heap effects were rolled back
   and must not re-apply), so the body runs in one stretch to exactly
   where the original run was suspended and performs one real effect
   there.  The rebuild runs with [Undo.feeding] set: journal recording
   is off, and non-idempotent instrumentation around steps checks the
   flag and skips itself. *)
let rebuild p =
  (match p.discard with Some d -> d () | None -> ());
  p.discard <- None;
  p.resume <- None;
  if p.fin then () (* the run had returned: nothing is suspended *)
  else if (not p.started) && p.vlen = 0 then
    (* freshly (re)armed and never stepped: recreate the starter *)
    p.resume <- Some (fun () -> run_body p)
  else begin
    let r = Domain.DLS.get feed_key in
    let idx = ref 0 in
    let take () =
      if !idx < p.vlen then begin
        let v = p.vlog.(!idx) in
        incr idx;
        Some v
      end
      else None
    in
    let saved = !r in
    r := take;
    Fun.protect
      ~finally:(fun () -> r := saved)
      (fun () -> Undo.with_feeding (fun () -> run_body p));
    if !idx < p.vlen then
      invalid_arg "Sim.rollback: rebuild desynchronized (body finished early)";
    if p.resume = None && not p.fin then
      invalid_arg "Sim.rollback: rebuild desynchronized (body did not re-suspend)"
  end;
  p.stale <- false

(* Run process [i] for one step (up to and including its next shared-memory
   access, or to completion).  Always returns true; stepping a finished
   process (check [finished] first) or an out-of-range pid raises
   [Invalid_argument] -- silently ignoring either hid scheduling bugs. *)
let step_proc t i =
  check_pid t i "step_proc";
  let p = t.procs.(i) in
  (* Rollback is lazy: it restores fields and marks procs stale but only
     rebuilds a continuation when the proc is actually stepped again --
     procs that are next crashed, or never touched before the enclosing
     rollback, never pay for a rebuild. *)
  (* A rebuild re-runs the body, whose barriers size themselves from the
     step context: it runs inside the system's cache, like a step. *)
  if p.stale then (
    match t.cache with None -> rebuild p | Some c -> Persist.in_step c i (fun () -> rebuild p));
  match p.resume with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Sim.step_proc: process %d has finished (crash it to restart it, or \
            consult [finished] before stepping)"
           i)
  | Some r ->
      (* One journal entry per step covers every plain field the step
         (and the continuation machinery it triggers) may change.  The
         continuation itself cannot be restored -- popping this entry
         marks the proc [stale] and [rollback] rebuilds it by feeding
         the restored [vlen] prefix of the value log. *)
      if Undo.h_recording p.uh then begin
        let started = p.started
        and sc = p.step_count
        and ts = t.total_steps
        and evs = t.events
        and lab = p.pending_label
        and fp = p.pending_fp
        and tr = p.trace
        and vl = p.vlen
        and fin = p.fin in
        Undo.h_log p.uh (fun () ->
            p.started <- started;
            p.step_count <- sc;
            t.total_steps <- ts;
            t.events <- evs;
            p.pending_label <- lab;
            p.pending_fp <- fp;
            p.trace <- tr;
            p.vlen <- vl;
            p.fin <- fin;
            p.stale <- true)
      end;
      p.resume <- None;
      p.discard <- None;
      p.started <- true;
      p.step_count <- p.step_count + 1;
      t.total_steps <- t.total_steps + 1;
      t.events <- Stepped i :: t.events;
      (match t.cache with None -> r () | Some c -> Persist.in_step c i r);
      true

(* Crash process [i]: its local state (continuation) is lost, the shared
   heap is untouched, and the process will re-execute its code from the
   beginning at its next step.  Crashing a finished process restarts it
   too, which models a process recovering and running its algorithm again
   after having already produced an output -- the crash-and-rerun tests
   and the simultaneous-crash model depend on this, so unlike
   [step_proc] a finished pid here is legal, not an error.  Under a
   non-eager write-back cache, the crash first applies the cache's loss
   semantics to the lines process [i] owns. *)
let crash t i =
  check_pid t i "crash";
  let p = t.procs.(i) in
  (* [arm] resets the run-local fields and the value log, and the
     re-armed run overwrites vlog slots from index 0 -- so a crash entry
     must snapshot the pre-crash vlog contents, not just its length.
     Popped after the re-armed run's own step entries (LIFO), it puts
     the pre-crash run back for re-feeding. *)
  if Undo.h_recording p.uh then begin
    let cc = p.crash_count
    and evs = t.events
    and started = p.started
    and lab = p.pending_label
    and fp = p.pending_fp
    and tr = p.trace
    and vl = p.vlen
    and vlog_saved = Array.sub p.vlog 0 p.vlen
    and fin = p.fin in
    Undo.h_log p.uh (fun () ->
        p.crash_count <- cc;
        t.events <- evs;
        p.started <- started;
        p.pending_label <- lab;
        p.pending_fp <- fp;
        p.trace <- tr;
        Array.blit vlog_saved 0 p.vlog 0 vl;
        p.vlen <- vl;
        p.fin <- fin;
        p.stale <- true)
  end;
  (match p.discard with Some d -> d () | None -> ());
  (match t.cache with
  | None -> ()
  | Some c -> Persist.on_crash c ~pid:i ~crashes:p.crash_count);
  p.crash_count <- p.crash_count + 1;
  t.events <- Crash_event i :: t.events;
  arm p

(* Crash every process at once: the simultaneous-crash model of Section 2. *)
let crash_all t =
  Array.iter (fun p -> crash t p.id) t.procs

(* Persist barriers.  Each is a labelled shared-memory step (or
   [flush_cost] of them, so a policy sweep can price barriers), and each
   takes the *same number of steps whatever the system's policy* --
   annotated algorithms keep an identical schedule-tree shape under
   eager, lossy and torn, which is what makes cross-policy comparisons
   of explorer statistics meaningful.  Under eager (no cache, or lines
   absent) the barrier steps are semantic no-ops.  The cost comes from
   the flushed line's cache or, for a fence, from the step context:
   never from whatever cache is ambient when the barrier runs. *)

let barrier_steps = function
  | Some l -> Persist.flush_cost (Persist.cache_of l)
  | None -> Persist.step_flush_cost ()

(* Write one location's cache line back to durable memory (CLWB).  [fp]
   is the owning container's flush footprint (flushes of distinct
   objects commute; an un-attributed flush conflicts with everything). *)
let flush ?fp line =
  let k = barrier_steps line in
  for i = 1 to k do
    step ~label:"flush" ?fp (fun () -> if i = k then Option.iter Persist.flush_line line)
  done

(* Write back every line the calling process owns (SFENCE + implicit
   write-backs: after this, none of the caller's earlier writes can be
   lost to its crash). *)
let fence () =
  let k = barrier_steps None in
  for i = 1 to k do
    step ~label:"fence" (fun () -> if i = k then Persist.fence_here ())
  done

(* Release every pending continuation without re-arming the processes.
   Dropping a captured effect continuation without discontinuing it leaks
   its fiber stack (fiber stacks live outside the OCaml heap), so code
   that builds and abandons many systems -- the exhaustive explorer in
   particular -- must call this before dropping a system. *)
let abandon t =
  if not t.dead then begin
    Array.iter
      (fun p ->
        (match p.discard with Some d -> d () | None -> ());
        p.discard <- None;
        p.resume <- None)
      t.procs;
    t.dead <- true
  end

(* --- checkpoint/restore (the explorer's rollback strategy) --- *)

type mark = int

let mark t =
  if t.dead then invalid_arg "Sim.mark: system has been abandoned";
  Undo.mark ()

(* Popping the journal restores every plain field and marks the procs
   whose entries were popped [stale]; their continuations are rebuilt
   lazily ([rebuild], from [step_proc]) because most rolled-back procs
   are next crashed, rolled back further, or never touched again --
   eager rebuilding here would pay a fiber discard+create per proc per
   rollback for work that is usually thrown away. *)
let rollback t m =
  if t.dead then invalid_arg "Sim.rollback: system has been abandoned";
  Undo.rollback_to m

(* Canonical fingerprint of the global state: per-process control state
   plus the non-volatile heap snapshot.

   Per process it records the cumulative step and crash counts, whether
   the current run has finished, and for unfinished runs the volatile
   observation trace (the 16-byte [chain] of its step results) and the
   label it is poised on.  The trace pins the process's whole local
   state: a deterministic body re-executed from its last (re)start
   against the same sequence of step results reaches the same
   continuation.  Because the chain is fixed-width, a section costs
   O(1) however long the run has been going.  The cumulative counts
   make the state graph graded -- every schedule choice increments
   exactly one of them, so the depth of a state is a function of its
   fingerprint and the deduplicating explorer's statistics are
   schedule-order independent.

   Equal fingerprints therefore imply equal futures: same pending
   continuations, same shared heap, same remaining crash budget
   (crashes used = sum of the per-process crash counts).

   [graded = false] drops the cumulative per-process counts and records
   only the total number of crashes used: the remaining crash budget is
   all a state's futures depend on, not how the spent crashes were
   distributed or how many steps each process wasted before crashing.
   Many graded states collapse (everything about a crashed run's
   discarded prefix disappears), which is what the partial-order-reduced
   explorer exploits; the price is that the state graph is no longer
   graded by depth, so ungraded fingerprints are only used by the
   sequential reduced modes.  The format is prefixed so graded and
   ungraded fingerprints can never collide.

   [perm] relabels processes ([perm.(old) = new]): process sections are
   emitted in relabeled order and the heap snapshot relabels every
   pid-bearing digest.  The symmetry-canonicalizing explorer takes the
   minimum over a group of relabelings; [None] is the identity. *)
let arena_of t =
  match t.heap with
  | Some a -> a
  | None ->
      invalid_arg "Sim.fingerprint_digest: system was not created under an active Heap arena"

(* One process's section, starting with its '|' separator.  The chain
   has a fixed width, so the variable-width label can follow it without
   a length prefix. *)
let add_proc_section ~graded b p =
  Buffer.add_char b '|';
  if graded then begin
    Buffer.add_string b (string_of_int p.step_count);
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int p.crash_count)
  end;
  (* [proc_finished], not [p.resume]: a stale proc's [resume] belongs to
     the abandoned branch, but [fin]/[started]/[pending_label]/[trace]
     are journal-restored, so the section stays byte-identical to a
     rebuilt (or replayed) proc's. *)
  if proc_finished p then Buffer.add_char b 'F'
  else begin
    Buffer.add_char b (if p.started then 'R' else 'I');
    Buffer.add_string b p.trace;
    match p.pending_label with
    | None -> ()
    | Some l ->
        Buffer.add_char b '#';
        Buffer.add_string b l
  end

let add_ungraded_prefix b t =
  Buffer.add_char b 'U';
  Buffer.add_string b
    (string_of_int (Array.fold_left (fun acc p -> acc + p.crash_count) 0 t.procs))

let fingerprint_into ?(graded = true) ?perm b t =
  let arena = arena_of t in
  let n = Array.length t.procs in
  (* [inv.(new_pid) = old_pid]: section [j] of the relabeled fingerprint
     describes the process relabeled to [j]. *)
  let proc_at =
    match perm with
    | None -> fun j -> t.procs.(j)
    | Some p ->
        let inv = Array.make n 0 in
        Array.iteri (fun old_pid new_pid -> inv.(new_pid) <- old_pid) p;
        fun j -> t.procs.(inv.(j))
  in
  if not graded then add_ungraded_prefix b t;
  for j = 0 to n - 1 do
    add_proc_section ~graded b (proc_at j)
  done;
  Buffer.add_char b '@';
  Heap.snapshot_into ?perm b arena

(* All process relabelings that permute pids within each class of
   [classes] and fix every other pid, as [perm] arrays for
   [fingerprint_into]; the identity is always first.  Classes declare
   which processes are interchangeable (same code, same input — the
   team members of Figure 2, the leaves of a tournament); soundness of
   quotienting by them is the caller's obligation. *)
let relabelings ~classes n =
  List.iter
    (fun cls ->
      List.iter
        (fun p ->
          if p < 0 || p >= n then
            invalid_arg
              (Printf.sprintf "Sim.relabelings: pid %d out of range [0,%d)" p n))
        cls)
    classes;
  let all = List.concat classes in
  if List.length (List.sort_uniq compare all) <> List.length all then
    invalid_arg "Sim.relabelings: symmetry classes overlap";
  (* Permutations of [xs] with [xs] itself first (elements are picked in
     list order, so the head of the result is the unpermuted list). *)
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (fun rest -> x :: rest) (permutations (List.filter (( <> ) x) xs)))
          xs
  in
  let id () = Array.init n Fun.id in
  List.fold_left
    (fun perms cls ->
      let arrangements = permutations cls in
      List.concat_map
        (fun perm ->
          List.map
            (fun arrangement ->
              let p = Array.copy perm in
              (* class member at position k is relabeled to the class
                 member originally at position k *)
              List.iter2 (fun old_pid new_pid -> p.(old_pid) <- new_pid) arrangement cls;
              p)
            arrangements)
        perms)
    [ id () ] classes

(* The one state-digest entry point.  The deduplicating explorer hashes
   every state it expands, so the fingerprint bytes are scratch -- only
   the 16-byte MD5 survives (as the visited-set key and checkpoint
   entry).  A domain-local buffer is reused across all the states a
   domain expands. *)
let scratch : Buffer.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Buffer.create 1024)

let fingerprint_digest ?graded ?perm t =
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  fingerprint_into ?graded ?perm b t;
  Digest.bytes (Buffer.to_bytes b)
