(* Recoverable replicated log over per-slot recoverable-consensus
   instances; see the interface for the architecture overview.

   The shared state is three layers, all in the simulated non-volatile
   heap:

   - [tc.(slot)]: one fresh Figure 2 team-consensus instance per slot
     (its recording object and proposal registers), deciding the slot's
     value;
   - [decided.(slot)]: the chain itself -- a register caching the slot's
     decision so recovery can replay it without re-running consensus;
   - [votes.(pid)]: the quorum counter (modeled on Wasp's QC module):
     process [pid]'s durably completed prefix length.  The committed
     prefix is the largest [li] such that a quorum of processes have a
     durable vote >= [li] (QCReached/QCMax), computed over the durable
     copies only -- volatile progress does not commit anything.

   Barrier discipline (in a system built with barriers on, see
   [Persist.scoped]): a slot's decision must be durable BEFORE the vote
   that advertises it.  Writing the decision uses a write +
   link-and-persist-read retry loop ([install_durable]) rather than
   write + flush: under [Lossy] a concurrent writer can take
   the cache line and crash between our write and our flush, in which
   case the revert discards our volatile write with its own and our
   flush would persist the reverted [None] -- the same absorbed-write
   hazard [Team_consensus.apply_o_durable] retries against.  The vote is
   private to its process (no other process ever writes [votes.(pid)]),
   so a plain write + flush is enough there.  [vote_first] deliberately
   inverts the order -- vote flushed before the decision is durable --
   as a negative control: the explorer exhibits a committed slot whose
   decision a crash then un-persists.  Built with barriers off, every
   barrier takes no step and every durable read is a plain read. *)

open Rcons_runtime
module TC = Rcons_algo.Team_consensus
module Certificate = Rcons_check.Certificate
module History = Rcons_history.History
module Conditions = Rcons_history.Conditions

type t = {
  slots : int;
  size_a : int;
  size_b : int;
  n : int;
  quorum : int;
  vote_first : bool;
  tc : int TC.t array;
  decided : int option Cell.t array;
  votes : int Cell.t array;
  (* Heap-registered meta-observations: the explorer's invariants read
     them, so two executions share a fingerprint only when these agree
     too (same contract as [Outputs]). *)
  obs : int option array array; (* obs.(pid).(slot): last value observed *)
  obs_conflict : bool ref;
  watermark : int ref; (* highest committed prefix the checker has seen *)
  obs_slot : Heap.slot option; (* fingerprint-cache slot of [obs] *)
  wm_slot : Heap.slot option; (* ... of [(obs_conflict, watermark)] *)
  (* Unregistered instrumentation, consumed only by the random harness
     and the bench (never by explorer invariants). *)
  history : (int Conditions.log_op, int) History.t;
  mutable trace : int list; (* committed prefix sampled at each crash, newest first *)
  tags : int option array array;
  responded : bool array array;
  recovery_steps : int array;
  recoveries : int array;
  entered : bool array;
}

(* One proposal value per (team, slot): every member of a team proposes
   the same value for a slot, so the certificate's symmetry classes
   remain sound for the symmetry-reducing explorer. *)
let proposal_a slot = ((slot + 1) * 1000) + 111
let proposal_b slot = ((slot + 1) * 1000) + 222
let proposal t ~pid ~slot = if pid < t.size_a then proposal_a slot else proposal_b slot

let create ?(faithful = true) ?(vote_first = false) ~slots cert =
  if slots < 1 then invalid_arg "Rlog.create: slots must be >= 1";
  let size_a, size_b = Certificate.recording_teams cert in
  let n = size_a + size_b in
  let tc = Array.init slots (fun _ -> TC.create ~faithful cert) in
  let decided = Array.init slots (fun _ -> Cell.make None) in
  let votes = Array.init n (fun _ -> Cell.make 0) in
  let obs = Array.init n (fun _ -> Array.make slots None) in
  let obs_conflict = ref false in
  let watermark = ref 0 in
  (* [obs] is pid-indexed, so a symmetry snapshot relabels its rows,
     exactly like the [Outputs] log. *)
  let obs_slot =
    Heap.register_sym_c (fun perm ->
        match perm with
        | None -> Heap.digest obs
        | Some perm ->
            let a = Array.make n [||] in
            Array.iteri (fun i row -> a.(perm.(i)) <- row) obs;
            Heap.digest a)
  in
  (* The conflict flag and the checker's watermark are part of the state
     the invariants read; registering them keeps deduplication sound
     (the watermark is redundant with the durable votes on correct runs,
     so it does not grow the state space there). *)
  let wm_slot = Heap.register_c (fun () -> Heap.digest (!obs_conflict, !watermark)) in
  {
    slots;
    size_a;
    size_b;
    n;
    quorum = (n / 2) + 1;
    vote_first;
    tc;
    decided;
    votes;
    obs;
    obs_conflict;
    watermark;
    obs_slot;
    wm_slot;
    history = History.create ();
    trace = [];
    tags = Array.init n (fun _ -> Array.make slots None);
    responded = Array.init n (fun _ -> Array.make slots false);
    recovery_steps = Array.make n 0;
    recoveries = Array.make n 0;
    entered = Array.make n false;
  }

let num_procs t = t.n
let teams t = (t.size_a, t.size_b)

(* --- instrumentation (meta-observations, not shared-memory steps) --- *)

(* The meta-observations run in process bodies between steps (the
   watermark in the checker), so every one goes through [Undo.aside];
   mutations of heap-registered state re-dirty their cache slots. *)

let set a i v =
  Undo.aside (fun () ->
      let old = a.(i) in
      a.(i) <- v;
      fun () -> a.(i) <- old)

(* A history append: the event list is immutable, so the saved pair
   undoes it. *)
let on_history t f =
  Undo.aside (fun () ->
      let s = History.save t.history in
      f t.history;
      fun () -> History.restore t.history s)

let observe t pid slot v =
  Undo.aside (fun () ->
      let old = t.obs.(pid).(slot) and oldc = !(t.obs_conflict) in
      (match old with
      | Some w when w <> v ->
          t.obs_conflict := true;
          Heap.touch t.wm_slot
      | _ -> ());
      t.obs.(pid).(slot) <- Some v;
      Heap.touch t.obs_slot;
      fun () ->
        t.obs.(pid).(slot) <- old;
        t.obs_conflict := oldc;
        Heap.touch t.obs_slot;
        Heap.touch t.wm_slot)

(* An APPEND interrupted by a crash and completed by recovery is ONE
   operation whose response arrives late, so the tag is allocated once
   per (pid, slot) and survives restarts. *)
let invoke_once t pid slot prop =
  if t.tags.(pid).(slot) = None then
    Undo.aside (fun () ->
        let s = History.save t.history in
        t.tags.(pid).(slot) <-
          Some (History.invoke t.history ~pid (Conditions.Append { slot; value = prop }));
        fun () ->
          History.restore t.history s;
          t.tags.(pid).(slot) <- None)

let respond_once t pid slot v =
  if not t.responded.(pid).(slot) then begin
    Option.iter
      (fun tag -> on_history t (fun h -> History.respond h ~pid ~tag v))
      t.tags.(pid).(slot);
    set t.responded.(pid) slot true
  end

(* A durability marker: the barriers before it made the APPEND's effect
   durable, so only a system built with barriers on records one. *)
let persist_marker t pid slot =
  if Persist.barriers () then
    Option.iter
      (fun tag -> on_history t (fun h -> History.persist h ~pid ~tag))
      t.tags.(pid).(slot)

(* --- the process body --- *)

(* Durably install [Some v]: write, then link-and-persist read until the
   durable copy actually holds a decision (see the header for why a
   plain write + flush is not enough under [Lossy]).  Just the write in
   a system built with barriers off. *)
let rec install_durable cell v =
  Cell.write cell (Some v);
  if Persist.barriers () && Cell.read_persist cell = None then install_durable cell v

let append t pid slot =
  let team, tslot =
    if pid < t.size_a then (Rcons_spec.Team.A, pid) else (Rcons_spec.Team.B, pid - t.size_a)
  in
  let prop = proposal t ~pid ~slot in
  invoke_once t pid slot prop;
  let v = t.tc.(slot).TC.decide team tslot prop in
  let write_decided () = install_durable t.decided.(slot) v in
  let write_vote () =
    Cell.write t.votes.(pid) (slot + 1);
    Cell.flush t.votes.(pid)
  in
  if t.vote_first then (
    write_vote ();
    write_decided ())
  else (
    write_decided ();
    write_vote ());
  observe t pid slot v;
  respond_once t pid slot v;
  persist_marker t pid slot

let body t pid () =
  if t.entered.(pid) then set t.recoveries pid (t.recoveries.(pid) + 1)
  else set t.entered pid true;
  (* Recovery: my durable vote bounds the prefix I completed; replay
     those slots from the chain instead of re-running consensus.  A slot
     inside the prefix whose decision is unreadable (the [vote_first]
     bug, or a barrier-free run) falls through to a full re-append. *)
  let k = min (Cell.read_persist t.votes.(pid)) t.slots in
  for slot = 0 to t.slots - 1 do
    let replayed =
      slot < k
      &&
      match Cell.read_persist t.decided.(slot) with
      | Some v ->
          set t.recovery_steps pid (t.recovery_steps.(pid) + 1);
          observe t pid slot v;
          respond_once t pid slot v;
          persist_marker t pid slot;
          true
      | None -> false
    in
    if not replayed then append t pid slot
  done

let instance ?faithful ?vote_first ~slots cert =
  let t = create ?faithful ?vote_first ~slots cert in
  (t, Sim.create ~n:t.n (body t))

(* --- checking --- *)

let committed t =
  let durable = Array.map Cell.peek_persisted t.votes in
  let reached li =
    Array.fold_left (fun c v -> if v >= li then c + 1 else c) 0 durable >= t.quorum
  in
  let rec go li = if li < t.slots && reached (li + 1) then go (li + 1) else li in
  go 0

let decided_value t ~slot =
  if slot < 0 || slot >= t.slots then invalid_arg "Rlog.decided_value: slot out of range";
  Cell.peek t.decided.(slot)

let recovery_steps t = Array.copy t.recovery_steps
let recoveries t = Array.copy t.recoveries
let history t = t.history

let check_exn ~fail t =
  if !(t.obs_conflict) then
    fail "log agreement violated: a process observed two different values for one slot";
  for slot = 0 to t.slots - 1 do
    let vals =
      Array.fold_left
        (fun acc row -> match row.(slot) with Some v when not (List.mem v acc) -> v :: acc | _ -> acc)
        [] t.obs
    in
    (match vals with
    | v :: w :: _ ->
        fail (Printf.sprintf "log agreement violated: slot %d observed as both %d and %d" slot w v)
    | _ -> ());
    List.iter
      (fun v ->
        if v <> proposal_a slot && v <> proposal_b slot then
          fail (Printf.sprintf "log validity violated: slot %d decided %d, not a proposal" slot v))
      vals
  done;
  let c = committed t in
  if c < !(t.watermark) then
    fail (Printf.sprintf "committed prefix regressed: %d after %d" c !(t.watermark));
  if c <> !(t.watermark) then
    (* Checker state is fingerprinted (see [create]), so it rolls back
       with the rest of the simulation. *)
    Undo.aside (fun () ->
        let old = !(t.watermark) in
        t.watermark := c;
        Heap.touch t.wm_slot;
        fun () ->
          t.watermark := old;
          Heap.touch t.wm_slot);
  for slot = 0 to c - 1 do
    if Cell.peek_persisted t.decided.(slot) = None then
      fail (Printf.sprintf "slot %d is committed but its decision is not durable" slot)
  done

(* A crash marker and a committed-prefix sample, journaled together:
   the sample is what a weak-persistency crash could make regress. *)
let note_crash t ~pid =
  Undo.aside (fun () ->
      let s = History.save t.history and trace = t.trace in
      History.crash t.history ~pid;
      t.trace <- committed t :: trace;
      fun () ->
        History.restore t.history s;
        t.trace <- trace)

let committed_trace t = List.rev (committed t :: t.trace)

let verdict t =
  Conditions.prefix_durability ~committed_trace:(committed_trace t) t.history
