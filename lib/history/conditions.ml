(* Crash-aware correctness conditions from Section 4 of the paper.

   The paper discusses several safety conditions for the crash-recovery
   setting and places RUniversal among them:

   - *Strict linearizability* (Aguilera and Frolund): an operation in
     progress when its process crashes is either linearized before the
     crash or not at all.  With volatile shared memory available,
     Berryhill, Golab and Tripunitara's construction achieves it; without
     volatile memory (our setting: everything is non-volatile and
     recovery completes interrupted operations) only weaker conditions
     hold -- and indeed the test suite exhibits RUniversal histories that
     are recoverably but not strictly linearizable.

   - *Recoverable linearizability* / nesting-safe recoverable
     linearizability: a crashed operation may be linearized within an
     interval that includes its recovery attempts; in our histories the
     recovery's response closes the original invocation, so this is the
     plain {!Linearizability.check} on the recorded history.

   - *Durable linearizability* (Izraelevitz, Mendes, Scott): the effects
     of operations persisted before a crash survive it.  Under the seed
     memory model (write-through: every write durable at its step) this
     coincided with the plain check; with the [Persist] write-back cache
     the distinction is real: a completed operation whose effect was
     never written back may vanish at a crash.  [durable_operations]
     implements the per-process-crash adaptation: an operation with a
     [Persist] marker is MANDATORY in the linearization (its effect is
     durable, so later reads must see it); a completed operation without
     one MAY vanish if any crash occurs after its invocation (we cannot
     know from the history alone whose cache line held its effect --
     helpers write on each other's behalf in RUniversal -- so any crash
     is conservatively allowed to have destroyed it; this avoids false
     violation reports), and MUST appear when no crash follows (nothing
     could have destroyed it).

   This module implements the strict variant by re-interpreting each
   operation's latest admissible linearization point: its response index,
   or the first crash of its process after the invocation, whichever is
   earlier. *)

(* The first crash of [pid] after event index [i], if any. *)
let first_crash_after events pid i =
  let rec go idx = function
    | [] -> None
    | History.Crash { pid = p } :: _ when p = pid && idx > i -> Some idx
    | _ :: rest -> go (idx + 1) rest
  in
  go 0 events

(* Tighten each operation's interval for strict linearizability: an
   operation whose process crashed while it was pending must linearize
   before that crash.  Operations whose process never crashed mid-flight
   are unchanged. *)
let strict_operations history =
  let events = History.events history in
  History.operations history
  |> List.map (fun (op : _ History.operation) ->
         match first_crash_after events op.op_pid op.inv with
         | Some crash_idx when crash_idx < op.res ->
             (* the crash hit while the operation was pending: its
                linearization deadline is the crash, and since the effect
                must be visible before the crash, later responses serve
                only as reads of the recorded result *)
             { op with res = crash_idx }
         | Some _ | None -> op)

let strictly_linearizable spec history =
  Linearizability.check spec (strict_operations history)

let recoverably_linearizable = Linearizability.check_history

(* Durable linearizability as an operation transformation over the same
   Wing & Gong oracle: persisted operations keep their response
   constraint; un-persisted completed operations followed by any crash
   become optional-with-free-response ([resp = None], [res = max_int] --
   exactly how the oracle treats pending operations: they may take
   effect with any response, or not at all).  [persisted] holds the tags
   with a [Persist] marker, [last_crash] the index of the last crash
   (-1 if none). *)
let durable_op persisted last_crash (op : _ History.operation) =
  if op.resp = None then op (* pending: already optional *)
  else if Hashtbl.mem persisted op.op_tag then op (* durable: mandatory *)
  else if last_crash > op.inv then { op with resp = None; res = max_int }
  else op

let durable_operations history =
  let persisted = Hashtbl.create 16 and last_crash = ref (-1) in
  List.iteri
    (fun i -> function
      | History.Crash _ -> last_crash := i
      | Persist { tag; _ } -> Hashtbl.replace persisted tag ()
      | Invoke _ | Response _ -> ())
    (History.events history);
  List.map (durable_op persisted !last_crash) (History.operations history)

let durably_linearizable spec history =
  Linearizability.check spec (durable_operations history)

(* One window of the durable transformation, for online checkers that
   cut a long-running history into <= 62-operation slices (the Wing &
   Gong bitmask bound): operations with tags <= [after] are the already
   checked prefix whose effects the caller bakes into the window's
   initial state.

   Tags are dense and increase with invocation order, so the window's
   operations are exactly those invoked from the Invoke of tag
   [after + 1] on: walking back from the newest event, that Invoke ends
   the walk (an Invoke of a smaller tag means nothing was invoked since
   the cut).  Only that suffix is read.  Its persist markers are the
   only ones that can name a window operation (a marker follows its
   invocation), and a crash before the suffix precedes every window
   operation's invocation, so the suffix's last crash decides
   optionality as the whole history's would.  Indices count from the
   suffix's first event: a constant shift of [durable_operations]',
   which the oracle's real-time order does not see. *)
let durable_window ~after history =
  let rec suffix acc = function
    | (History.Invoke { tag; _ } as ev) :: _ when tag = after + 1 -> ev :: acc
    | History.Invoke { tag; _ } :: _ when tag <= after -> acc
    | ev :: older -> suffix (ev :: acc) older
    | [] -> acc
  in
  let persisted = Hashtbl.create 16 and ops = Hashtbl.create 32 in
  let last_crash = ref (-1) and invoked = ref [] in
  List.iteri
    (fun i -> function
      | History.Invoke { pid; tag; op } ->
          Hashtbl.replace ops tag
            { History.op_pid = pid; op_tag = tag; op; resp = None; inv = i; res = max_int };
          invoked := tag :: !invoked
      | Response { tag; resp; _ } when tag > after -> (
          match Hashtbl.find_opt ops tag with
          | Some o -> Hashtbl.replace ops tag { o with resp = Some resp; res = i }
          | None -> invalid_arg "Conditions.durable_window: response without invocation")
      | Response _ -> () (* a pre-cut operation answered after the cut *)
      | Persist { tag; _ } -> Hashtbl.replace persisted tag ()
      | Crash _ -> last_crash := i)
    (suffix [] (History.rev_events history));
  List.rev_map (fun tag -> durable_op persisted !last_crash (Hashtbl.find ops tag)) !invoked

let durably_linearizable_window spec ~init window =
  Linearizability.check { spec with Linearizability.init } window

(* Classification of one history against the three conditions; strict
   implies recoverable (tighter intervals only restrict the search). *)
type verdict = { recoverable : bool; strict : bool; durable : bool }

let classify spec history =
  let recoverable = recoverably_linearizable spec history in
  let strict = recoverable && strictly_linearizable spec history in
  let durable = durably_linearizable spec history in
  { recoverable; strict; durable }

(* --- Prefix durability of the replicated-log API ---

   The recoverable replicated log ([Rcons_log.Rlog]) is a chain of
   consensus instances indexed by slot; its API-level contract has three
   parts, checked over the operation history the log records:

   - per-slot agreement: every APPEND response for one slot returns the
     same value (each slot is one consensus instance -- the first
     durably installed proposal wins and everyone adopts it);
   - no committed-prefix regression: the quorum-counter readout over
     durable votes never decreases (the harness samples it into
     [committed_trace] -- after crashes, where a weak-persistency model
     could revert an un-flushed vote, and at the end);
   - durable linearizability of the log as one object: APPENDs with a
     [History.Persist] marker are mandatory in the linearization,
     completed-but-unpersisted ones may vanish at a crash
     ({!durably_linearizable} over {!log_spec}). *)

type 'v log_op = Append of { slot : int; value : 'v }

(* Sequential specification of the log: APPEND to a decided slot adopts
   the decided value, APPEND to a free slot installs its proposal.  The
   state is the decided-slot map. *)
let log_spec () =
  {
    Linearizability.init = [];
    apply =
      (fun s (Append { slot; value }) ->
        match List.assoc_opt slot s with
        | Some w -> (s, w)
        | None -> ((slot, value) :: s, value));
    equal_resp = ( = );
  }

type log_verdict = { slot_agreement : bool; prefix_monotone : bool; durable_lin : bool }

let log_verdict_ok v = v.slot_agreement && v.prefix_monotone && v.durable_lin

let log_slot_agreement history =
  let responses =
    History.operations history
    |> List.filter_map (fun (op : _ History.operation) ->
           match (op.op, op.resp) with
           | Append { slot; _ }, Some v -> Some (slot, v)
           | _, None -> None)
  in
  List.for_all
    (fun (s, v) -> List.for_all (fun (s', v') -> s <> s' || v = v') responses)
    responses

let prefix_durability ~committed_trace history =
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | [] | [ _ ] -> true
  in
  {
    slot_agreement = log_slot_agreement history;
    prefix_monotone = monotone committed_trace;
    durable_lin = durably_linearizable (log_spec ()) history;
  }
