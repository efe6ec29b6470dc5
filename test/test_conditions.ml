(* Tests of the crash-aware correctness conditions (Section 4): strict
   vs recoverable linearizability, including the paper's claim that
   without volatile shared memory the universal construction achieves
   only the weaker condition. *)

open Rcons_history

type op = Inc | Get

let counter_spec : (int, op, int) Linearizability.spec =
  {
    init = 0;
    apply = (fun s op -> match op with Inc -> (s + 1, s + 1) | Get -> (s, s));
    equal_resp = ( = );
  }

let build script =
  let h = History.create () in
  let tags = Hashtbl.create 8 in
  List.iter
    (function
      | `Inv (pid, key, op) -> Hashtbl.replace tags key (History.invoke h ~pid op)
      | `Res (pid, key, resp) -> History.respond h ~pid ~tag:(Hashtbl.find tags key) resp
      | `Crash pid -> History.crash h ~pid)
    script;
  h

(* An operation completed by recovery AFTER observable later activity:
   recoverably linearizable, NOT strictly linearizable.  p0's Inc is
   pending at its crash; p1's Get = 0 responds after the crash, forcing
   the Inc after the Get in real... no: the Get's 0 allows Inc later --
   strictness instead requires the Inc before the crash, and the Get
   completing strictly after the crash must then see 1. *)
let test_strict_rejects_post_crash_effect () =
  let h =
    build
      [
        `Inv (0, "i", Inc);
        `Crash 0;
        `Inv (1, "g", Get);
        `Res (1, "g", 0);
        `Res (0, "i", 1);
        (* recovery completed the Inc after the Get observed 0 *)
      ]
  in
  Alcotest.(check bool) "recoverable" true (Conditions.recoverably_linearizable counter_spec h);
  Alcotest.(check bool) "not strict" false (Conditions.strictly_linearizable counter_spec h)

let test_strict_accepts_pre_crash_effect () =
  let h =
    build
      [
        `Inv (0, "i", Inc);
        `Crash 0;
        `Inv (1, "g", Get);
        `Res (1, "g", 1);
        (* the Inc took effect before the crash; recovery just returns it *)
        `Res (0, "i", 1);
      ]
  in
  let v = Conditions.classify counter_spec h in
  Alcotest.(check bool) "recoverable" true v.Conditions.recoverable;
  Alcotest.(check bool) "strict" true v.Conditions.strict

let test_strict_equals_plain_without_crashes () =
  let h =
    build
      [ `Inv (0, "a", Inc); `Inv (1, "b", Get); `Res (1, "b", 1); `Res (0, "a", 1) ]
  in
  Alcotest.(check bool) "plain" true (Conditions.recoverably_linearizable counter_spec h);
  Alcotest.(check bool) "strict too" true (Conditions.strictly_linearizable counter_spec h)

let test_strict_operations_tighten () =
  let h = build [ `Inv (0, "i", Inc); `Crash 0; `Res (0, "i", 1) ] in
  match Conditions.strict_operations h with
  | [ op ] -> Alcotest.(check int) "deadline is the crash index" 1 op.History.res
  | ops -> Alcotest.fail (Printf.sprintf "expected 1 op, got %d" (List.length ops))

let test_crash_after_response_irrelevant () =
  (* a crash after the operation completed does not tighten it *)
  let h = build [ `Inv (0, "i", Inc); `Res (0, "i", 1); `Crash 0 ] in
  match Conditions.strict_operations h with
  | [ op ] -> Alcotest.(check int) "deadline is the response" 1 op.History.res
  | _ -> Alcotest.fail "expected 1 op"

(* THE PAPER'S CLAIM, exhibited on the real construction: drive
   RUniversal so that p0 announces an Incr and crashes before it is
   appended; p1 then appends p0's operation via helping, observes its
   effect, and only later p0's recovery completes the invocation.  The
   recorded history is recoverably linearizable (always) but not
   strictly linearizable: the Incr's effect became visible after p0's
   crash. *)
let test_runiversal_not_strict () =
  let open Rcons_runtime in
  let found_witness = ref false in
  (* try a few controlled schedules: let p0 take k steps (announce but do
     not finish), crash it, run p1 to completion, then finish p0 *)
  let k = ref 3 in
  while (not !found_witness) && !k < 24 do
    let history = Rcons_history.History.create () in
    let scripts =
      [|
        [| Rcons_universal.Derived.Incr |];
        [| Rcons_universal.Derived.Incr; Rcons_universal.Derived.Get |];
      |]
    in
    let _, _, t = Rcons_universal.Script.system ~history Rcons_universal.Derived.counter scripts in
    for _ = 1 to !k do
      if not (Sim.finished t 0) then ignore (Sim.step_proc t 0)
    done;
    Sim.crash t 0;
    (* the simulator does not know about the high-level history; record
       the crash marker that the strictness analysis keys on *)
    Rcons_history.History.crash history ~pid:0;
    let guard = ref 0 in
    while (not (Sim.finished t 1)) && !guard < 10_000 do
      ignore (Sim.step_proc t 1);
      incr guard
    done;
    Adversary.round_robin t;
    let spec = Rcons_universal.Derived.lin_spec Rcons_universal.Derived.counter in
    let v = Rcons_history.Conditions.classify spec history in
    Alcotest.(check bool) "always recoverably linearizable" true v.Rcons_history.Conditions.recoverable;
    if not v.Rcons_history.Conditions.strict then found_witness := true;
    incr k
  done;
  Alcotest.(check bool)
    "some schedule witnesses recoverable-but-not-strict (Section 4's claim)" true !found_witness

(* --- durable windows agree with the full-history transformation --- *)

(* A random history over three processes, built through the public
   [History] API (so tags are dense): invocations, responses with
   arbitrary values (the verdicts are compared, not asserted), crashes
   that leave the op pending for a later recovery response, and persist
   markers on in-flight or already completed ops.  The cut falls
   anywhere from before the first tag to past the last, so windows see
   crashes on both sides of it, pending ops, and pre-cut ops that
   respond after it. *)
let random_history script =
  let h = History.create () in
  let inflight = Array.make 3 None and completed = Array.make 3 None in
  let invoke pid v =
    inflight.(pid) <- Some (History.invoke h ~pid (if v land 1 = 0 then Inc else Get))
  in
  let respond pid tag v =
    History.respond h ~pid ~tag v;
    inflight.(pid) <- None;
    completed.(pid) <- Some tag
  in
  List.iter
    (fun (kind, pid, v) ->
      match (kind, inflight.(pid)) with
      | (0 | 1), None -> invoke pid v
      | (0 | 1 | 2), Some tag -> respond pid tag v
      | 2, None -> invoke pid v
      | 3, _ -> History.crash h ~pid
      | _, Some tag -> History.persist h ~pid ~tag
      | _, None -> Option.iter (fun tag -> History.persist h ~pid ~tag) completed.(pid))
    script;
  h

let qcheck_window_matches_full =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"durable_window = durable_operations filtered past the cut (and same verdict)"
       QCheck2.Gen.(
         triple
           (list_size (int_range 0 40) (triple (int_bound 4) (int_bound 2) (int_bound 3)))
           (int_bound 30) (int_bound 3))
       (fun (script, cut, init) ->
         let h = random_history script in
         let tags = List.length (History.operations h) in
         let after = (cut mod (tags + 2)) - 1 in
         let window = Conditions.durable_window ~after h in
         let full =
           List.filter
             (fun (o : _ History.operation) -> o.op_tag > after)
             (Conditions.durable_operations h)
         in
         let shift =
           match (full, window) with f :: _, w :: _ -> f.History.inv - w.History.inv | _ -> 0
         in
         let same (f : _ History.operation) (w : _ History.operation) =
           f.op_tag = w.op_tag && f.op_pid = w.op_pid && f.op = w.op && f.resp = w.resp
           && f.inv = w.inv + shift
           && if f.res = max_int then w.res = max_int else f.res = w.res + shift
         in
         List.length full = List.length window
         && List.for_all2 same full window
         && Conditions.durably_linearizable_window counter_spec ~init window
            = Linearizability.check { counter_spec with init } full))

let suite =
  [
    Alcotest.test_case "strict rejects post-crash effects" `Quick
      test_strict_rejects_post_crash_effect;
    Alcotest.test_case "strict accepts pre-crash effects" `Quick test_strict_accepts_pre_crash_effect;
    Alcotest.test_case "strict = plain without crashes" `Quick test_strict_equals_plain_without_crashes;
    Alcotest.test_case "strict_operations tighten deadlines" `Quick test_strict_operations_tighten;
    Alcotest.test_case "crash after response irrelevant" `Quick test_crash_after_response_irrelevant;
    Alcotest.test_case "RUniversal: recoverable but NOT strict (Section 4)" `Quick
      test_runiversal_not_strict;
    qcheck_window_matches_full;
  ]
