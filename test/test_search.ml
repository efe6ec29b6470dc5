(* Tests of the Q_X and R_{X,j} set computations (Definitions 2 and 4)
   against hand-computed values on small types. *)

open Rcons_spec
open Rcons_check

(* Hand-computed Q sets for S_3 with the canonical assignment of
   Proposition 21: q0 = (B,0), team A = {op_A}, team B = {op_B, op_B}.
   Q_A = {(A,0), (A,1), (A,2)} and Q_B = {(B,0), (B,1), (B,2)}. *)
let test_q_sets_s3 () =
  match Sn.make 3 with
  | Object_type.Pack (module T) ->
      let module S = Search.Make (T) in
      let opa, opb =
        match T.update_ops with [ a; b ] -> (a, b) | _ -> Alcotest.fail "ops"
      in
      let q0 = List.hd T.candidate_initial_states in
      let ms_a = S.multiset_of_list [ opa ] and ms_b = S.multiset_of_list [ opb; opb ] in
      let q_a = S.reachable ~q0 ~first:ms_a ~other:ms_b in
      let q_b = S.reachable ~q0 ~first:ms_b ~other:ms_a in
      Alcotest.(check int) "|Q_A| = 3" 3 (S.State_set.cardinal q_a);
      Alcotest.(check int) "|Q_B| = 3" 3 (S.State_set.cardinal q_b);
      Alcotest.(check bool) "disjoint" true S.State_set.(is_empty (inter q_a q_b));
      Alcotest.(check bool) "q0 in Q_B (wrap via op_B then op_A)" true (S.State_set.mem q0 q_b);
      Alcotest.(check bool) "q0 not in Q_A" false (S.State_set.mem q0 q_a)

(* Sticky bit, one process per team with different values:
   Q_A = {0-stuck}, Q_B = {1-stuck}. *)
let test_q_sets_sticky () =
  match Sticky_bit.t with
  | Object_type.Pack (module T) ->
      let module S = Search.Make (T) in
      let q0 = List.hd T.candidate_initial_states in
      let s0, s1 = match T.update_ops with [ a; b ] -> (a, b) | _ -> Alcotest.fail "ops" in
      let ms_a = S.multiset_of_list [ s0 ] and ms_b = S.multiset_of_list [ s1 ] in
      let q_a = S.reachable ~q0 ~first:ms_a ~other:ms_b in
      let q_b = S.reachable ~q0 ~first:ms_b ~other:ms_a in
      Alcotest.(check int) "|Q_A| = 1" 1 (S.State_set.cardinal q_a);
      Alcotest.(check int) "|Q_B| = 1" 1 (S.State_set.cardinal q_b);
      Alcotest.(check bool) "disjoint" true S.State_set.(is_empty (inter q_a q_b))

(* The 2-recording witness for the readable stack discovered during
   development: q0 = [0], team A = {push 1}, team B = {pop}.
   Q_A = {[1,0], [0]} and Q_B = {[], [1]}. *)
let test_q_sets_stack_witness () =
  let (module T) = Stack.spec ~domain:2 ~readable:true in
  let module S = Search.Make (T) in
  let ms_a = S.multiset_of_list [ Stack.Push 1 ] and ms_b = S.multiset_of_list [ Stack.Pop ] in
  let q_a = S.reachable ~q0:[ 0 ] ~first:ms_a ~other:ms_b in
  let q_b = S.reachable ~q0:[ 0 ] ~first:ms_b ~other:ms_a in
  Alcotest.(check bool) "[1;0] in Q_A" true (S.State_set.mem [ 1; 0 ] q_a);
  Alcotest.(check bool) "[0] in Q_A (pop after push returns to q0)" true (S.State_set.mem [ 0 ] q_a);
  Alcotest.(check bool) "[] in Q_B" true (S.State_set.mem [] q_b);
  Alcotest.(check bool) "[1] in Q_B" true (S.State_set.mem [ 1 ] q_b);
  Alcotest.(check int) "|Q_A| = 2" 2 (S.State_set.cardinal q_a);
  Alcotest.(check int) "|Q_B| = 2" 2 (S.State_set.cardinal q_b)

(* Multiset grouping. *)
let test_multiset_of_list () =
  match Sn.make 3 with
  | Object_type.Pack (module T) ->
      let module S = Search.Make (T) in
      let opa, opb = match T.update_ops with [ a; b ] -> (a, b) | _ -> Alcotest.fail "ops" in
      let ms = S.multiset_of_list [ opb; opa; opb ] in
      Alcotest.(check int) "two distinct ops" 2 (Array.length ms.S.ops);
      Alcotest.(check int) "total 3" 3 (S.total ms)

(* R-sets for test-and-set, hand-computed in the development notes:
   with both processes assigned TAS from q0 = false,
   R_{A, p_A} = {(false, true)}  (p_A goes first, possibly followed by B)
   R_{B, p_A} = {(true, true)}   (B went first, so A's TAS returns true) *)
let test_r_sets_tas () =
  match Test_and_set.t with
  | Object_type.Pack (module T) ->
      let module S = Search.Make (T) in
      let q0 = List.hd T.candidate_initial_states in
      let tas = List.hd T.update_ops in
      let ms = S.multiset_of_list [ tas ] in
      let r_a =
        S.responses ~q0 ~team_a:ms ~team_b:ms ~first:Team.A ~tracked_team:Team.A
          ~tracked_op:tas
      in
      let r_b =
        S.responses ~q0 ~team_a:ms ~team_b:ms ~first:Team.B ~tracked_team:Team.A
          ~tracked_op:tas
      in
      Alcotest.(check int) "|R_A| = 1" 1 (S.Pair_set.cardinal r_a);
      Alcotest.(check int) "|R_B| = 1" 1 (S.Pair_set.cardinal r_b);
      Alcotest.(check bool) "disjoint" true S.Pair_set.(is_empty (inter r_a r_b))

(* R-sets for the register: writes overwrite, so the tracked write's
   response (unit) and the possible final states overlap across teams. *)
let test_r_sets_register_overlap () =
  match Register.default with
  | Object_type.Pack (module T) -> (
      match T.update_ops with
      | [ w0; w1 ] ->
          let module S = Search.Make (T) in
          let q0 = List.hd T.candidate_initial_states in
          let ms_a = S.multiset_of_list [ w0 ] and ms_b = S.multiset_of_list [ w1 ] in
          let r_a =
            S.responses ~q0 ~team_a:ms_a ~team_b:ms_b ~first:Team.A ~tracked_team:Team.A
              ~tracked_op:w0
          in
          let r_b =
            S.responses ~q0 ~team_a:ms_a ~team_b:ms_b ~first:Team.B ~tracked_team:Team.A
              ~tracked_op:w0
          in
          Alcotest.(check bool) "R-sets overlap for a register" false
            S.Pair_set.(is_empty (inter r_a r_b))
      | _ -> Alcotest.fail "register universe")

(* The tracked instance must belong to its declared team. *)
let test_responses_rejects_missing_tracked () =
  match Sticky_bit.t with
  | Object_type.Pack (module T) -> (
      match T.update_ops with
      | [ s0; s1 ] ->
          let module S = Search.Make (T) in
          let q0 = List.hd T.candidate_initial_states in
          let ms_a = S.multiset_of_list [ s0 ] and ms_b = S.multiset_of_list [ s0 ] in
          Alcotest.check_raises "tracked not in team"
            (Invalid_argument "Search.responses: tracked operation not in its team") (fun () ->
              ignore
                (S.responses ~q0 ~team_a:ms_a ~team_b:ms_b ~first:Team.A
                   ~tracked_team:Team.B ~tracked_op:s1))
      | _ -> Alcotest.fail "ops")

(* Q_X is prefix-closed: every state reachable in k steps is reachable in
   <= k steps; spot-check that intermediate states are present. *)
let test_q_prefix_closed () =
  let (module T) = Stack.spec ~domain:2 ~readable:true in
  let module S = Search.Make (T) in
  let ms_a = S.multiset_of_list [ Stack.Push 0; Stack.Push 1 ] in
  let ms_b = S.multiset_of_list [ Stack.Push 0 ] in
  let q_a = S.reachable ~q0:[] ~first:ms_a ~other:ms_b in
  (* one-step states must be present alongside deeper ones *)
  Alcotest.(check bool) "[0] present" true (S.State_set.mem [ 0 ] q_a);
  Alcotest.(check bool) "[1] present" true (S.State_set.mem [ 1 ] q_a);
  Alcotest.(check bool) "[0;1] present" true (S.State_set.mem [ 0; 1 ] q_a);
  (* q0 itself is never in Q_X unless re-reached by updates *)
  Alcotest.(check bool) "q0 = [] not reachable with pushes only" false (S.State_set.mem [] q_a)

(* --- undo-engine mark/rollback (checkpoint/restore foundation) ------
   The explorer's rollback strategy rests on one contract, checked here
   directly against [Sim.mark]/[Sim.rollback] without the explorer in
   the way: rolling back to a mark restores the fingerprint (heap
   snapshot + per-process control state) byte-identically, across
   crash/recover cycles and flush/fence persist boundaries, under every
   persistency policy -- and the rolled-back system is live, not a
   corpse: it can be driven to completion again. *)

module USim = Rcons_runtime.Sim
module UCell = Rcons_runtime.Cell
module UHeap = Rcons_runtime.Heap
module UUndo = Rcons_runtime.Undo
module UPersist = Rcons_runtime.Persist

let with_undo_arena f =
  let saved = UHeap.current () in
  UHeap.activate (UHeap.create ());
  Fun.protect
    ~finally:(fun () ->
      match saved with Some a -> UHeap.activate a | None -> UHeap.deactivate ())
    (fun () ->
      UUndo.install ();
      Fun.protect ~finally:UUndo.uninstall f)

(* Two processes over a shared cell plus a private cell each; every body
   crosses a plain write, an explicit flush, a shared read-modify-write
   and a full fence, so marks taken anywhere straddle each kind of
   persist boundary. *)
let undo_sys () =
  let shared = UCell.make 0 in
  let privs = [| UCell.make 0; UCell.make 0 |] in
  USim.create ~n:2 (fun pid () ->
      UCell.write privs.(pid) (100 + pid);
      UCell.flush privs.(pid);
      UCell.write shared (1 + pid + UCell.read shared);
      USim.fence ();
      ignore (UCell.read shared))

let snap t =
  ( USim.fingerprint_digest t,
    USim.total_steps t,
    List.init (USim.num_procs t) (fun i ->
        (USim.step_count t i, USim.crash_count t i, USim.finished t i, USim.started t i)) )

let drive_to_completion t =
  while not (USim.all_finished t) do
    for pid = 0 to USim.num_procs t - 1 do
      if not (USim.finished t pid) then ignore (USim.step_proc t pid)
    done
  done

let test_rollback_boundaries policy () =
  UPersist.scoped policy (fun () ->
      with_undo_arena (fun () ->
          let t = undo_sys () in
          Fun.protect
            ~finally:(fun () -> USim.abandon t)
            (fun () ->
              let s0 = snap t in
              let m0 = USim.mark t in
              (* p0 across its private write + flush step, p1 armed *)
              ignore (USim.step_proc t 0);
              ignore (USim.step_proc t 0);
              ignore (USim.step_proc t 0);
              ignore (USim.step_proc t 1);
              let s1 = snap t in
              let m1 = USim.mark t in
              (* cross a crash/recover cycle and the fence *)
              USim.crash t 0;
              ignore (USim.step_proc t 0);
              ignore (USim.step_proc t 1);
              ignore (USim.step_proc t 1);
              USim.crash t 1;
              ignore (USim.step_proc t 1);
              USim.rollback t m1;
              Alcotest.(check bool) "state restored at inner mark" true (snap t = s1);
              (* the rebuilt continuations are live: finish the run *)
              drive_to_completion t;
              Alcotest.(check bool) "resumed run completes" true (USim.all_finished t);
              (* rollback below an earlier mark, past the whole run *)
              USim.rollback t m0;
              Alcotest.(check bool) "state restored at initial mark" true (snap t = s0))))

(* Rollback to a mark taken inside a recovered run: the journal must
   restore the post-crash continuation (including the value log the
   recovery re-accumulated), not the pre-crash one. *)
let test_rollback_recovered_run policy () =
  UPersist.scoped policy (fun () ->
      with_undo_arena (fun () ->
          let t = undo_sys () in
          Fun.protect
            ~finally:(fun () -> USim.abandon t)
            (fun () ->
              ignore (USim.step_proc t 0);
              ignore (USim.step_proc t 0);
              USim.crash t 0;
              ignore (USim.step_proc t 0);
              ignore (USim.step_proc t 0);
              let s = snap t in
              let m = USim.mark t in
              ignore (USim.step_proc t 0);
              ignore (USim.step_proc t 0);
              USim.crash t 0;
              ignore (USim.step_proc t 1);
              USim.rollback t m;
              Alcotest.(check bool) "recovered-run state restored" true (snap t = s);
              Alcotest.(check int) "crash count preserved at mark" 1 (USim.crash_count t 0);
              drive_to_completion t)))

(* qcheck: a random schedule prefix, a mark, a random continuation
   (steps and crashes), a rollback -- the fingerprint at the mark comes
   back byte-identical, for a random persistency policy. *)
let undo_apply_codes t codes =
  List.iter
    (fun x ->
      let pid = x mod 2 in
      if x mod 7 = 0 then (if USim.started t pid || USim.finished t pid then USim.crash t pid)
      else if not (USim.finished t pid) then ignore (USim.step_proc t pid))
    codes

let qcheck_rollback_fingerprint =
  let gen =
    QCheck2.Gen.(
      triple (int_bound 2)
        (list_size (int_range 0 12) (int_bound 999))
        (list_size (int_range 0 12) (int_bound 999)))
  in
  let print (pol, pre, post) =
    Printf.sprintf "policy=%d pre=[%s] post=[%s]" pol
      (String.concat ";" (List.map string_of_int pre))
      (String.concat ";" (List.map string_of_int post))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"rollback restores fingerprint (random schedules)" ~print
       gen
       (fun (pol, pre, post) ->
         let policy =
           match pol with 0 -> UPersist.Eager | 1 -> UPersist.Lossy | _ -> UPersist.Torn
         in
         UPersist.scoped policy (fun () ->
             with_undo_arena (fun () ->
                 let t = undo_sys () in
                 Fun.protect
                   ~finally:(fun () -> USim.abandon t)
                   (fun () ->
                     undo_apply_codes t pre;
                     let fp = USim.fingerprint_digest t in
                     let m = USim.mark t in
                     undo_apply_codes t post;
                     USim.rollback t m;
                     USim.fingerprint_digest t = fp)))))

let suite =
  [
    Alcotest.test_case "Q sets for S_3 (hand-computed)" `Quick test_q_sets_s3;
    Alcotest.test_case "Q sets for sticky bit" `Quick test_q_sets_sticky;
    Alcotest.test_case "Q sets: readable-stack witness" `Quick test_q_sets_stack_witness;
    Alcotest.test_case "multiset grouping" `Quick test_multiset_of_list;
    Alcotest.test_case "R sets for TAS (hand-computed)" `Quick test_r_sets_tas;
    Alcotest.test_case "R sets overlap for register" `Quick test_r_sets_register_overlap;
    Alcotest.test_case "responses rejects missing tracked op" `Quick
      test_responses_rejects_missing_tracked;
    Alcotest.test_case "Q sets are prefix-closed" `Quick test_q_prefix_closed;
    Alcotest.test_case "rollback across flush/fence boundaries (eager)" `Quick
      (test_rollback_boundaries UPersist.Eager);
    Alcotest.test_case "rollback across flush/fence boundaries (lossy)" `Quick
      (test_rollback_boundaries UPersist.Lossy);
    Alcotest.test_case "rollback across flush/fence boundaries (torn)" `Quick
      (test_rollback_boundaries UPersist.Torn);
    Alcotest.test_case "rollback into a recovered run (eager)" `Quick
      (test_rollback_recovered_run UPersist.Eager);
    Alcotest.test_case "rollback into a recovered run (lossy)" `Quick
      (test_rollback_recovered_run UPersist.Lossy);
    Alcotest.test_case "rollback into a recovered run (torn)" `Quick
      (test_rollback_recovered_run UPersist.Torn);
    qcheck_rollback_fingerprint;
  ]
