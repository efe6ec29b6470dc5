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

(* --- the memoized searches against a plain recursion ---------------
   [Plain (T)] computes Q_X and R_{X,j} straight from Definitions 4 and
   2 over operation values: no memo, no interning, no count vectors.
   Below the first operation the teams no longer matter, so the
   remaining processes form one pool; equal operations give equal
   subtrees, so each step branches once per distinct operation. *)

module Plain (T : Object_type.S) = struct
  let rec remove_one op = function
    | [] -> []
    | x :: xs -> if T.compare_op x op = 0 then xs else x :: remove_one op xs

  let distinct ops = List.sort_uniq T.compare_op ops

  let reachable ~q0 ~first ~other =
    let rec below s pool =
      let step op = below (fst (T.apply s op)) (remove_one op pool) in
      s :: List.concat_map step (distinct pool)
    in
    let start op = below (fst (T.apply q0 op)) (remove_one op first @ other) in
    List.concat_map start (distinct first)
    |> List.sort_uniq T.compare_state

  let responses ~q0 ~team_a ~team_b ~first ~tracked_team ~tracked_op =
    let team_a, team_b =
      match tracked_team with
      | Team.A -> (remove_one tracked_op team_a, team_b)
      | Team.B -> (team_a, remove_one tracked_op team_b)
    in
    let rec below s pool tracked =
      (match tracked with Some r -> [ (r, s) ] | None -> [])
      @ List.concat_map
          (fun op -> below (fst (T.apply s op)) (remove_one op pool) tracked)
          (distinct pool)
      @
      match tracked with
      | None ->
          let s', r = T.apply s tracked_op in
          below s' pool (Some r)
      | Some _ -> []
    in
    let starters, rest = match first with Team.A -> (team_a, team_b) | Team.B -> (team_b, team_a) in
    List.concat_map
      (fun op -> below (fst (T.apply q0 op)) (remove_one op starters @ rest) None)
      (distinct starters)
    @ (if tracked_team = first then
         let s', r = T.apply q0 tracked_op in
         below s' (team_a @ team_b) (Some r)
       else [])
    |> List.sort_uniq (fun (r1, s1) (r2, s2) ->
           let c = T.compare_resp r1 r2 in
           if c <> 0 then c else T.compare_state s1 s2)
end

(* Every candidate of [cands] through ONE memoized instance (so later
   candidates hit nodes memoized by earlier ones, across teams and team
   sizes), each against the plain recursion: Q_A and Q_B, and R_{X,j}
   from both teams for every distinct tracked (team, operation). *)
let memo_agrees_with_plain (Object_type.Pack (module T)) cands =
  let module S = Search.Make (T) in
  let module P = Plain (T) in
  let ops = Array.of_list T.update_ops in
  List.for_all
    (fun (q0, a, b) ->
      let q0 = List.nth T.candidate_initial_states q0 in
      let a = List.map (fun i -> ops.(i)) a and b = List.map (fun i -> ops.(i)) b in
      let ms_a = S.multiset_of_list a and ms_b = S.multiset_of_list b in
      let q_ok first other ms_first ms_other =
        S.State_set.elements (S.reachable ~q0 ~first:ms_first ~other:ms_other)
        = P.reachable ~q0 ~first ~other
      in
      let r_ok tracked_team tracked_op first =
        S.Pair_set.elements
          (S.responses ~q0 ~team_a:ms_a ~team_b:ms_b ~first ~tracked_team ~tracked_op)
        = P.responses ~q0 ~team_a:a ~team_b:b ~first ~tracked_team ~tracked_op
      in
      let tracked =
        List.map (fun op -> (Team.A, op)) (P.distinct a)
        @ List.map (fun op -> (Team.B, op)) (P.distinct b)
      in
      q_ok a b ms_a ms_b && q_ok b a ms_b ms_a
      && List.for_all
           (fun (team, op) -> r_ok team op Team.A && r_ok team op Team.B)
           tracked)
    cands

(* A random table and a few random candidates over it: team sizes 1-3,
   operations by universe index. *)
let search_case_gen =
  QCheck2.Gen.(
    let* num_states = int_range 1 5 in
    let* num_ops = int_range 1 4 in
    let* num_resps = int_range 1 3 in
    let* seed = int_bound 1_000_000 in
    let table =
      Finite_type.random ~num_resps ~num_states ~num_ops
        (Random.State.make [| seed; num_states; num_ops; 11 |])
    in
    let team = list_size (int_range 1 3) (int_bound (num_ops - 1)) in
    let+ cands =
      list_size (int_range 1 6) (triple (int_bound (List.length table.initials - 1)) team team)
    in
    (table, cands))

let print_search_case ((t : Finite_type.table), cands) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "%d states, %d ops, table %s; candidates %s" t.num_states t.num_ops
    (String.concat ";"
       (Array.to_list t.transition
       |> List.concat_map (fun row ->
              Array.to_list row |> List.map (fun (q, r) -> Printf.sprintf "%d/%d" q r))))
    (String.concat " "
       (List.map (fun (q, a, b) -> Printf.sprintf "q%d[%s|%s]" q (ints a) (ints b)) cands))

let qcheck_memo_random_tables =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"memo Q/R sets, random tables = plain recursion"
       ~print:print_search_case search_case_gen (fun (table, cands) ->
         memo_agrees_with_plain (Finite_type.of_table table) cands))

(* The same on a product (sum-typed operations, pair states) and on a
   20-operation universe with a team of 16 equal operations: a count
   encoding that overflowed (17^20 > 2^62) would merge distinct nodes. *)
let test_memo_product_and_wide () =
  let rng = Random.State.make [| 17 |] in
  let small = Finite_type.of_table (Finite_type.random ~num_states:3 ~num_ops:2 rng) in
  let product = Product.make small Sticky_bit.t in
  Alcotest.(check bool)
    "product" true
    (memo_agrees_with_plain product
       [ (0, [ 0; 2 ], [ 1; 3 ]); (0, [ 0; 0; 1 ], [ 2 ]); (0, [ 3 ], [ 1; 1; 2 ]) ]);
  let wide = Finite_type.of_table (Finite_type.random ~num_resps:3 ~num_states:6 ~num_ops:20 rng) in
  Alcotest.(check bool)
    "20 ops, team of 16" true
    (memo_agrees_with_plain wide
       [
         (0, List.init 16 (fun _ -> 7), [ 19 ]);
         (0, [ 19 ], List.init 16 (fun _ -> 7));
         (0, List.init 15 (fun _ -> 7), [ 19; 7 ]);
         (0, List.init 16 (fun _ -> 0), [ 1 ]);
       ])

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
module UUndo = Rcons_runtime.Undo
module UPersist = Rcons_runtime.Persist

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
  UPersist.scoped ~barriers:true policy (fun () ->
      Helpers.with_undo_arena (fun () ->
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
  UPersist.scoped ~barriers:true policy (fun () ->
      Helpers.with_undo_arena (fun () ->
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
         UPersist.scoped ~barriers:true policy (fun () ->
             Helpers.with_undo_arena (fun () ->
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

(* qcheck: [Outputs] keeps its agreement/validity verdict as it records,
   and the same [Undo.aside] inverse puts it back on rollback.  On random
   [record] sequences interleaved with marks and rollbacks, the verdict
   equals the list definition recomputed from [Outputs.all], and
   [check_exn] reports agreement before validity. *)
module UOutputs = Rcons_algo.Outputs

type outputs_op = Record of int * int | Mark | Rollback

let qcheck_outputs_verdict =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 30)
        (frequency
           [
             (6, map2 (fun pid v -> Record (pid, v)) (int_bound 2) (int_bound 4));
             (2, pure Mark);
             (2, pure Rollback);
           ]))
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Record (pid, v) -> Printf.sprintf "r%d=%d" pid v | Mark -> "mark" | Rollback -> "back")
         ops)
  in
  let inputs = [| 1; 2; 3 |] in
  (* The list definitions, from the full output history. *)
  let agreement l = match l with [] -> true | v :: rest -> List.for_all (( = ) v) rest in
  let validity l = List.for_all (fun v -> Array.mem v inputs) l in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"outputs verdict = list definition under rollback" ~print
       gen
       (fun ops ->
         UUndo.install ();
         Fun.protect ~finally:UUndo.uninstall (fun () ->
             let o = UOutputs.make ~inputs in
             (* marks, each with the history it must restore *)
             let marks = ref [] in
             let agrees () =
               let all = UOutputs.all o in
               let reported = ref [] in
               UOutputs.check_exn ~fail:(fun m -> reported := m :: !reported) o;
               let expected =
                 (if agreement all then [] else [ "agreement violated" ])
                 @ if validity all then [] else [ "validity violated" ]
               in
               UOutputs.agreement_ok o = agreement all
               && UOutputs.validity_ok o = validity all
               && List.rev !reported = expected
             in
             List.for_all
               (fun op ->
                 (match op with
                 | Record (pid, v) -> UOutputs.record o pid v
                 | Mark -> marks := (UUndo.mark (), UOutputs.all o) :: !marks
                 | Rollback -> (
                     match !marks with
                     | [] -> ()
                     | (m, all) :: rest ->
                         marks := rest;
                         UUndo.rollback_to m;
                         if UOutputs.all o <> all then Alcotest.fail "rollback lost the history"));
                 agrees ())
               ops)))

(* [Sim.rebuild] restores its feed cursor and the journal's feed flag
   with [match ... with exception], and [Persist.in_step] its step
   context the same way.  A body that is not deterministic makes the
   rebuild after a rollback fail -- by finishing early, or by raising
   inside the feed -- and afterwards a fresh system on the same domain
   must step with real effects (an empty cursor), journal its steps (the
   feed flag is off) and roll back normally, outside any step
   context. *)
let test_rebuild_exception_safety () =
  let desync ~raise_on_rerun =
    let runs = ref 0 in
    let c = UCell.make 7 in
    let t =
      USim.create ~n:1 (fun _ () ->
          incr runs;
          (* the first run takes three reads, every later run one *)
          ignore (UCell.read c);
          if !runs > 1 then (if raise_on_rerun then failwith "diverged")
          else (
            ignore (UCell.read c);
            ignore (UCell.read c)))
    in
    Fun.protect
      ~finally:(fun () -> USim.abandon t)
      (fun () ->
        for _ = 1 to 3 do
          ignore (USim.step_proc t 0)
        done;
        let m = USim.mark t in
        ignore (USim.step_proc t 0);
        USim.rollback t m;
        match USim.step_proc t 0 with
        | _ -> Alcotest.fail "the rebuild of a non-deterministic body should fail"
        | exception Invalid_argument msg when not raise_on_rerun ->
            Alcotest.(check bool)
              ("desynchronized: " ^ msg)
              true
              (String.starts_with ~prefix:"Sim.rollback: rebuild desynchronized" msg)
        | exception Failure msg when raise_on_rerun ->
            Alcotest.(check string) "the body's own exception" "diverged" msg)
  in
  let fresh_system_is_normal () =
    Alcotest.(check int) "no step context left" 0 (UPersist.barrier_steps ());
    let got = ref [] in
    (* between-step bookkeeping goes through [Undo.aside], as in the
       algorithms, so a rollback restores it *)
    let note v =
      UUndo.aside (fun () ->
          let old = !got in
          got := v :: old;
          fun () -> got := old)
    in
    let t =
      USim.create ~n:1 (fun _ () ->
          note (USim.step (fun () -> 41));
          note (USim.step (fun () -> 42)))
    in
    Fun.protect
      ~finally:(fun () -> USim.abandon t)
      (fun () ->
        ignore (USim.step_proc t 0);
        Alcotest.(check (list int)) "first step suspends: nothing is fed" [] !got;
        let s = snap t in
        let before = UUndo.mark () in
        let m = USim.mark t in
        ignore (USim.step_proc t 0);
        Alcotest.(check (list int)) "the thunk's value" [ 41 ] !got;
        Alcotest.(check bool) "the step journaled" true (UUndo.mark () > before);
        USim.rollback t m;
        Alcotest.(check bool) "rollback restores the fresh system" true (snap t = s);
        drive_to_completion t;
        Alcotest.(check (list int)) "rebuilt run takes both steps" [ 42; 41 ] !got)
  in
  List.iter
    (fun raise_on_rerun ->
      UPersist.scoped ~barriers:true UPersist.Lossy (fun () ->
          Helpers.with_undo_arena (fun () ->
              desync ~raise_on_rerun;
              fresh_system_is_normal ())))
    [ false; true ]

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
    qcheck_memo_random_tables;
    Alcotest.test_case "memo Q/R sets, product + 20 ops = plain recursion" `Quick
      test_memo_product_and_wide;
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
    qcheck_outputs_verdict;
    Alcotest.test_case "rebuild failure leaves the feed and journal clean" `Quick
      test_rebuild_exception_safety;
  ]
