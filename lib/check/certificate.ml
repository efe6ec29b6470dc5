(* Machine-checkable witnesses produced by the decision procedures and
   consumed by the executable algorithms.

   A recording certificate is exactly the data needed to instantiate the
   recoverable team-consensus algorithm of Figure 2: the initial state q0,
   one operation per process on each team, and the computed sets Q_A and
   Q_B.  A discerning certificate is the data needed for the standard
   (crash-free) team-consensus algorithm of Ruppert's characterization
   (Theorem 3): per-process operations together with the response/state
   sets R_{A,j} and R_{B,j}. *)

type ('s, 'o) recording_data = {
  q0 : 's;
  ops_a : 'o list; (* operation of each process on team A *)
  ops_b : 'o list;
  q_a : 's list; (* Q_A(q0, op_1, ..., op_n) *)
  q_b : 's list;
  q0_in_q_a : bool;
  q0_in_q_b : bool;
}

type recording =
  | Recording :
      (module Rcons_spec.Object_type.S
         with type state = 's
          and type op = 'o
          and type resp = 'r)
      * ('s, 'o) recording_data
      -> recording

type ('s, 'o, 'r) discerning_data = {
  dq0 : 's;
  procs : (Rcons_spec.Team.t * 'o) array; (* team and operation per process *)
  r_a : ('r * 's) list array; (* R_{A,j} for each process j *)
  r_b : ('r * 's) list array;
}

type discerning =
  | Discerning :
      (module Rcons_spec.Object_type.S
         with type state = 's
          and type op = 'o
          and type resp = 'r)
      * ('s, 'o, 'r) discerning_data
      -> discerning

let recording_teams (Recording (_, d)) = (List.length d.ops_a, List.length d.ops_b)

(* Interchangeable-process classes for the symmetry-reducing explorer:
   slots of one team assigned compare_op-equal operations run the same
   code in the Figure 2 algorithm, so -- provided the workload also gives
   them the same input -- relabeling them maps executions to executions.
   Pids follow the standard layout (team A slots first, then team B);
   singleton classes carry no symmetry and are dropped. *)
let symmetry_classes (Recording ((module T), d)) =
  let group off ops =
    let rec insert groups i op =
      match groups with
      | [] -> [ (op, [ i ]) ]
      | (o, is) :: tl when T.compare_op o op = 0 -> (o, i :: is) :: tl
      | g :: tl -> g :: insert tl i op
    in
    let _, groups = List.fold_left (fun (i, gs) op -> (i + 1, insert gs i op)) (0, []) ops in
    List.filter_map
      (fun (_, is) ->
        match is with
        | [] | [ _ ] -> None
        | is -> Some (List.rev_map (fun i -> i + off) is))
      groups
  in
  let na = List.length d.ops_a in
  group 0 d.ops_a @ group na d.ops_b

let discerning_teams (Discerning (_, d)) =
  Array.fold_left
    (fun (a, b) (team, _) ->
      match team with Rcons_spec.Team.A -> (a + 1, b) | Rcons_spec.Team.B -> (a, b + 1))
    (0, 0) d.procs

let pp_recording ppf (Recording ((module T), d)) =
  Format.fprintf ppf "@[<v>type %s, q0 = %a@,team A ops: %a@,team B ops: %a@,Q_A = %a@,Q_B = %a@]"
    T.name T.pp_state d.q0
    (Rcons_spec.Object_type.pp_list T.pp_op)
    d.ops_a
    (Rcons_spec.Object_type.pp_list T.pp_op)
    d.ops_b
    (Rcons_spec.Object_type.pp_list T.pp_state)
    d.q_a
    (Rcons_spec.Object_type.pp_list T.pp_state)
    d.q_b

let pp_discerning ppf (Discerning ((module T), d)) =
  let pp_pair ppf (r, s) = Format.fprintf ppf "(%a,%a)" T.pp_resp r T.pp_state s in
  let pp_proc ppf (team, op) = Format.fprintf ppf "%a:%a" Rcons_spec.Team.pp team T.pp_op op in
  Format.fprintf ppf "@[<v>type %s, q0 = %a@,procs: %a@," T.name T.pp_state d.dq0
    (Rcons_spec.Object_type.pp_list pp_proc)
    (Array.to_list d.procs);
  Array.iteri
    (fun j (ra, rb) ->
      Format.fprintf ppf "R_A,%d = %a  R_B,%d = %a@," j
        (Rcons_spec.Object_type.pp_list pp_pair)
        ra j
        (Rcons_spec.Object_type.pp_list pp_pair)
        rb)
    (Array.map2 (fun a b -> (a, b)) d.r_a d.r_b);
  Format.fprintf ppf "@]"

(* Re-validate a recording certificate against Definition 4 from scratch.
   Used by tests to guard against checker bugs: the certificate must be
   self-consistent independently of how the search produced it. *)
let validate_recording (Recording ((module T), d)) =
  let module S = Search.Make (T) in
  let ms_a = S.multiset_of_list d.ops_a and ms_b = S.multiset_of_list d.ops_b in
  let q_a = S.reachable ~q0:d.q0 ~first:ms_a ~other:ms_b in
  let q_b = S.reachable ~q0:d.q0 ~first:ms_b ~other:ms_a in
  let same_set computed declared =
    S.State_set.equal computed (S.State_set.of_list declared)
  in
  let cond1 = S.State_set.(is_empty (inter q_a q_b)) in
  let cond2 = (not (S.State_set.mem d.q0 q_a)) || List.length d.ops_b = 1 in
  let cond3 = (not (S.State_set.mem d.q0 q_b)) || List.length d.ops_a = 1 in
  same_set q_a d.q_a && same_set q_b d.q_b
  && d.q0_in_q_a = S.State_set.mem d.q0 q_a
  && d.q0_in_q_b = S.State_set.mem d.q0 q_b
  && cond1 && cond2 && cond3
  && d.ops_a <> [] && d.ops_b <> []
