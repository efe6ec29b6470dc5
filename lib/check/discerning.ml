(* Decision procedure for the n-discerning property (Definition 2, from
   Ruppert's characterization of readable types that solve consensus).

   T is n-discerning if there exist q0, a two-team partition and operations
   op_1, ..., op_n such that R_{A,j} and R_{B,j} are disjoint for every
   process j, where R_{X,j} collects the (response of op_j, final state)
   pairs over all distinct-process sequences starting with a team-X process
   and including j.

   Processes assigned the same operation on the same team have identical
   R-sets, so it suffices to check one tracked instance per distinct
   (team, operation) pair of the assignment.  The scan itself is the
   shared {!Property.Make}. *)

open Rcons_spec
module Json = Rcons_runtime.Json

include Property.Make (struct
  type ('s, 'o, 'r) data = ('s, 'o, 'r) Certificate.discerning_data
  type packed = Certificate.discerning

  let name = "discerning"

  module Check (T : Object_type.S) = struct
    module S = Search.Make (T)

    (* Decided on pair ids, one tracked (team, operation) at a time, so
       a candidate fails at its first overlapping pair of R-sets; the
       R-sets become values only for a witness. *)
    let check ~q0 ~ops_a ~ops_b =
      let ms_a = S.multiset_of_list ops_a and ms_b = S.multiset_of_list ops_b in
      let tracked_instances =
        Array.to_list (Array.map (fun op -> (Team.A, op)) ms_a.S.ops)
        @ Array.to_list (Array.map (fun op -> (Team.B, op)) ms_b.S.ops)
      in
      S.with_ctx @@ fun c ->
      let r_of (tracked_team, tracked_op) first =
        S.responses_ids c ~q0 ~team_a:ms_a ~team_b:ms_b ~first ~tracked_team ~tracked_op
      in
      let rec decide acc = function
        | [] -> Some (List.rev acc)
        | p :: rest ->
            let ra = r_of p Team.A and rb = r_of p Team.B in
            if S.Ids.disjoint ra rb then decide ((p, ra, rb) :: acc) rest else None
      in
      match decide [] tracked_instances with
      | None -> None
      | Some r_sets ->
          (* Expand the per-(team, op) R-sets back to per-process arrays:
             team A's processes first, then team B's. *)
          let values ids = S.Pair_set.elements (S.pairs_of c ids) in
          let r_sets = List.map (fun (p, ra, rb) -> (p, values ra, values rb)) r_sets in
          let procs =
            Array.of_list
              (List.map (fun op -> (Team.A, op)) ops_a @ List.map (fun op -> (Team.B, op)) ops_b)
          in
          let find_sets (team, op) =
            let _, ra, rb =
              List.find (fun ((t, o), _, _) -> t = team && T.compare_op o op = 0) r_sets
            in
            (ra, rb)
          in
          let r = Array.map find_sets procs in
          Some { Certificate.dq0 = q0; procs; r_a = Array.map fst r; r_b = Array.map snd r }
  end

  (* The team lists are recovered from the per-process assignment. *)
  let candidate (d : _ Certificate.discerning_data) =
    let team_ops team =
      Array.to_list d.procs |> List.filter_map (fun (t, op) -> if t = team then Some op else None)
    in
    (d.dq0, team_ops Team.A, team_ops Team.B)

  let pack m d = Certificate.Discerning (m, d)

  (* Processes are stored as [team tag (0 = A, 1 = B); op index] pairs
     in the certificate's order, team A first. *)
  let witness_fields ~q0 ~ops_a ~ops_b (d : _ Certificate.discerning_data) =
    let procs tag = List.map (fun i -> Json.List [ Json.Int tag; Json.Int i ]) in
    let digests sets =
      Json.List (Array.to_list (Array.map (fun s -> Json.String (Property.hex_digest s)) sets))
    in
    [
      ("dq0", Json.Int q0);
      ("procs", Json.List (procs 0 ops_a @ procs 1 ops_b));
      ("r_a", digests d.r_a);
      ("r_b", digests d.r_b);
    ]

  let candidate_of_fields json =
    let procs =
      List.map
        (fun p ->
          match List.map Json.to_int (Json.to_list p) with
          | [ (0 | 1) as tag; i ] -> (tag, i)
          | _ -> invalid_arg "malformed process entry")
        (Json.to_list (Json.field "procs" json))
    in
    let team tag = List.filter_map (fun (t, i) -> if t = tag then Some i else None) procs in
    (Json.to_int (Json.field "dq0" json), team 0, team 1)
end)

let is_discerning ?domains ot n = Option.is_some (witness ?domains ot n)
