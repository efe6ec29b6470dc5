(* Decision procedure for the n-recording property (Definition 4).

   A deterministic type T is n-recording if there exist a state q0, a
   partition of n processes into two non-empty teams A and B, and
   operations op_1, ..., op_n such that
     (1) Q_A and Q_B are disjoint,
     (2) q0 is not in Q_A, or |B| = 1,
     (3) q0 is not in Q_B, or |A| = 1.

   The search enumerates candidate initial states, team sizes (up to the
   team-swap symmetry) and operation multisets per team -- equal splits
   additionally drop the mirrored half of the multiset-pair square (see
   {!Enumerate.sym_pairs}) -- and decides each candidate exactly by
   computing Q_A and Q_B.  The answer is exact with respect to the type's
   declared finite operation universe.  The scan itself is the shared
   {!Property.Make}. *)

open Rcons_spec
module Json = Rcons_runtime.Json

include Property.Make (struct
  type ('s, 'o, 'r) data = ('s, 'o) Certificate.recording_data
  type packed = Certificate.recording

  let name = "recording"

  module Check (T : Object_type.S) = struct
    module S = Search.Make (T)

    (* Decided on state ids; the sets become values only for a witness. *)
    let check ~q0 ~ops_a ~ops_b =
      let ms_a = S.multiset_of_list ops_a and ms_b = S.multiset_of_list ops_b in
      S.with_ctx @@ fun c ->
      let q_a = S.reachable_ids c ~q0 ~first:ms_a ~other:ms_b in
      let q_b = S.reachable_ids c ~q0 ~first:ms_b ~other:ms_a in
      let q0_in_q_a = S.mem_state c q0 q_a and q0_in_q_b = S.mem_state c q0 q_b in
      let cond1 = S.Ids.disjoint q_a q_b in
      let cond2 = (not q0_in_q_a) || List.length ops_b = 1 in
      let cond3 = (not q0_in_q_b) || List.length ops_a = 1 in
      if cond1 && cond2 && cond3 then
        Some
          {
            Certificate.q0;
            ops_a;
            ops_b;
            q_a = S.State_set.elements (S.states_of c q_a);
            q_b = S.State_set.elements (S.states_of c q_b);
            q0_in_q_a;
            q0_in_q_b;
          }
      else None
  end

  let candidate (d : _ Certificate.recording_data) = (d.q0, d.ops_a, d.ops_b)
  let pack m d = Certificate.Recording (m, d)

  let witness_fields ~q0 ~ops_a ~ops_b (d : _ Certificate.recording_data) =
    let ints l = Json.List (List.map (fun i -> Json.Int i) l) in
    [
      ("q0", Json.Int q0);
      ("ops_a", ints ops_a);
      ("ops_b", ints ops_b);
      ("q_a", Json.String (Property.hex_digest d.q_a));
      ("q_b", Json.String (Property.hex_digest d.q_b));
      ("q0_in_q_a", Json.Bool d.q0_in_q_a);
      ("q0_in_q_b", Json.Bool d.q0_in_q_b);
    ]

  let candidate_of_fields json =
    let ints f = List.map Json.to_int (Json.to_list (Json.field f json)) in
    (Json.to_int (Json.field "q0" json), ints "ops_a", ints "ops_b")
end)

let is_recording ?domains ot n = Option.is_some (witness ?domains ot n)
