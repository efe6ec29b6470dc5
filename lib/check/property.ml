(* One decision pipeline for the two structural properties of the paper.

   Definition 2 (n-discerning) and Definition 4 (n-recording) test the
   same candidate -- an initial state q0 and one operation per process on
   each of two teams -- and differ only in which sets must be disjoint.
   A property supplies what differs ([DEFINITION]); [Make] derives the
   rest: the candidate space, seeding from a lower-level witness, the
   first-match witness search and the standalone forms.  The certificate
   cache ({!Cert_cache.Codec}) and the level scan ({!Classify.scan}) take
   the same property module.

   The scan is incremental.  One memoized {!Search.Make} instance (built
   by [Check (T)]) is shared across every candidate and every level, and
   [?seed] tries the one-operation extensions of a level-(n-1) witness
   before the full enumeration (the converse direction of Observation
   6's downward closure: a witness at level n-1 is the natural stem of
   one at level n).  Seeding can only change which witness is found
   first, never whether one exists. *)

open Rcons_spec
module Json = Rcons_runtime.Json

(** What a property supplies. *)
module type DEFINITION = sig
  type ('s, 'o, 'r) data
  (** A witness: the candidate plus the sets that make it one. *)

  type packed
  (** A witness packed with its type (a {!Certificate}). *)

  val name : string
  (** ["recording"] or ["discerning"]: the certificate cache's tag. *)

  (** Decide one candidate; [Some] iff it is a witness.  All calls share
      the functor's one memoized {!Search.Make} instance. *)
  module Check (T : Object_type.S) : sig
    val check :
      q0:T.state -> ops_a:T.op list -> ops_b:T.op list -> (T.state, T.op, T.resp) data option
  end

  val candidate : ('s, 'o, 'r) data -> 's * 'o list * 'o list
  (** The candidate a witness was found at; used to seed the next level
      and to store the witness. *)

  val pack :
    (module Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
    ('s, 'o, 'r) data ->
    packed

  val witness_fields :
    q0:int -> ops_a:int list -> ops_b:int list -> ('s, 'o, 'r) data -> (string * Json.t) list
  (** A positive cache entry's fields after ["result"]: the candidate,
      as indices into the type's declared universes, then digests of
      the witness's sets.  Revalidation recomputes them and compares. *)

  val candidate_of_fields : Json.t -> int * int list * int list
  (** The candidate indices back from a positive entry.
      @raise Invalid_argument on a malformed entry. *)
end

(** What {!Make} derives from a {!DEFINITION}. *)
module type S = sig
  include DEFINITION

  (** Per-type incremental scanner: build it once per type and reuse it
      across candidates and levels. *)
  module Scan (T : Object_type.S) : sig
    val check :
      q0:T.state -> ops_a:T.op list -> ops_b:T.op list -> (T.state, T.op, T.resp) data option

    val candidates : int -> (T.state * T.op list * T.op list) list
    (** The level-n candidate space ({!Enumerate.candidates} over the
        type's declared universes). *)

    val witness_at :
      ?domains:int ->
      ?seed:(T.state, T.op, T.resp) data ->
      int ->
      (T.state, T.op, T.resp) data option
    (** First witness in enumeration order, or [None].  [?seed] prepends
        the one-operation extensions of a lower-level witness; it can
        change which witness is found first, never whether one exists.
        [?domains] fans the sweep out without changing the result.
        @raise Invalid_argument if [n < 2]. *)
  end

  val check_candidate :
    (module Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
    q0:'s ->
    ops_a:'o list ->
    ops_b:'o list ->
    ('s, 'o, 'r) data option
  (** Standalone [check] (a fresh search instance per call); sweeps
      should go through {!Scan}. *)

  val witness : ?domains:int -> Object_type.t -> int -> packed option
  (** [witness t n]: the first level-n witness in enumeration order
      (unseeded), or [None].  The same for every [?domains].
      @raise Invalid_argument if [n < 2]. *)
end

(* MD5 hex of the canonical byte form of a plain-data value: the form in
   which cache entries store a witness's derived sets. *)
let hex_digest v = Digest.to_hex (Digest.string (Object_type.digest v))

module Make (D : DEFINITION) :
  S with type ('s, 'o, 'r) data = ('s, 'o, 'r) D.data and type packed = D.packed = struct
  include D

  module Scan (T : Object_type.S) = struct
    include D.Check (T)

    let candidates n =
      Enumerate.candidates ~initial_states:T.candidate_initial_states ~ops:T.update_ops n

    (* One-operation extensions of a lower-level witness, tried before
       the full enumeration.  Sorted per team and deduplicated so the
       seeded prefix stays small. *)
    let seeded d =
      let q0, ops_a, ops_b = D.candidate d in
      let cmp (a1, b1) (a2, b2) =
        let c = List.compare T.compare_op a1 a2 in
        if c <> 0 then c else List.compare T.compare_op b1 b2
      in
      List.concat_map
        (fun op ->
          [
            (List.sort T.compare_op (op :: ops_a), ops_b);
            (ops_a, List.sort T.compare_op (op :: ops_b));
          ])
        T.update_ops
      |> List.sort_uniq cmp
      |> List.map (fun (ops_a, ops_b) -> (q0, ops_a, ops_b))

    (* The candidate space (initial state x team split x operation
       multisets) is fanned out across [domains]; Pool.find_first keeps
       the first candidate in enumeration order, so the witness is the
       sequential one. *)
    let witness_at ?domains ?seed n =
      if n < 2 then invalid_arg (String.capitalize_ascii D.name ^ ".witness: n must be >= 2");
      let seeded_prefix = match seed with None -> [] | Some d -> seeded d in
      let all = Array.of_list (seeded_prefix @ candidates n) in
      Rcons_par.Pool.find_first ?domains (Array.length all) (fun i ->
          let q0, ops_a, ops_b = all.(i) in
          check ~q0 ~ops_a ~ops_b)
  end

  let check_candidate (type s o r)
      (module T : Object_type.S with type state = s and type op = o and type resp = r) ~q0
      ~(ops_a : o list) ~(ops_b : o list) =
    let module Sc = Scan (T) in
    Sc.check ~q0 ~ops_a ~ops_b

  let witness ?domains (Object_type.Pack (module T)) n =
    let module Sc = Scan (T) in
    Option.map (D.pack (module T)) (Sc.witness_at ?domains n)
end
