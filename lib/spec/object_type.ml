(* Deterministic sequential object-type specifications.

   A type is given by its set of states, its update operations and a
   transition function [apply].  The decision procedures of the paper
   (Definitions 2 and 4) quantify over sequences of at most [n] operations
   performed by distinct processes, so a finite universe of candidate
   operations and candidate initial states is enough to decide the
   n-discerning and n-recording properties exactly with respect to that
   universe. *)

module type S = sig
  type state
  type op
  type resp

  val name : string

  val apply : state -> op -> state * resp
  (** [apply q op] is the unique next state and response when [op] is
      performed on an object in state [q] (the type is deterministic). *)

  val compare_state : state -> state -> int
  val compare_op : op -> op -> int
  val compare_resp : resp -> resp -> int

  val digest_state : state -> string
  (** Canonical byte representation of a state: two states digest equally
      iff they compare equal.  Used by the explorer's state-space
      deduplication to fingerprint non-volatile memory; {!val:digest} is a
      valid implementation for any state made of plain data. *)

  val pp_state : Format.formatter -> state -> unit
  val pp_op : Format.formatter -> op -> unit
  val pp_resp : Format.formatter -> resp -> unit

  val candidate_initial_states : state list
  (** Initial states the property checkers will try for [q0]. *)

  val update_ops : op list
  (** Finite universe of update operations used by the property checkers. *)

  val readable : bool
  (** Whether the type has a READ operation returning the entire state
      without changing it.  Readability is required by the sufficiency
      results (Theorems 3 and 8); the necessary conditions hold without. *)

  val op_kind : op -> Footprint.kind
  (** Step-footprint classification of [op] for the explorer's
      independence relation: {!Footprint.Update} for operations that may
      change the state (every catalogue update operation — a CAS that
      happens to fail still conflicts with reads, so the classification
      must be state-independent and conservative), {!Footprint.Read}
      only for operations that provably never change any state.  The
      READ operation of readable types is not in [update_ops]; it is
      classified by the runtime ({!Rcons_runtime.Sim_obj.read}). *)
end

type t = Pack : (module S with type state = 's and type op = 'o and type resp = 'r) -> t

(* Canonical digest for plain-data values: structural equality coincides
   with byte equality of the marshalled form once sharing is expanded
   ([No_sharing]); [Closures] keeps the digest total on states that happen
   to capture functions (code pointers are stable within a binary). *)
let digest v = Marshal.to_string v [ Marshal.No_sharing; Marshal.Closures ]

let name (Pack (module T)) = T.name
let readable (Pack (module T)) = T.readable

(* Canonical behavioural fingerprint of a type: an MD5 over the depth-
   bounded transition table reachable from the candidate initial states
   under the declared operation universe, plus the readability flag.

   Two types fingerprint equally iff they are behaviourally identical on
   every operation sequence of length <= [depth] from a candidate initial
   state -- exactly the fragment the n-discerning / n-recording searches
   (Definitions 2 and 4) explore for n <= depth.  The encoding names
   states by their BFS discovery index and operations by their position
   in [update_ops], so catalogue aliases of the same behaviour share a
   fingerprint while any edit to [apply], the universes or [readable]
   changes it.  Used as the on-disk cache key for persisted certificates
   (see Rcons_check.Cert_cache); a fingerprint mismatch marks a cache
   entry as stale. *)
let fingerprint_state_cap = 100_000

(* A fingerprint is a pure function of the module value and the depth,
   and the catalogue's modules are top-level values handed out over and
   over, so memoize by physical identity (a handful of modules per
   process; linear scan is fine).  Guarded for multi-domain callers. *)
let fp_memo : (Obj.t * int * string) list ref = ref []
let fp_memo_lock = Mutex.create ()

let fp_memo_find key depth =
  Mutex.protect fp_memo_lock (fun () ->
      List.find_map
        (fun (k, d, fp) -> if k == key && d = depth then Some fp else None)
        !fp_memo)

let fp_memo_add key depth fp =
  Mutex.protect fp_memo_lock (fun () -> fp_memo := (key, depth, fp) :: !fp_memo)

let fingerprint_uncached (type s o r) ~depth
    (module T : S with type state = s and type op = o and type resp = r) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "rcons-fp-v1 depth=%d readable=%b " depth T.readable);
  (* state identity: digest -> BFS index; the frontier carries each
     state's index so a dequeued state is not digested again *)
  let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  let frontier = Stdlib.Queue.create () in
  let intern ~level q =
    let d = T.digest_state q in
    match Hashtbl.find_opt index d with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add index d i;
        if level < depth && i < fingerprint_state_cap then Stdlib.Queue.add (q, level, i) frontier;
        i
  in
  let add_int i = Buffer.add_string buf (string_of_int i) in
  let ops = Array.of_list T.update_ops in
  Buffer.add_string buf (Printf.sprintf "ops=%d " (Array.length ops));
  List.iter
    (fun q -> Buffer.add_string buf (Printf.sprintf "init:%d " (intern ~level:0 q)))
    T.candidate_initial_states;
  (* One "qi.oi->qj;<response digest> " record per transition. *)
  while not (Stdlib.Queue.is_empty frontier) do
    let q, level, qi = Stdlib.Queue.pop frontier in
    Array.iteri
      (fun oi op ->
        let q', r = T.apply q op in
        let qj = intern ~level:(level + 1) q' in
        add_int qi;
        Buffer.add_char buf '.';
        add_int oi;
        Buffer.add_string buf "->";
        add_int qj;
        Buffer.add_char buf ';';
        Buffer.add_string buf (Stdlib.Digest.to_hex (Stdlib.Digest.string (digest r)));
        Buffer.add_char buf ' ')
      ops
  done;
  if !next >= fingerprint_state_cap then Buffer.add_string buf "truncated";
  Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf))

let fingerprint (type s o r) ?(depth = 8)
    (module T : S with type state = s and type op = o and type resp = r) =
  let key = Obj.repr (module T : S with type state = s and type op = o and type resp = r) in
  match fp_memo_find key depth with
  | Some fp -> fp
  | None ->
      let fp = fingerprint_uncached ~depth (module T) in
      fp_memo_add key depth fp;
      fp

let fingerprint_t ?depth (Pack (module T)) = fingerprint ?depth (module T)

let equal_state (type s o r)
    (module T : S with type state = s and type op = o and type resp = r)
    (a : s) (b : s) =
  T.compare_state a b = 0

(* Convenience pretty-printers used throughout the catalogue. *)
let pp_int = Format.pp_print_int
let pp_bool = Format.pp_print_bool

let pp_option pp ppf = function
  | None -> Format.pp_print_string ppf "_|_"
  | Some x -> pp ppf x

let pp_list pp ppf xs =
  Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp) xs
