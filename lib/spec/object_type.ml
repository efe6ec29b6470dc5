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
   ([No_sharing]).  Without [Closures], a value that reaches a function
   raises at once instead of marshalling whatever the closure reaches. *)
let digest_flags = [ Marshal.No_sharing ]
let digest v = Marshal.to_string v digest_flags
let digest_to_bytes b ofs v = Marshal.to_buffer b ofs (Bytes.length b - ofs) v digest_flags

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
   and the catalogue's fixed types are top-level values handed out over
   and over, so memoize by physical identity (a handful of modules per
   process; linear scan is fine).  The parametric [Sn.make]/[Tn.make]
   and [Stack.spec]-style constructors build a fresh module per call,
   which never hits: a caller that fingerprints one repeatedly keeps
   the value (as [Cert_cache.resolve]'s pool does).  Guarded for
   multi-domain callers. *)
let fp_memo : (Obj.t * int * string) list ref = ref []
let fp_memo_lock = Mutex.create ()

let fp_memo_find key depth =
  Mutex.protect fp_memo_lock (fun () ->
      List.find_map
        (fun (k, d, fp) -> if k == key && d = depth then Some fp else None)
        !fp_memo)

let fp_memo_add key depth fp =
  Mutex.protect fp_memo_lock (fun () -> fp_memo := (key, depth, fp) :: !fp_memo)

(* The text is written into fixed [fingerprint_piece] pieces as it
   grows (no doubling, no dead copies) and joined once, at its exact
   length, for the digest. *)
let fingerprint_piece = 65_536

let fingerprint_uncached (type s o r) ~depth
    (module T : S with type state = s and type op = o and type resp = r) =
  let pieces = ref [] in
  let piece = ref (Bytes.create fingerprint_piece) in
  let pos = ref 0 in
  let add_char c =
    if !pos = fingerprint_piece then begin
      pieces := Bytes.unsafe_to_string !piece :: !pieces;
      piece := Bytes.create fingerprint_piece;
      pos := 0
    end;
    Bytes.unsafe_set !piece !pos c;
    incr pos
  in
  let add_string s =
    let n = String.length s in
    if !pos + n <= fingerprint_piece then begin
      Bytes.unsafe_blit_string s 0 !piece !pos n;
      pos := !pos + n
    end
    else String.iter add_char s
  in
  (* decimal digits straight into the text; every int written is an
     index or a count, so non-negative *)
  let rec add_int i =
    if i >= 10 then add_int (i / 10);
    add_char (Char.unsafe_chr (48 + (i mod 10)))
  in
  add_string (Printf.sprintf "rcons-fp-v1 depth=%d readable=%b " depth T.readable);
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
  (* a response's hex digest, memoized on the marshalled bytes it
     hashes (a type has few distinct responses) *)
  let resp_hex : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let hex r =
    let m = digest r in
    match Hashtbl.find_opt resp_hex m with
    | Some h -> h
    | None ->
        let h = Stdlib.Digest.to_hex (Stdlib.Digest.string m) in
        Hashtbl.add resp_hex m h;
        h
  in
  let ops = Array.of_list T.update_ops in
  add_string (Printf.sprintf "ops=%d " (Array.length ops));
  List.iter
    (fun q -> add_string (Printf.sprintf "init:%d " (intern ~level:0 q)))
    T.candidate_initial_states;
  (* One "qi.oi->qj;<response digest> " record per transition. *)
  while not (Stdlib.Queue.is_empty frontier) do
    let q, level, qi = Stdlib.Queue.pop frontier in
    Array.iteri
      (fun oi op ->
        let q', r = T.apply q op in
        let qj = intern ~level:(level + 1) q' in
        add_int qi;
        add_char '.';
        add_int oi;
        add_string "->";
        add_int qj;
        add_char ';';
        add_string (hex r);
        add_char ' ')
      ops
  done;
  if !next >= fingerprint_state_cap then add_string "truncated";
  pieces := Bytes.sub_string !piece 0 !pos :: !pieces;
  Stdlib.Digest.to_hex (Stdlib.Digest.string (String.concat "" (List.rev !pieces)))

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

(* Convenience pretty-printers used throughout the catalogue. *)
let pp_int = Format.pp_print_int
let pp_bool = Format.pp_print_bool

let pp_option pp ppf = function
  | None -> Format.pp_print_string ppf "_|_"
  | Some x -> pp ppf x

let pp_list pp ppf xs =
  Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp) xs
