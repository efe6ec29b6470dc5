(* The explorer's visited store: fingerprint -> (sleep mask, depth)
   pairs, in [shards] open-addressing tables with one mutex each.

   A key's shard and its probe start come from disjoint bits of one
   hash: with the same low bits for both, every key of a shard would
   start probing in the same 1/[shards] of its table and the clusters
   would run long.  A slot is empty iff its pair list is [] (a claimed
   key always holds at least one pair), so no sentinel key is needed.
   A shard doubles under its own lock when it passes 3/4 occupancy;
   there are no deletions. *)

let shard_bits = 6
let shards = 1 lsl shard_bits

type shard = {
  lock : Mutex.t;
  mutable keys : string array;
  mutable covers : (int * int) list array; (* [] = empty slot *)
  mutable size : int;
}

type t = shard array

let create () =
  Array.init shards (fun _ ->
      { lock = Mutex.create (); keys = Array.make 128 ""; covers = Array.make 128 []; size = 0 })

(* Fingerprints are MD5 digests (uniformly random bytes), so the first
   word is already a good hash; short non-digest keys (tests) fall back
   to [Hashtbl.hash].  The multiply spreads entropy into the low bits. *)
let hash key =
  let len = String.length key in
  if len >= 8 then begin
    let a = Int64.to_int (String.get_int64_le key 0) in
    let b = if len >= 16 then Int64.to_int (String.get_int64_le key (len - 8)) else len in
    let h = (a lxor b) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
  end
  else Hashtbl.hash key

let empty = function [] -> true | _ :: _ -> false

(* The slot holding [key] in [s], or the empty slot where it belongs.
   Top-level loops with explicit arguments, so a claim allocates no
   closure. *)
let rec probe s key mask i =
  if empty s.covers.(i) || String.equal s.keys.(i) key then i
  else probe s key mask ((i + 1) land mask)

let find s key h =
  let mask = Array.length s.keys - 1 in
  probe s key mask ((h lsr shard_bits) land mask)

(* The cover rule: some stored expansion slept on a subset of [mask]
   at no greater depth. *)
let rec covered mask depth = function
  | [] -> false
  | (m, d) :: tl -> (m land mask = m && d <= depth) || covered mask depth tl

let grow s =
  let keys = s.keys and covers = s.covers in
  s.keys <- Array.make (2 * Array.length keys) "";
  s.covers <- Array.make (2 * Array.length keys) [];
  Array.iteri
    (fun i c ->
      if not (empty c) then begin
        let j = find s keys.(i) (hash keys.(i)) in
        s.keys.(j) <- keys.(i);
        s.covers.(j) <- c
      end)
    covers

let claim t key ~mask ~depth =
  let h = hash key in
  let s = t.(h land (shards - 1)) in
  (* Nothing below raises, so a plain lock/unlock pair needs no
     [Mutex.protect] closure on this hot path. *)
  Mutex.lock s.lock;
  let i = find s key h in
  let fresh =
    match s.covers.(i) with
    | [] ->
        s.keys.(i) <- key;
        s.covers.(i) <- [ (mask, depth) ];
        s.size <- s.size + 1;
        if 4 * s.size > 3 * Array.length s.keys then grow s;
        true
    | stored ->
        (not (covered mask depth stored))
        && begin
             s.covers.(i) <- (mask, depth) :: stored;
             true
           end
  in
  Mutex.unlock s.lock;
  fresh

let add t key = claim t key ~mask:0 ~depth:0
let cardinal t = Array.fold_left (fun n s -> n + s.size) 0 t

let elements t =
  Array.fold_left
    (fun acc s ->
      let acc = ref acc in
      Array.iteri (fun i c -> if not (empty c) then acc := s.keys.(i) :: !acc) s.covers;
      !acc)
    [] t
