(* Lock-free concurrent visited set for the deduplicating explorer.

   Keys are state fingerprints (short digest strings).  The set is one
   open-addressing table of [string Atomic.t] slots; a claim is a single
   CAS of the empty sentinel to the key, so the hot path of the parallel
   explorer -- one probe + one CAS per expanded state -- takes no lock
   and touches one cache line in the common case.  Exactly-once claim
   semantics fall out of CAS uniqueness: slots move empty -> key at most
   once and are never cleared, so for every key exactly one [add] in the
   program's history wins its CAS (all later callers read the key and
   return [false]).

   Resizing is cooperative.  When a table passes 3/4 occupancy (or a
   probe runs too long) a successor of twice the size is installed in
   [next]; every thread that touches the table then helps migrate it in
   fixed-size slot chunks claimed off an atomic cursor.  Migration
   freezes each old slot: empty slots are CASed to a tombstone (so no
   new key can land behind the migration sweep) and occupied slots have
   their key re-inserted into the successor.  An [add] that loses its
   CAS to a tombstone -- or that finds [next] installed -- first helps
   finish the whole migration and only then retries in the successor.
   That ordering is what preserves exactly-once across the epoch change:
   fresh claims enter the successor only after it already contains every
   key of the frozen table, so a key claimed in the old epoch can never
   be claimed again in the new one.

   There are no deletions, which keeps every invariant monotone: slots
   only go empty -> key or empty -> tombstone, tables only grow, and the
   distinct-key count [cardinal] is a plain atomic counter bumped once
   per winning CAS. *)

(* Distinct heap blocks, compared physically.  [Bytes.unsafe_to_string]
   on a fresh buffer guarantees a block no user key can alias. *)
let empty_slot : string = Bytes.unsafe_to_string (Bytes.make 1 '\000')
let tombstone : string = Bytes.unsafe_to_string (Bytes.make 1 '\001')

type table = {
  slots : string Atomic.t array;
  mask : int;
  occupied : int Atomic.t; (* claims + migrated copies landed in this table *)
  next : table option Atomic.t; (* successor; Some = migration in progress *)
  migrate_cursor : int Atomic.t; (* next slot index a helper may freeze *)
  migrate_done : int Atomic.t; (* slots fully frozen/copied so far *)
}

type t = {
  current : table Atomic.t;
  count : int Atomic.t; (* distinct keys ever claimed *)
  resizes : int Atomic.t;
}

let mk_table size =
  {
    slots = Array.init size (fun _ -> Atomic.make empty_slot);
    mask = size - 1;
    occupied = Atomic.make 0;
    next = Atomic.make None;
    migrate_cursor = Atomic.make 0;
    migrate_done = Atomic.make 0;
  }

let round_pow2 n =
  let rec go p = if p >= n || p >= 1 lsl 30 then p else go (p * 2) in
  go 16

let create ?(capacity = 8192) () =
  {
    current = Atomic.make (mk_table (round_pow2 capacity));
    count = Atomic.make 0;
    resizes = Atomic.make 0;
  }

(* Fingerprints are MD5 digests (uniformly random bytes), so the first
   word is already a good hash; short non-digest keys (tests) fall back
   to [Hashtbl.hash].  The multiply spreads entropy into the low bits
   used by small masks. *)
let hash key =
  let len = String.length key in
  if len >= 8 then begin
    let a = Int64.to_int (String.get_int64_le key 0) in
    let b = if len >= 16 then Int64.to_int (String.get_int64_le key (len - 8)) else len in
    let h = (a lxor b) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
  end
  else Hashtbl.hash key

let max_probe = 64
let migrate_chunk = 256

(* Re-insert a key carried over from a frozen table.  Only migration
   helpers call this, each on a disjoint chunk of old slots, and fresh
   claims are locked out of [nxt] until migration completes, so the CAS
   here can only contend with copies of *other* keys probing the same
   cluster. *)
let rec insert_copy nxt key i =
  let i = i land nxt.mask in
  let slot = nxt.slots.(i) in
  let s = Atomic.get slot in
  if s == empty_slot then begin
    if Atomic.compare_and_set slot empty_slot key then
      ignore (Atomic.fetch_and_add nxt.occupied 1)
    else insert_copy nxt key i (* lost to another copy: re-examine this slot *)
  end
  else if String.equal s key then () (* impossible for distinct old keys; harmless *)
  else insert_copy nxt key (i + 1)

(* Freeze one old slot and carry its key (if any) into the successor. *)
let rec migrate_slot tab nxt i =
  let slot = tab.slots.(i) in
  let s = Atomic.get slot in
  if s == empty_slot then begin
    if not (Atomic.compare_and_set slot empty_slot tombstone) then migrate_slot tab nxt i
  end
  else if s == tombstone then ()
  else insert_copy nxt s (hash s)

(* Help until the migration of [tab] is fully finished, then publish the
   successor.  Helpers claim disjoint chunks off the cursor; the final
   wait covers chunks still in flight on other domains (bounded by one
   chunk's work, so a spin is enough). *)
let finish_migration t tab nxt =
  let size = tab.mask + 1 in
  let rec grab () =
    let start = Atomic.fetch_and_add tab.migrate_cursor migrate_chunk in
    if start < size then begin
      let stop = min size (start + migrate_chunk) in
      for i = start to stop - 1 do
        migrate_slot tab nxt i
      done;
      ignore (Atomic.fetch_and_add tab.migrate_done (stop - start));
      grab ()
    end
  in
  grab ();
  while Atomic.get tab.migrate_done < size do
    Domain.cpu_relax ()
  done;
  ignore (Atomic.compare_and_set t.current tab nxt)

let start_resize t tab =
  if Atomic.get tab.next = None then begin
    let nxt = mk_table (2 * (tab.mask + 1)) in
    if Atomic.compare_and_set tab.next None (Some nxt) then
      ignore (Atomic.fetch_and_add t.resizes 1)
  end

(* A claimed slot counts toward occupancy; resize at 3/4 so probe
   clusters stay short.  The successor is installed here and migrated by
   whoever touches the table next (including this caller's next add). *)
let maybe_resize t tab =
  let occ = Atomic.fetch_and_add tab.occupied 1 + 1 in
  if 4 * occ > 3 * (tab.mask + 1) then start_resize t tab

let rec add t key =
  let tab = Atomic.get t.current in
  match Atomic.get tab.next with
  | Some nxt ->
      finish_migration t tab nxt;
      add t key
  | None ->
      let rec probe i dist =
        let i = i land tab.mask in
        let slot = tab.slots.(i) in
        let s = Atomic.get slot in
        if s == tombstone then begin
          (* A migration swept through our probe path: help it finish,
             then decide in the successor. *)
          (match Atomic.get tab.next with
          | Some nxt -> finish_migration t tab nxt
          | None -> assert false);
          add t key
        end
        else if s == empty_slot then begin
          if Atomic.compare_and_set slot empty_slot key then begin
            maybe_resize t tab;
            ignore (Atomic.fetch_and_add t.count 1);
            true
          end
          else probe i dist (* slot changed under us: re-examine it *)
        end
        else if String.equal s key then false
        else if dist >= max_probe then begin
          start_resize t tab;
          (match Atomic.get tab.next with
          | Some nxt -> finish_migration t tab nxt
          | None -> assert false);
          add t key
        end
        else probe (i + 1) (dist + 1)
      in
      probe (hash key) 0

let rec mem t key =
  let tab = Atomic.get t.current in
  match Atomic.get tab.next with
  | Some nxt ->
      finish_migration t tab nxt;
      mem t key
  | None ->
      let rec probe i dist =
        let i = i land tab.mask in
        let s = Atomic.get tab.slots.(i) in
        if s == empty_slot then false
        else if s == tombstone then mem t key (* migration raced us: retry *)
        else if String.equal s key then true
        else if dist >= max_probe then false
        else probe (i + 1) (dist + 1)
      in
      probe (hash key) 0

let cardinal t = Atomic.get t.count
let resizes t = Atomic.get t.resizes

(* Only meaningful quiesced; drain any in-flight migration first so the
   scan sees one complete table. *)
let rec settled t =
  let tab = Atomic.get t.current in
  match Atomic.get tab.next with
  | Some nxt ->
      finish_migration t tab nxt;
      settled t
  | None -> tab

let elements t =
  let tab = settled t in
  Array.fold_left
    (fun acc slot ->
      let s = Atomic.get slot in
      if s == empty_slot || s == tombstone then acc else s :: acc)
    [] tab.slots

