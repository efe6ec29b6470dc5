(* Registry of the simulated non-volatile heap, for state fingerprinting.

   Shared objects (Cell, Growable, Sim_obj, the algorithm-level output
   logs) live in ordinary OCaml values closed over by process bodies, so
   the simulator cannot enumerate them by itself.  When an arena is
   active on the current domain, every object constructor registers a
   digest thunk for its non-volatile state; [digest_into] then combines
   the slot digests into one 16-byte heap digest.  Each slot's digest
   covers its registration index, which is deterministic because system
   builders are deterministic.  With no active arena (the default, and
   always the case outside [Explore ~dedup:true]) registration is a
   no-op, so ordinary simulations pay nothing.

   The arena is domain-local: each parallel explorer walker builds and
   runs one system at a time on its own domain, and lazily created
   objects (Growable entries, the consensus instances of Figure 4) must
   keep registering into the arena of the system currently executing.

   Incremental fingerprinting: the runtime's own containers register
   through [register_c]/[register_sym_c], which return a cache slot.
   The container marks the slot dirty ([touch]) on every mutation of the
   digested state; [digest_into] re-digests only dirty slots and serves
   the rest from cache, so the heap half of the per-state hashing cost
   on the explorer's dedup path is O(mutations since the last snapshot)
   digest thunks and MD5s plus two 64-bit additions per clean slot.  The
   result is identical to recomputing everything, so fingerprints,
   visited sets and checkpoints are unaffected.  The plain [register]
   (used by external instrumentation, e.g. bench harnesses digesting a
   History) keeps its always-recompute semantics — no touch discipline
   is demanded of arbitrary thunks. *)

(* Digest thunks take an optional process relabeling [perm]
   ([perm.(old_pid) = new_pid], None = identity): the explorer's
   process-symmetry canonicalization digests the heap under candidate
   relabelings, and the handful of containers whose digests mention pids
   (cache-line owners, the per-process output logs) must relabel them.
   Pid-free digests ignore the argument ([register] wraps them), so an
   identity relabeling digests exactly as [None] does. *)
type slot = {
  thunk : int array option -> string;
  sym : bool; (* digest mentions pids: perm snapshots must recompute *)
  cacheable : bool; (* mutations promise to [touch]; cache is sound *)
  index : int; (* registration index: the slot's position in its arena *)
  mutable d : string; (* the cached slot digest, MD5 (index ‖ thunk None) *)
  mutable dirty : bool;
}

type t = {
  mutable slots : slot list; (* reverse registration order *)
}

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create () = { slots = [] }
let activate a = Domain.DLS.set key (Some a)
let deactivate () = Domain.DLS.set key None
let current () = Domain.DLS.get key

(* Registrations during an undo-engine walk (lazily created objects:
   Growable entries trigger container re-digests, Figure 4 creates
   consensus instances on demand) must unwind with the rollback, or a
   rolled-back branch would leave phantom digests in the arena.  The
   index comes from the list head, so it unwinds with it: a branch
   re-executed after a rollback hands out the same indices. *)
let add a s =
  if Undo.recording () then begin
    let old = a.slots in
    Undo.log (fun () -> a.slots <- old)
  end;
  a.slots <- s :: a.slots

let register_slot ~sym ~cacheable f =
  match Domain.DLS.get key with
  | None -> None
  | Some a ->
      let index = match a.slots with [] -> 0 | s :: _ -> s.index + 1 in
      let s = { thunk = f; sym; cacheable; index; d = ""; dirty = true } in
      add a s;
      Some s

let register f = ignore (register_slot ~sym:false ~cacheable:false (fun _ -> f ()))
let register_sym_c f = register_slot ~sym:true ~cacheable:true f
let register_c f = register_slot ~sym:false ~cacheable:true (fun _ -> f ())
let touch = function None -> () | Some s -> s.dirty <- true

(* A slot's digest: MD5 of its registration index (8 bytes) followed by
   its thunk's bytes, hashed from a domain-local scratch so only the
   16-byte result is allocated.  The index is fixed-width, so the split
   is unambiguous. *)
let scratch : bytes ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

let slot_digest s perm =
  let v = s.thunk perm in
  let n = String.length v in
  let r = Domain.DLS.get scratch in
  if Bytes.length !r < 8 + n then r := Bytes.create (2 * (8 + n));
  let b = !r in
  Bytes.set_int64_le b 0 (Int64.of_int s.index);
  Bytes.blit_string v 0 b 8 n;
  Digest.subbytes b 0 (8 + n)

(* The heap digest is the sum of the slot digests, read as two 64-bit
   lanes and added mod 2^64 (AdHash).  The sum does not depend on the
   order the slots are visited in; order-awareness comes from the index
   inside each slot digest.  Collisions: between two heaps, the slot
   digests that differ are MD5s of pairwise distinct (index, bytes)
   inputs (indices are unique within a heap, and a shared index carries
   different bytes), so the two sums differ by a sum of independent
   uniform 128-bit values and agree with probability 2^-128, as two MD5s
   do.  The heaps are not chosen adversarially, which is all AdHash's
   weakness (subset sums) would need.

   Cache policy per slot: a cacheable slot is re-digested only while
   dirty; under a [perm] relabeling, pid-bearing ([sym]) slots are
   always re-digested (their bytes depend on the perm), while pid-free
   cacheable slots still serve the cache (their bytes cannot).  A
   refresh always digests under [None], which for a pid-free thunk is
   the same value.  Rehash counters batch into one telemetry note per
   snapshot. *)
let add_lanes b pos d =
  Bytes.set_int64_le b pos (Int64.add (Bytes.get_int64_le b pos) (String.get_int64_le d 0));
  Bytes.set_int64_le b (pos + 8)
    (Int64.add (Bytes.get_int64_le b (pos + 8)) (String.get_int64_le d 8))

let digest_into ?perm b pos a =
  Bytes.fill b pos 16 '\000';
  let rec go full saved = function
    | [] -> Rcons_par.Pool.Telemetry.note_rehashes ~full ~saved
    | s :: rest ->
        if (not s.cacheable) || (s.sym && Option.is_some perm) then begin
          add_lanes b pos (slot_digest s perm);
          go (full + 1) saved rest
        end
        else if s.dirty then begin
          s.d <- slot_digest s None;
          s.dirty <- false;
          add_lanes b pos s.d;
          go (full + 1) saved rest
        end
        else begin
          add_lanes b pos s.d;
          go full (saved + 1) rest
        end
  in
  go 0 0 a.slots
