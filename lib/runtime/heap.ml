(* Registry of the simulated non-volatile heap, for state fingerprinting.

   Shared objects (Cell, Growable, Sim_obj, the algorithm-level output
   logs) live in ordinary OCaml values closed over by process bodies, so
   the simulator cannot enumerate them by itself.  When an arena is
   active on the current domain, every object constructor registers a
   digest thunk for its non-volatile state; [snapshot_into] then
   concatenates the digests in registration order, which is
   deterministic because system builders are deterministic.  With no
   active arena (the default, and always the case outside
   [Explore ~dedup:true]) registration is a no-op, so ordinary
   simulations pay nothing.

   The arena is domain-local: each parallel explorer walker builds and
   runs one system at a time on its own domain, and lazily created
   objects (Growable entries, the consensus instances of Figure 4) must
   keep registering into the arena of the system currently executing.

   Incremental fingerprinting: the runtime's own containers register
   through [register_c]/[register_sym_c], which return a cache slot.
   The container marks the slot dirty ([touch]) on every mutation of the
   digested state; [snapshot_into] recomputes only dirty slots and
   serves the rest from cache, so the heap half of the per-state hashing
   cost on the explorer's dedup path is O(mutations since the last
   snapshot) digest thunks plus one cached-string append per clean slot.
   The emitted bytes are identical to recomputing everything,
   so fingerprints, visited sets and checkpoints are unaffected.  The
   plain [register] (used by external instrumentation, e.g. bench
   harnesses digesting a History) keeps its always-recompute
   semantics — no touch discipline is demanded of arbitrary thunks. *)

(* Digest thunks take an optional process relabeling [perm]
   ([perm.(old_pid) = new_pid], None = identity): the explorer's
   process-symmetry canonicalization snapshots the heap under candidate
   relabelings, and the handful of containers whose digests mention pids
   (cache-line owners, the per-process output logs) must relabel them.
   Pid-free digests ignore the argument ([register] wraps them), so a
   [None] snapshot is byte-identical to the pre-symmetry format. *)
type slot = {
  thunk : int array option -> string;
  sym : bool; (* digest mentions pids: perm snapshots must recompute *)
  cacheable : bool; (* mutations promise to [touch]; cache is sound *)
  mutable framed : string; (* the cached digest as emitted: "len:digest" *)
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
let active () = Domain.DLS.get key <> None

(* Registrations during an undo-engine walk (lazily created objects:
   Growable entries trigger container re-digests, Figure 4 creates
   consensus instances on demand) must unwind with the rollback, or a
   rolled-back branch would leave phantom digests in the arena. *)
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
      let s = { thunk = f; sym; cacheable; framed = ""; dirty = true } in
      add a s;
      Some s

let register f = ignore (register_slot ~sym:false ~cacheable:false (fun _ -> f ()))
let register_sym_c f = register_slot ~sym:true ~cacheable:true f
let register_c f = register_slot ~sym:false ~cacheable:true (fun _ -> f ())
let touch = function None -> () | Some s -> s.dirty <- true

(* Canonical digest of a plain-data value: with sharing expanded
   ([No_sharing]) the marshalled bytes coincide with structural equality;
   [Closures] keeps it total on values capturing functions (code pointers
   are stable within one binary, which is all one exploration spans). *)
let digest_flags = [ Marshal.No_sharing; Marshal.Closures ]
let digest v = Marshal.to_string v digest_flags

(* [digest v] written into [b] from [ofs] on; returns its length.  Raises
   [Failure] when it does not fit. *)
let digest_to_bytes b ofs v = Marshal.to_buffer b ofs (Bytes.length b - ofs) v digest_flags

(* Length-prefix each digest so object boundaries are unambiguous.  The
   [_into] form appends to a caller-owned buffer so the explorer's batch
   fingerprinting can reuse one scratch buffer across a whole chunk of
   states instead of allocating a fresh buffer (and an intermediate
   string) per expanded node.

   Cache policy per slot: a cacheable slot is recomputed only while
   dirty, and caches its bytes already framed, so a clean slot costs one
   append; under a [perm] relabeling, pid-bearing ([sym]) slots are
   always recomputed (their bytes depend on the perm), while pid-free
   cacheable slots still serve the cache (their bytes cannot).  A
   refresh always digests under [None], which for a pid-free thunk is
   the same value.  Rehash counters batch into one telemetry note per
   snapshot. *)
let frame d = string_of_int (String.length d) ^ ":" ^ d

let snapshot_into ?perm b a =
  let full = ref 0 and saved = ref 0 in
  List.iter
    (fun s ->
      if (not s.cacheable) || (s.sym && Option.is_some perm) then begin
        incr full;
        Buffer.add_string b (frame (s.thunk perm))
      end
      else begin
        if s.dirty then begin
          s.framed <- frame (s.thunk None);
          s.dirty <- false;
          incr full
        end
        else incr saved;
        Buffer.add_string b s.framed
      end)
    a.slots;
  Rcons_par.Pool.Telemetry.note_rehashes ~full:!full ~saved:!saved
