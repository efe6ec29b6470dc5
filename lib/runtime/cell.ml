(* One location of the simulated non-volatile memory: a read/write
   register, or -- through [Sim_obj], a typed view -- a shared object
   whose whole state is the cell's value.  Every access is one atomic
   step of the calling process.

   Persistency: when created under a non-eager [Persist] cache (see
   [Persist.attach]), the cell carries a cache line -- [contents] is the volatile copy every
   read sees, [persisted] the durable copy a crash may revert to.  With
   no cache (or an eager one) [line] is [None], [persisted] is unused,
   and behavior -- including the registered digest -- is bit-identical to
   the write-through model.

   Footprints: every cell carries a per-execution object id, and each of
   its accesses declares (oid, kind) so the partial-order-reducing
   explorer can tell which pending steps commute (accesses of distinct
   cells always do; see [Rcons_spec.Footprint] for the same-cell
   matrix). *)

open Rcons_spec

type 'a t = {
  mutable contents : 'a; (* volatile copy: what reads see *)
  mutable persisted : 'a; (* durable copy: what crashes revert to *)
  mutable line : Persist.line option;
  mutable hslot : Heap.slot option; (* fingerprint-cache slot, if registered *)
  oid : int; (* per-execution object id, for step footprints *)
  label : string; (* step label of its reads, writes and confirms *)
}

(* Undo journaling: every store to [contents]/[persisted] pushes a
   restore closure while a journal is recording, and every restore also
   re-dirties the fingerprint-cache slot -- a clean slot must always
   mean "cached digest = current state", including after a rollback. *)
let store_contents c v =
  if Undo.recording () then begin
    let old = c.contents in
    Undo.log (fun () ->
        c.contents <- old;
        Heap.touch c.hslot)
  end;
  c.contents <- v;
  Heap.touch c.hslot

let store_persisted c v =
  if Undo.recording () then begin
    let old = c.persisted in
    Undo.log (fun () ->
        c.persisted <- old;
        Heap.touch c.hslot)
  end;
  c.persisted <- v;
  Heap.touch c.hslot

(* The oid allocation is journaled too, so a rolled-back branch hands
   out the same ids on re-execution (footprint-based POR keys on
   them). *)
let alloc ~label v =
  let oid = Footprint.fresh_oid () in
  let c = { contents = v; persisted = v; line = None; hslot = None; oid; label } in
  if Undo.recording () then Undo.log (fun () -> Footprint.set_next_oid oid);
  c.line <-
    Persist.attach
      ~touch:(fun () -> Heap.touch c.hslot)
      ~persist:(fun () -> store_persisted c c.contents)
      ~revert:(fun () -> store_contents c c.persisted)
      ();
  c

(* A cell whose state is digested through some enclosing container's
   registration (Growable) rather than its own; [?slot] is the
   container's cache slot, so entry mutations invalidate the container
   digest.  Still acquires a cache line. *)
let make_unregistered ?slot v =
  let c = alloc ~label:"register" v in
  c.hslot <- slot;
  c

let footprint c kind = Footprint.Obj { oid = c.oid; kind }

(* The durable copy and the line owner are part of the global state:
   two executions in which the same value was written but only one
   flushed it have different futures.  A plain cell digests the triple
   generically; a cell with its own [digest] (a typed object's state
   digest) writes the volatile copy length-prefixed, the owner as an
   8-byte pid ([-1] when the line is clean), then the durable copy. *)
let make ?(label = "register") ?digest v =
  let c = alloc ~label v in
  c.hslot <-
    (match (c.line, digest) with
    | None, None -> Heap.register_c (fun () -> Object_type.digest c.contents)
    | None, Some d -> Heap.register_c (fun () -> d c.contents)
    | Some l, None ->
        Heap.register_sym_c (fun perm ->
            Object_type.digest (c.contents, c.persisted, Persist.owner ?perm l))
    | Some l, Some d ->
        Heap.register_sym_c (fun perm ->
            let dv = d c.contents and dp = d c.persisted in
            let nv = String.length dv in
            let b = Bytes.create (16 + nv + String.length dp) in
            Bytes.set_int64_le b 0 (Int64.of_int nv);
            Bytes.blit_string dv 0 b 8 nv;
            Bytes.set_int64_le b (8 + nv)
              (Int64.of_int (match Persist.owner ?perm l with None -> -1 | Some p -> p));
            Bytes.blit_string dp 0 b (16 + nv) (String.length dp);
            Bytes.unsafe_to_string b));
  c

let read c = Sim.step ~label:c.label ~fp:(footprint c Footprint.Read) (fun () -> c.contents)

(* Silent-store elision: a write whose value is physically identical to
   the current volatile contents changes nothing, so it is absorbed into
   the pending delta without re-owning the line -- otherwise a helper
   re-writing the same node tag would take ownership of the original
   writer's un-persisted change and its crash would revert it.  It is
   physical, unlike the structural confirm, and conservative: equal but
   distinct values still dirty the line.  Pinned state spaces rest on
   it: a structural test takes explore-reduced from 120 843 to 90 132
   nodes and changes both serve digests (a physical confirm instead
   gives 129 031 and another serve-churn digest).  Inside a step this
   dirties the line; outside any step the write is durable at once. *)
let poke c v =
  if not (v == c.contents) then begin
    store_contents c v;
    Option.iter Persist.dirty c.line
  end

let write c v = Sim.step ~label:c.label ~fp:(footprint c Footprint.Write) (fun () -> poke c v)
let flush c = if Persist.barriers () then Sim.flush ~fp:(footprint c Footprint.Flush) c.line
let line c = c.line

(* The confirm step of the link-and-persist loops: the contents and
   whether the line is clean, observed atomically -- hence its [Sync]
   footprint.  A clean line means contents = persisted, so a confirmed
   value is durable. *)
let confirm c =
  Sim.step ~label:c.label ~fp:(footprint c Footprint.Sync) (fun () ->
      (c.contents, match c.line with None -> true | Some l -> Persist.owner l = None))

let structural a b = a == b || a = b

(* Read a value that is guaranteed durable: read, flush the line, and
   confirm that the line is clean and the value unchanged.  Value
   equality alone is not enough: the writer may crash (reverting its
   write) and re-write the same value between our flush and our re-read,
   so the two reads match while the flush persisted the reverted state.
   Always read + flush + confirm steps per attempt, whatever the policy.
   Cell values are plain data, so the two reads compare structurally
   (physically first: an unchanged cell returns the same value). *)
let rec read_persist c =
  if not (Persist.barriers ()) then read c
  else
    let v = read c in
    flush c;
    let v', clean = confirm c in
    if clean && structural v v' then v' else read_persist c

(* Write a value until it is guaranteed durable: write, flush, and
   confirm that the contents still match AND the line is clean.  Value
   equality alone is not enough on the confirm: a concurrent helper
   writing an equal but physically-distinct value between our flush
   and our read-back re-dirties the line (silent-store elision is
   physical), so the read-back matches while the durable copy may
   still be the pre-write state; a crash of that helper would then
   revert the cell.  On success the written value is durable no matter
   whose allocation persisted it.  On failure we re-write and retry;
   interfering writes (helpers, crash-replayed recoveries) are finitely
   many, so the loop terminates.  Exactly write + flush + confirm steps
   per attempt under every policy. *)
let rec write_persist c v =
  write c v;
  if Persist.barriers () then begin
    flush c;
    let v', clean = confirm c in
    if not (clean && structural v v') then write_persist c v
  end

(* Direct access for set-up and checking code running outside the
   simulation (not a process step). *)
let peek c = c.contents

(* With no cache line, writes are write-through and only [contents] is
   maintained, so the durable copy IS the volatile one; [persisted]
   would be the stale initial value. *)
let peek_persisted c = match c.line with None -> c.contents | Some _ -> c.persisted
