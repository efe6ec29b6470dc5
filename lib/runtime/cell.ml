(* Shared read/write registers living in the simulated non-volatile memory.
   Every access is one atomic step of the calling process.

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
}

(* Undo journaling: every mutation of [contents]/[persisted] pushes a
   restore closure while a journal is recording, and every restore also
   re-dirties the fingerprint-cache slot -- a clean slot must always
   mean "cached digest = current state", including after a rollback.
   The oid allocation is journaled too, so a rolled-back branch hands
   out the same ids on re-execution (footprint-based POR keys on
   them). *)
let alloc v =
  let c = { contents = v; persisted = v; line = None; hslot = None; oid = Footprint.fresh_oid () } in
  if Undo.recording () then begin
    let oid = c.oid in
    Undo.log (fun () -> Footprint.set_next_oid oid)
  end;
  c.line <-
    Persist.attach
      ~touch:(fun () -> Heap.touch c.hslot)
      ~persist:(fun () ->
        if Undo.recording () then begin
          let old = c.persisted in
          Undo.log (fun () ->
              c.persisted <- old;
              Heap.touch c.hslot)
        end;
        c.persisted <- c.contents;
        Heap.touch c.hslot)
      ~revert:(fun () ->
        if Undo.recording () then begin
          let old = c.contents in
          Undo.log (fun () ->
              c.contents <- old;
              Heap.touch c.hslot)
        end;
        c.contents <- c.persisted;
        Heap.touch c.hslot)
      ();
  c

(* A cell whose state is digested through some enclosing container's
   registration (Growable) rather than its own; [?slot] is the
   container's cache slot, so entry mutations invalidate the container
   digest.  Still acquires a cache line. *)
let make_unregistered ?slot v =
  let c = alloc v in
  c.hslot <- slot;
  c

let footprint c kind = Footprint.Obj { oid = c.oid; kind }

let make v =
  let c = alloc v in
  (match c.line with
  | None -> c.hslot <- Heap.register_c (fun () -> Heap.digest c.contents)
  | Some l ->
      (* The durable copy and the line owner are part of the global
         state: two executions in which the same value was written but
         only one flushed it have different futures.  The owner is a
         pid, so it is relabeled when the snapshot carries a process
         permutation (symmetry canonicalization). *)
      c.hslot <-
        Heap.register_sym_c (fun perm ->
            let owner =
              match (Persist.owner l, perm) with
              | None, _ -> None
              | Some p, None -> Some p
              | Some p, Some perm -> Some perm.(p)
            in
            Heap.digest (c.contents, c.persisted, owner)));
  c

let read c = Sim.step ~label:"register" ~fp:(footprint c Footprint.Read) (fun () -> c.contents)

(* Silent-store elision: a write whose value is physically identical to
   the current volatile contents changes nothing, so it is absorbed into
   the pending delta without re-owning the line -- otherwise a helper
   re-writing the same node would take ownership of the original
   writer's un-persisted change and its crash would revert it.  Physical
   equality is the only safe generic test (cell values may contain
   closures); it is conservative -- structurally equal but distinct
   values still dirty the line, which costs nothing but precision. *)
let set_contents c v =
  if not (v == c.contents) then begin
    if Undo.recording () then begin
      let old = c.contents in
      Undo.log (fun () ->
          c.contents <- old;
          Heap.touch c.hslot)
    end;
    c.contents <- v;
    Heap.touch c.hslot;
    true
  end
  else false

let write c v =
  Sim.step ~label:"register" ~fp:(footprint c Footprint.Write) (fun () ->
      match c.line with
      | None -> ignore (set_contents c v)
      | Some l -> if set_contents c v then Persist.dirty l)

let flush c = Sim.flush ~fp:(footprint c Footprint.Flush) c.line
let line c = c.line

(* Read a value that is guaranteed durable: read, flush the line, and
   re-read to confirm the line is CLEAN and the value unchanged -- the
   link-and-persist pattern.  Value equality alone is not enough: the
   writer may crash (reverting its write) and re-write the same value
   between our flush and our re-read, so the two reads match while the
   flush persisted the reverted state.  A clean line, checked atomically
   within the re-read step, means contents = persisted, so the returned
   value is durable.  Always read + flush + read steps per attempt,
   whatever the policy.  [equal] compares the two reads (default
   structural; pass [( == )] for values that cannot be compared
   structurally).  The confirm step observes the line's clean/dirty
   status on top of the contents, hence its [Sync] footprint. *)
let rec read_persist ?(equal = ( = )) c =
  let v = read c in
  flush c;
  let v', clean =
    Sim.step ~label:"register" ~fp:(footprint c Footprint.Sync) (fun () ->
        (c.contents, match c.line with None -> true | Some l -> Persist.owner l = None))
  in
  if clean && equal v v' then v' else read_persist ~equal c

(* Write a value until it is guaranteed durable: write, flush, and
   confirm -- in one atomic step, like [read_persist]'s confirm -- that
   the contents still match AND the line is clean.  Value equality alone
   is not enough on the confirm: a concurrent helper writing a
   structurally-equal but physically-distinct value between our flush
   and our read-back re-dirties the line (silent-store elision is
   physical), so the read-back matches while the durable copy may still
   be the pre-write state; a crash of that helper would then revert the
   cell.  A clean line means contents = persisted, so on success the
   written value is durable no matter whose allocation persisted it.
   On failure we re-write and retry; interfering writes (helpers,
   crash-replayed recoveries) are finitely many, so the loop
   terminates.  Exactly write + flush + confirm steps per attempt under
   every policy. *)
let rec write_persist ?(equal = ( = )) c v =
  write c v;
  flush c;
  let v', clean =
    Sim.step ~label:"register" ~fp:(footprint c Footprint.Sync) (fun () ->
        (c.contents, match c.line with None -> true | Some l -> Persist.owner l = None))
  in
  if not (clean && equal v v') then write_persist ~equal c v

(* Direct access for set-up and checking code running outside the
   simulation (not a process step).  A [poke] from set-up code is
   durable; a [poke] from inside a step (the read-modify-write of
   [One_shot.decide]) dirties the line like any other write. *)
let peek c = c.contents

(* With no cache line, writes are write-through and only [contents] is
   maintained, so the durable copy IS the volatile one; [persisted]
   would be the stale initial value. *)
let peek_persisted c = match c.line with None -> c.contents | Some _ -> c.persisted

let poke c v =
  match c.line with
  | None -> ignore (set_contents c v)
  | Some l -> if set_contents c v then Persist.dirty l
