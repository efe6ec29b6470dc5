(* Step footprints: which shared object a pending shared-memory access
   touches, and how.  The explorer's partial-order reduction derives its
   independence relation from these — two pending steps of different
   processes commute whenever their footprints are independent, so only
   one interleaving of the pair needs exploring.

   A footprint names the touched object by a per-execution object id
   ([oid]) allocated at object creation time.  Replays are deterministic,
   so the object created k-th under a given schedule prefix has the same
   oid in every replay of that prefix — which is all the independence
   relation needs, since it only ever compares footprints of steps
   pending at the same state of the same execution.

   [Global] is the conservative footprint: it conflicts with everything
   (used for fences, for un-annotated raw [Sim.step]s, and for the first
   step of a process run, whose access is not yet known). *)

type kind =
  | Read  (** returns object state, changes nothing *)
  | Write  (** overwrites (part of) the volatile copy *)
  | Update  (** read-modify-write: both observes and changes the state *)
  | Flush  (** persist barrier: copies volatile -> durable, cleans the line *)
  | Sync
      (** durability check: reads the volatile copy {e and} the line's
          clean/dirty status (the confirm step of [read_persist]) *)

type t =
  | Global  (** conflicts with every footprint, including [Global] *)
  | Obj of { oid : int; kind : kind }

(* Conflict matrix on one object.  Independent pairs: two reads; a read
   and a flush (a flush changes only the durable copy and the line
   status, which a read does not observe); two flushes (both leave
   volatile = durable, clean — idempotent and order-indifferent); a read
   and a sync; two syncs.  A sync conflicts with writes, updates and
   flushes: it observes the line status, which all three change.  Writes
   and updates conflict with everything (they change what reads and
   syncs observe, re-dirty what flushes clean, and do not commute with
   each other). *)
let kinds_independent a b =
  match (a, b) with
  | Read, (Read | Flush | Sync) | (Flush | Sync), Read -> true
  | Flush, Flush | Sync, Sync -> true
  | _ -> false

let independent a b =
  match (a, b) with
  | Global, _ | _, Global -> false
  | Obj a, Obj b -> a.oid <> b.oid || kinds_independent a.kind b.kind

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Read -> "read"
    | Write -> "write"
    | Update -> "update"
    | Flush -> "flush"
    | Sync -> "sync")

(* Per-execution object-id allocator.  Domain-local so parallel explorer
   walkers (one system at a time per domain) never race; reset by the
   explorer before each system is built, so oids are deterministic per
   schedule prefix. *)
let next : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let fresh_oid () =
  let r = Domain.DLS.get next in
  let v = !r in
  incr r;
  v

let reset_oids () = Domain.DLS.get next := 0
let set_next_oid v = Domain.DLS.get next := v
