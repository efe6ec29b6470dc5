(** Step footprints: which shared object a pending shared-memory access
    touches, and how.

    The explorer's partial-order reduction ({!Rcons_runtime.Explore}
    with [?por:true]) derives its independence relation from footprints:
    two pending steps of {e different} processes commute whenever
    {!independent} holds of their footprints, so only one interleaving
    of the pair needs exploring.  Object constructors ({!val:fresh_oid})
    allocate per-execution object ids; replays are deterministic, so
    oids are stable per schedule prefix — the only property the
    independence relation needs, since it compares footprints of steps
    pending at the same state of the same execution. *)

(** How an access touches its object.  The persistency-aware kinds
    follow the PR 4 write-back model: an object's state is (volatile
    copy, durable copy, line owner). *)
type kind =
  | Read  (** returns object state, changes nothing *)
  | Write  (** overwrites (part of) the volatile copy *)
  | Update  (** read-modify-write: both observes and changes the state *)
  | Flush  (** persist barrier: copies volatile -> durable, cleans the line *)
  | Sync
      (** durability check: reads the volatile copy {e and} the line's
          clean/dirty status (the confirm step of [read_persist]) *)

type t =
  | Global  (** conflicts with every footprint, including [Global] —
                fences, un-annotated steps, first step of a run *)
  | Obj of { oid : int; kind : kind }

val independent : t -> t -> bool
(** Footprints on distinct objects are always independent; [Global] is
    independent of nothing.  On the same object the kinds decide:
    independent pairs are read/read, read/flush, read/sync, flush/flush
    and sync/sync.  Everything else conflicts — in particular a sync
    conflicts with a flush (the flush changes the line status the sync
    observes). *)

val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit

val fresh_oid : unit -> int
(** Allocate the next object id of the current execution (domain-local
    counter: parallel explorer domains never race). *)

val reset_oids : unit -> unit
(** Restart the allocator; the explorer calls this before building each
    system so oids are deterministic per schedule prefix. *)

val set_next_oid : int -> unit
(** Rewind (or advance) the allocator to a specific next id.  Undo
    journaling uses this to make allocations revertible: rolling a
    schedule back to a fork point restores the counter so the replayed
    branch allocates the same ids the original run did. *)
