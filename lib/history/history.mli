(** Concurrent operation histories with crash markers.

    A history records, in global time order, invocation and response
    events of high-level operations plus process-crash markers.  Each
    operation carries a unique tag, so an operation interrupted by a
    crash and completed by the recovery code appears as ONE operation
    whose response arrives late -- the shape of history the recoverable
    universal construction produces. *)

type ('o, 'r) event =
  | Invoke of { pid : int; tag : int; op : 'o }
  | Response of { pid : int; tag : int; resp : 'r }
  | Crash of { pid : int }
  | Persist of { pid : int; tag : int }
      (** The effect of operation [tag] is durable from this point on;
          recorded by persist-annotated implementations after their
          write-back barriers complete.  Consumed by
          [Conditions.durably_linearizable]. *)

type ('o, 'r) t

val create : unit -> ('o, 'r) t

val invoke : ('o, 'r) t -> pid:int -> 'o -> int
(** Record an invocation; returns its fresh tag. *)

val respond : ('o, 'r) t -> pid:int -> tag:int -> 'r -> unit
val crash : ('o, 'r) t -> pid:int -> unit
val persist : ('o, 'r) t -> pid:int -> tag:int -> unit
val events : ('o, 'r) t -> ('o, 'r) event list

val rev_events : ('o, 'r) t -> ('o, 'r) event list
(** The events newest first, without a copy: O(1), for readers that
    only need a recent suffix of a long history. *)

type ('o, 'r) saved
(** An O(1) structural snapshot of a history (the event list is
    immutable).  Lets simulation layers undo-journal their history
    appends while this library stays runtime-agnostic. *)

val save : ('o, 'r) t -> ('o, 'r) saved
val restore : ('o, 'r) t -> ('o, 'r) saved -> unit

(** One operation extracted from a history; [res = max_int] and
    [resp = None] when pending (cut off by a final crash). *)
type ('o, 'r) operation = {
  op_pid : int;
  op_tag : int;
  op : 'o;
  resp : 'r option;
  inv : int;
  res : int;
}

val operations : ('o, 'r) t -> ('o, 'r) operation list
(** Operations ordered by invocation index.
    @raise Invalid_argument on a response without an invocation. *)

val num_crashes : ('o, 'r) t -> int
