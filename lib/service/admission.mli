(** Admission control: a bounded FIFO of pending operations per hosted
    instance.  When the queue is full the submission is {e shed} -- the
    client gets an explicit [Overloaded] answer and backs off; nothing
    is ever dropped silently and nothing blocks, so overload degrades
    throughput instead of deadlocking the worker pool.  Counters feed
    the soak report's shed-rate. *)

type 'a t

val create : cap:int -> 'a t
(** @raise Invalid_argument when [cap < 1]. *)

val is_empty : 'a t -> bool

val try_enqueue : 'a t -> 'a -> bool
(** [true] = admitted; [false] = queue full, counted as shed. *)

val pop_up_to : 'a t -> int -> 'a list
(** Dequeue up to [n] items in FIFO order (one dispatch batch). *)

val admitted : 'a t -> int
(** Total submissions admitted over the queue's lifetime. *)

val shed : 'a t -> int
(** Total submissions rejected ([try_enqueue] = [false]). *)

val high_water : 'a t -> int
(** Maximum queue length ever reached. *)
