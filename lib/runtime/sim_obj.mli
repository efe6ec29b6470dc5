(** A shared object of a given sequential type in the simulated
    non-volatile memory.  {!apply} performs one update atomically (one
    step); {!read} is the READ of readable types, returning the entire
    state without changing it.

    An object is a typed view of one {!Cell} holding its state: the
    cell carries the durable copy, the cache line and the {!Heap}
    registration (digested with the type's [digest_state]); its reads
    and confirm steps are labelled [name ^ ".read"], its updates
    [name]. *)

type ('s, 'o, 'r) t

val make :
  (module Rcons_spec.Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
  's ->
  ('s, 'o, 'r) t

val apply : ('s, 'o, 'r) t -> 'o -> 'r
(** One update, declared with the type's [op_kind].  An update that
    leaves the state unchanged (by [compare_state]) writes nothing, so
    it does not take over a dirty cache line. *)

val read : ('s, 'o, 'r) t -> 's

val flush : ('s, 'o, 'r) t -> unit
(** Persist barrier for this object's cache line (see {!Cell.flush}). *)

val read_persist : ('s, 'o, 'r) t -> 's
(** Link-and-persist read ({!Cell.read_persist}): the returned state is
    durable.  Exactly read + flush + confirm steps per attempt under
    every policy; states are compared with the type's
    [compare_state]. *)

val peek : ('s, 'o, 'r) t -> 's
(** Out-of-simulation inspection. *)
