(* A shared object of a given sequential type, living in the simulated
   non-volatile memory.  [apply] performs one update operation atomically
   (one step); [read] is the READ operation of readable types, returning
   the entire state without changing it.

   A READ returns the whole state, so an object is one non-volatile
   location like a register: it is a typed view of one [Cell] holding
   the state.  The cell owns the volatile/durable pair, the undo
   journaling, the cache line and the fingerprint digest (the type's
   [digest_state]); this module adds the type's transition function. *)

open Rcons_spec

type ('s, 'o, 'r) t = {
  cell : 's Cell.t;
  name : string;
  apply_spec : 's -> 'o -> 's * 'r;
  op_kind : 'o -> Footprint.kind; (* footprint classification of updates *)
  equal_state : 's -> 's -> bool;
}

let make (type s o r)
    (module T : Object_type.S with type state = s and type op = o and type resp = r) init =
  {
    cell = Cell.make ~label:(T.name ^ ".read") ~digest:T.digest_state init;
    name = T.name;
    apply_spec = T.apply;
    op_kind = T.op_kind;
    equal_state = (fun a b -> T.compare_state a b = 0);
  }

(* Silent stores do not dirty the line: an operation that leaves the
   state unchanged (e.g. setting an already-set sticky bit) has nothing
   new to persist, so it must not take ownership of the line -- the
   pending un-persisted delta still belongs to the process that actually
   changed the state, and only THAT process's crash may revert it.
   Without this, a no-op apply by q would re-own p's un-flushed change
   and q's crash would silently destroy p's write. *)
let apply t op =
  Sim.step ~label:t.name ~fp:(Cell.footprint t.cell (t.op_kind op)) (fun () ->
      let state = Cell.peek t.cell in
      let state', resp = t.apply_spec state op in
      if not (t.equal_state state' state) then Cell.poke t.cell state';
      resp)

let read t = Cell.read t.cell
let flush t = Cell.flush t.cell
let read_persist t = Cell.read_persist t.cell

let peek t = Cell.peek t.cell
