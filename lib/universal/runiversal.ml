(* RUniversal: the recoverable universal construction of Section 4 and
   Figure 7 of the paper -- Herlihy's universal construction carried over
   to the independent-crash model, with all shared variables in
   non-volatile memory and recoverable consensus deciding each next
   pointer of the operation list.

   Every operation on the implemented object becomes a list node; the list
   order is the linearization order.  A process announces its node, then
   repeatedly helps append announced nodes (round-robin priority ensures
   wait-freedom) until its own node has a sequence number.  When a process
   crashes and recovers, it simply re-runs ApplyOperation for its last
   announced node (the paper's recovery function); the RC instances, the
   node fields and the announce/head arrays all survive in non-volatile
   memory, so the operation takes effect exactly once.

   The RC instance attached to each node is pluggable; the default is an
   atomic one-shot consensus object (n-recording for every n).  Plugging
   in the Figure 2 + tournament algorithm built from any n-recording
   readable type exercises the full stack of the paper.

   A persistent pointer is a node's invocation tag (pid, index): the
   announce/head cells and the RC instances hold tags, followed through
   the registry, so every cell and step result is plain data.  A node
   has exactly one tag value, which every write stores, so the physical
   silent store and the structural confirm tell tags apart exactly as
   they would the nodes. *)

open Rcons_runtime
module History = Rcons_history.History

type ('s, 'o, 'r) seq_spec = { init : 's; apply : 's -> 'o -> 's * 'r }

type tag = int * int
type 'v rc = { propose : int -> 'v -> 'v }

type ('s, 'o, 'r) node = {
  tag : tag; (* (pid, invocation index); (-1, -1) for the dummy *)
  hist_tag : int; (* correlation id in the recorded history; -1 if none *)
  node_op : 'o option; (* None only for the dummy node *)
  seq : int Cell.t; (* 0 until the node is appended *)
  new_state : 's option Cell.t;
  response : 'r option Cell.t;
  next : tag rc;
}

type ('s, 'o, 'r) t = {
  n : int;
  spec : ('s, 'o, 'r) seq_spec;
  make_rc : unit -> tag rc;
  announce : tag Cell.t array;
  head : tag Cell.t array;
  dummy : ('s, 'o, 'r) node;
  registry : (tag, ('s, 'o, 'r) node) Hashtbl.t;
      (* invocation tag -> node; makes [invoke] idempotent across crashes *)
  history : ('o, 'r) History.t option;
}

(* Follow a persistent pointer.  A tag in a cell was written after its
   node was registered, and a rollback that unregisters the node also
   reverts every cell holding its tag, so the lookup always hits. *)
let node t ((pid, _) as tag) = if pid < 0 then t.dummy else Hashtbl.find t.registry tag

(* The default RC: an atomic one-shot consensus object, made durable by
   a flush and a clean-line confirm in a system built with barriers on. *)
let one_shot_rc () =
  let c = Rcons_algo.One_shot.create () in
  { propose = (fun _pid v -> Rcons_algo.One_shot.decide_durable c v) }

(* Persist barriers come from the build; without them every access below
   is a plain read or write.  Shared reads are link-and-persist, the
   single-writer cells (announce, head) take a write-and-flush, and the
   multi-writer winner fields (new_state, response, seq) take
   [Cell.write_persist].  The helping races on those are value-benign --
   every helper writes the agreed value -- but NOT crash-benign under a
   per-owner write-back cache: a same-value helper write steals the
   line's ownership, and if that helper crashes before flushing, the
   line reverts -- silently undoing our write -- and our own flush then
   persists nothing.  (Found by the E15 service soak: a durable seq with
   a reverted new_state, "predecessor state missing".)  The clean-line
   confirm of [write_persist] closes that hole. *)

(* Under a heap arena a node's cells register when its process first
   invokes it, in an order that differs between schedules.  The
   constant tag slot registered first binds the field digests after it
   to their node, so equal field values under different tags never
   share a fingerprint. *)
let make_node ~make_rc ~tag ~hist_tag ~seq ~state op =
  ignore (Heap.register_c (fun () -> Rcons_spec.Object_type.digest tag));
  {
    tag;
    hist_tag;
    node_op = op;
    seq = Cell.make seq;
    new_state = Cell.make state;
    response = Cell.make None;
    next = make_rc ();
  }

let create ?history ?(make_rc = one_shot_rc) ~n spec =
  let dummy = make_node ~make_rc ~tag:(-1, -1) ~hist_tag:(-1) ~seq:1 ~state:(Some spec.init) None in
  {
    n;
    spec;
    make_rc;
    announce = Array.init n (fun _ -> Cell.make dummy.tag);
    head = Array.init n (fun _ -> Cell.make dummy.tag);
    dummy;
    registry = Hashtbl.create 64;
    history;
  }

(* Figure 7, ApplyOperation: ensure the announced node of process [i] is
   appended, helping the process whose id has round-robin priority. *)
let apply_operation t i =
  let announced = node t (Cell.read_persist t.announce.(i)) in
  let continue_loop () = Cell.read_persist announced.seq = 0 in
  while continue_loop () do
    let head = node t (Cell.read_persist t.head.(i)) in
    let head_seq = Cell.read_persist head.seq in
    let priority = (head_seq + 1) mod t.n in
    let priority_node = node t (Cell.read_persist t.announce.(priority)) in
    let pointer = if Cell.read_persist priority_node.seq = 0 then priority_node else announced in
    let winner = node t (head.next.propose i pointer.tag) in
    (* Fill in the winner's fields.  Concurrent helpers write identical
       values (the winner and the predecessor state are agreed upon), so
       the races are benign, as in Herlihy's construction.  With barriers
       on, each field is durable before the next write depends on it;
       the seq write is the node's commit point and must not become
       durable before the state/response it certifies. *)
    let prev_state =
      match Cell.read_persist head.new_state with
      | Some s -> s
      | None -> invalid_arg "RUniversal: predecessor state missing"
    in
    let op =
      match winner.node_op with
      | Some op -> op
      | None -> invalid_arg "RUniversal: dummy node won consensus"
    in
    let state', resp = t.spec.apply prev_state op in
    Cell.write_persist winner.new_state (Some state');
    Cell.write_persist winner.response (Some resp);
    Cell.write_persist winner.seq (head_seq + 1);
    Cell.write t.head.(i) winner.tag;
    Cell.flush t.head.(i)
  done;
  match Cell.read_persist announced.response with
  | Some r -> r
  | None -> invalid_arg "RUniversal: appended node has no response"

(* Figure 7, Universal(op), made idempotent per (pid, index): calling
   [invoke] again with the same invocation tag -- which is what the
   recovery function does after a crash -- reuses the announced node and
   returns the recorded response instead of re-executing the operation. *)
let invoke t ~pid ~index op =
  let nd =
    match Hashtbl.find_opt t.registry (pid, index) with
    | Some nd -> nd
    | None ->
        (* A rolled-back invocation disappears entirely.  The rollback
           feed never gets here: a node invoked before the mark is still
           registered, so the lookup hits. *)
        Undo.aside (fun () ->
            let saved = Option.map History.save t.history in
            let hist_tag = match t.history with Some h -> History.invoke h ~pid op | None -> -1 in
            let nd =
              make_node ~make_rc:t.make_rc ~tag:(pid, index) ~hist_tag ~seq:0 ~state:None (Some op)
            in
            Hashtbl.add t.registry (pid, index) nd;
            fun () ->
              (match (t.history, saved) with Some h, Some s -> History.restore h s | _ -> ());
              Hashtbl.remove t.registry (pid, index));
        Hashtbl.find t.registry (pid, index)
  in
  if Cell.read_persist t.announce.(pid) <> nd.tag then begin
    Cell.write t.announce.(pid) nd.tag;
    Cell.flush t.announce.(pid)
  end;
  (* Lines 120-125: catch the head pointer up so helping stays fresh. *)
  for j = 0 to t.n - 1 do
    let hj = node t (Cell.read_persist t.head.(j)) in
    let hi = node t (Cell.read_persist t.head.(pid)) in
    if Cell.read_persist hj.seq > Cell.read_persist hi.seq then begin
      Cell.write t.head.(pid) hj.tag;
      Cell.flush t.head.(pid)
    end
  done;
  let r = apply_operation t pid in
  (match t.history with
  | Some h when nd.hist_tag >= 0 ->
      (* Barrier-carrying runs certify durability: by the time
         ApplyOperation returned, the node's fields were read through
         link-and-persist barriers, so its effect can no longer be lost
         to a crash. *)
      Undo.aside (fun () ->
          let s = History.save h in
          if Persist.barriers () then History.persist h ~pid ~tag:nd.hist_tag;
          History.respond h ~pid ~tag:nd.hist_tag r;
          fun () -> History.restore h s)
  | Some _ | None -> ());
  r

(* The linearization order as recorded in the list: appended nodes carry
   unique positive sequence numbers.  Out-of-simulation inspection used by
   checkers and tests. *)
let linearization t =
  let nodes = Hashtbl.fold (fun _ nd acc -> nd :: acc) t.registry [] in
  nodes
  |> List.filter (fun nd -> Cell.peek nd.seq > 0)
  |> List.sort (fun a b -> compare (Cell.peek a.seq) (Cell.peek b.seq))

let applied_count t = List.length (linearization t)

(* The object's current (volatile) abstract state: the new_state of the
   appended node with the largest seq, [init] before any append -- one
   pass over the registry, no sort.  An appended node always has its
   state filled in -- the seq write follows the new_state write -- so the
   [None] arm is unreachable. *)
let current_state t =
  let _, last =
    Hashtbl.fold
      (fun _ nd ((best, _) as acc) ->
        let seq = Cell.peek nd.seq in
        if seq > best then (seq, Some nd) else acc)
      t.registry (0, None)
  in
  match last with
  | None -> t.spec.init
  | Some nd -> (
      match Cell.peek nd.new_state with
      | Some s -> s
      | None -> invalid_arg "RUniversal: appended node has no state")
