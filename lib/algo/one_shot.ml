(* One-shot recoverable consensus from a single atomic consensus-style
   primitive (a sticky cell: the first proposal wins and is recorded
   forever).  This is the "hardware" RC instance used inside the universal
   construction (Section 4) for the next-pointers of list nodes, and as
   the consensus building block C_r of the simultaneous-crash algorithm.

   Recoverability is immediate: the winning value persists in non-volatile
   memory, and repeated proposals (by recovered processes) return the
   recorded winner.  Under a write-back cache, [decide_durable] returns
   a winner only once it is durable: confirmed on a clean line, the
   same check [Cell.write_persist] makes.  Such an object is
   n-recording for every n -- see the [Consensus_obj] and [Cas] entries
   of the catalogue. *)

open Rcons_runtime

type 'v t = { cell : 'v option Cell.t }

let create () = { cell = Cell.make None }

(* Atomic propose: one step, like any other object operation. *)
let decide t v =
  Sim.step ~label:"one-shot-consensus"
    ~fp:(Cell.footprint t.cell Rcons_spec.Footprint.Update) (fun () ->
      match Cell.peek t.cell with
      | Some w -> w
      | None ->
          Cell.poke t.cell (Some v);
          v)

(* Durable propose for the write-back cache model: the winning [poke]
   above is an ordinary cached write, so under a lossy policy the
   "sticky" decision can vanish with its proposer's crash until flushed.
   With barriers on, propose, flush the cell, and confirm that the
   winner is still there AND the line is clean; retry otherwise.  A
   value read-back alone is not enough: the proposer may crash
   (reverting the line) and re-propose the same value between our flush
   and our read-back, which then matches while the durable copy is
   still undecided -- a later crash reverts it and another value wins.
   Winners are plain data, compared structurally. *)
let rec decide_durable t v =
  let w = decide t v in
  if not (Persist.barriers ()) then w
  else (
    Cell.flush t.cell;
    match Cell.confirm t.cell with
    | Some w', true when w' = w -> w'
    | _ -> decide_durable t v)

(* Read the decision without proposing; None if undecided. *)
let poll t = Cell.read t.cell
let peek t = Cell.peek t.cell
