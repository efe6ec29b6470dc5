(* Unbounded array of shared cells, used for the infinite arrays of the
   paper (the D[1..infinity] register array and the consensus-instance
   sequence C_1, C_2, ... of Figure 4; footnote 2 explicitly allows an
   unbounded number of objects).  Entries are created on demand with a
   default generator; creation itself is not a process step -- only reads
   and writes of entries are.

   Fingerprinting: the whole array registers one canonical digest with
   the active Heap arena -- the materialized entries sorted by index,
   with entries still holding their default value elided.  Two
   executions that materialized different subsets of the (conceptually
   always-existing) array but wrote the same values therefore digest
   identically. *)

type 'a t = {
  default : int -> 'a;
  table : (int, 'a Cell.t) Hashtbl.t;
  mutable gslot : Heap.slot option; (* the container's fingerprint-cache slot *)
}

let make default =
  let t = { default; table = Hashtbl.create 16; gslot = None } in
  t.gslot <-
    Heap.register_sym_c (fun perm ->
      Hashtbl.fold
        (fun i c acc ->
          let d = Rcons_spec.Object_type.digest (Cell.peek c) in
          let entry =
            match Cell.line c with
            | None ->
                (* Write-through entry: the seed format, byte-identical. *)
                if String.equal d (Rcons_spec.Object_type.digest (t.default i)) then None
                else Some (Printf.sprintf "%d=%d:%s" i (String.length d) d)
            | Some l ->
                (* Cache-backed entry: the durable copy and the line
                   owner are part of the state; elide only entries that
                   are clean and default in both copies.  The owner is a
                   pid, relabeled under a symmetry snapshot. *)
                let dp = Rcons_spec.Object_type.digest (Cell.peek_persisted c) in
                let ddef = Rcons_spec.Object_type.digest (t.default i) in
                if Persist.owner l = None && String.equal d ddef && String.equal dp ddef
                then None
                else
                  Some
                    (Printf.sprintf "%d=%d:%s~%d:%s~%s" i (String.length d) d
                       (String.length dp) dp
                       (match Persist.owner ?perm l with
                       | None -> "c"
                       | Some p -> "p" ^ string_of_int p))
          in
          match entry with None -> acc | Some e -> (i, e) :: acc)
        t.table []
      |> List.sort compare
      |> List.map snd
      |> String.concat ";");
  t

(* Lazy materialization is idempotent across an undo rollback and the
   value-feeding rebuild of [Sim.rollback]: a fed re-execution takes the
   [find_opt] hit path, and a rolled-back materialization removes the
   entry again (and rewinds the entry's oid via [Cell] journaling), so
   re-descending re-creates it identically.  Entry cells carry the
   container's cache slot: their writes and line transitions invalidate
   the container digest. *)
let cell t i =
  match Hashtbl.find_opt t.table i with
  | Some c -> c
  | None ->
      let c = Cell.make_unregistered ?slot:t.gslot (t.default i) in
      if Undo.recording () then
        Undo.log (fun () ->
            Hashtbl.remove t.table i;
            Heap.touch t.gslot);
      Hashtbl.add t.table i c;
      Heap.touch t.gslot;
      c

let read t i = Cell.read (cell t i)
let write t i v = Cell.write (cell t i) v

(* Persist barrier for one entry (materializing it if needed -- creation
   is not a step, the barrier is). *)
let flush t i = Cell.flush (cell t i)
let peek t i = Cell.peek (cell t i)
