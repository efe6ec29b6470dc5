(* Output log for consensus executions.  Every value a process returns is
   appended (a process may output several times across crash/recovery
   cycles -- agreement must hold over all of them).  Recording an output
   is a meta-observation of the simulation, not a shared-memory step.

   The verdict is kept as the log grows: [first] is the first value
   recorded, [disagree] is set once a value differs from it and
   [invalid] once a value is no process's input.  All values agree
   exactly when each equals the first, so the explorer's check after
   every edge reads two flags instead of re-scanning the log. *)

type 'v t = {
  inputs : 'v array;
  outputs : 'v list array;
  mutable first : 'v option;
  mutable disagree : bool;
  mutable invalid : bool;
  mutable slot : Rcons_runtime.Heap.slot option;
}

(* The log is part of the state the explorer's invariants read, so it
   registers with the active Heap arena (if any): two executions only
   share a fingerprint when their output histories agree too.  The array
   is indexed by pid, so a symmetry snapshot relabels it: process i's
   history moves to slot perm.(i).  The verdict fields are functions of
   the histories, so they are not digested. *)
let make ~inputs =
  let t =
    {
      inputs;
      outputs = Array.map (fun _ -> []) inputs;
      first = None;
      disagree = false;
      invalid = false;
      slot = None;
    }
  in
  t.slot <-
    Rcons_runtime.Heap.register_sym_c (fun perm ->
        match perm with
        | None -> Rcons_spec.Object_type.digest t.outputs
        | Some perm ->
            let a = Array.make (Array.length t.outputs) [] in
            Array.iteri (fun i l -> a.(perm.(i)) <- l) t.outputs;
            Rcons_spec.Object_type.digest a);
  t

(* Recording happens in the process body after its last step: between
   steps, so through [Undo.aside], whose inverse puts the history and
   the verdict back together. *)
let record t i v =
  Rcons_runtime.Undo.aside (fun () ->
      let old = t.outputs.(i) and first = t.first in
      let disagree = t.disagree and invalid = t.invalid in
      t.outputs.(i) <- v :: old;
      (match first with None -> t.first <- Some v | Some f -> if f <> v then t.disagree <- true);
      if not (Array.exists (( = ) v) t.inputs) then t.invalid <- true;
      Rcons_runtime.Heap.touch t.slot;
      fun () ->
        t.outputs.(i) <- old;
        t.first <- first;
        t.disagree <- disagree;
        t.invalid <- invalid;
        Rcons_runtime.Heap.touch t.slot)

(* The log registers before [make_decide] builds the algorithm's
   objects: fingerprint bytes follow registration order. *)
let system ~inputs make_decide =
  let t = make ~inputs in
  let decide = make_decide () in
  let body pid () = record t pid (decide pid inputs.(pid)) in
  (Rcons_runtime.Sim.create ~n:(Array.length inputs) body, t)

let all t = Array.to_list t.outputs |> List.concat
let decided t i = t.outputs.(i) <> []

(* Agreement: no two output values produced (by any processes, in any
   runs) are different. *)
let agreement_ok t = not t.disagree

(* Validity: each output value is the input value of some process. *)
let validity_ok t = not t.invalid

let check_exn ~fail t =
  if t.disagree then fail "agreement violated";
  if t.invalid then fail "validity violated"
