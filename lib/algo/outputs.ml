(* Output log for consensus executions.  Every value a process returns is
   appended (a process may output several times across crash/recovery
   cycles -- agreement must hold over all of them).  Recording an output
   is a meta-observation of the simulation, not a shared-memory step. *)

type 'v t = {
  inputs : 'v array;
  outputs : 'v list array;
  mutable slot : Rcons_runtime.Heap.slot option;
}

(* The log is part of the state the explorer's invariants read, so it
   registers with the active Heap arena (if any): two executions only
   share a fingerprint when their output histories agree too.  The array
   is indexed by pid, so a symmetry snapshot relabels it: process i's
   history moves to slot perm.(i). *)
let make ~inputs =
  let t = { inputs; outputs = Array.map (fun _ -> []) inputs; slot = None } in
  t.slot <-
    Rcons_runtime.Heap.register_sym_c (fun perm ->
        match perm with
        | None -> Rcons_runtime.Heap.digest t.outputs
        | Some perm ->
            let a = Array.make (Array.length t.outputs) [] in
            Array.iteri (fun i l -> a.(perm.(i)) <- l) t.outputs;
            Rcons_runtime.Heap.digest a);
  t

(* Recording happens in the process body after its last step: between
   steps, so through [Undo.aside]. *)
let record t i v =
  Rcons_runtime.Undo.aside (fun () ->
      let old = t.outputs.(i) in
      t.outputs.(i) <- v :: old;
      Rcons_runtime.Heap.touch t.slot;
      fun () ->
        t.outputs.(i) <- old;
        Rcons_runtime.Heap.touch t.slot)

let all t = Array.to_list t.outputs |> List.concat
let decided t i = t.outputs.(i) <> []

(* Agreement: no two output values produced (by any processes, in any
   runs) are different. *)
let agreement_ok t =
  match all t with [] -> true | v :: rest -> List.for_all (( = ) v) rest

(* Validity: each output value is the input value of some process. *)
let validity_ok t =
  List.for_all (fun v -> Array.exists (( = ) v) t.inputs) (all t)

let check_exn ~fail t =
  if not (agreement_ok t) then fail "agreement violated";
  if not (validity_ok t) then fail "validity violated"
