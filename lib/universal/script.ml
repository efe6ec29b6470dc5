(* Crash-restartable workloads over a RUniversal object.

   A process body that performs several operations in sequence must not
   re-execute completed operations when it is restarted after a crash.
   The runner keeps a per-process non-volatile progress counter: a
   restarted body skips to the first incomplete operation, whose [invoke]
   is idempotent (the recovery path of Figure 7's Recover function). *)

open Rcons_runtime

type ('s, 'o, 'r) t = {
  universal : ('s, 'o, 'r) Runiversal.t;
  progress : int Cell.t array;
  responses : 'r option array array; (* meta-observation, per pid per index *)
}

(* Run [ops] as process [pid]; safe to re-enter from the beginning after a
   crash.  Responses are recorded for later checking. *)
let run t pid (ops : 'o array) =
  let continue_from () = Cell.read t.progress.(pid) in
  let k = ref (continue_from ()) in
  while !k < Array.length ops do
    let i = !k in
    let r = Runiversal.invoke t.universal ~pid ~index:i ops.(i) in
    Undo.aside (fun () ->
        let old = t.responses.(pid).(i) in
        t.responses.(pid).(i) <- Some r;
        fun () -> t.responses.(pid).(i) <- old);
    Cell.write t.progress.(pid) (i + 1);
    k := continue_from ()
  done

(* One process per script, and every per-process array sized from the
   scripts themselves.  The object's cells are made before the progress
   counters: fingerprint bytes follow registration order. *)
let system ?history ?make_rc spec scripts =
  let n = Array.length scripts in
  let universal = Runiversal.create ?history ?make_rc ~n spec in
  let t =
    {
      universal;
      progress = Array.map (fun _ -> Cell.make 0) scripts;
      responses = Array.map (fun ops -> Array.make (Array.length ops) None) scripts;
    }
  in
  (universal, t, Sim.create ~n (fun pid () -> run t pid scripts.(pid)))

let response t pid index = t.responses.(pid).(index)
