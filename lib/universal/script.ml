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

let create universal ~n ~max_ops =
  {
    universal;
    progress = Array.init n (fun _ -> Cell.make 0);
    responses = Array.init n (fun _ -> Array.make max_ops None);
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

let response t pid index = t.responses.(pid).(index)
