(* A recoverable key-value store on non-volatile memory, built with the
   universal construction of Figure 7.

     dune exec examples/recoverable_kv.exe

   Four processes run a workload of puts/finds/deletes against one shared
   store.  The adversary crashes processes aggressively; every crashed
   process recovers, finishes its interrupted operation (the recovery path
   of the construction) and carries on with its script.  At the end the
   recorded concurrent history is checked for linearizability against the
   sequential map specification -- the recoverable object behaves exactly
   like an atomic one, crashes notwithstanding (Section 4 of the paper). *)

open Rcons.Universal

let () =
  let n = 4 in
  let history = Rcons.History.History.create () in
  let store = Rcons.make_recoverable ~history ~n (Derived.kv ()) in
  let keys = [| "apple"; "beech"; "cedar" |] in
  let scripts =
    Array.init n (fun pid ->
        Array.init 5 (fun k ->
            let key = keys.((pid + k) mod Array.length keys) in
            match k mod 3 with
            | 0 -> Derived.Put (key, (10 * pid) + k)
            | 1 -> Derived.Find key
            | _ -> Derived.Del key))
  in
  let runner = Script.create store ~n ~max_ops:5 in
  let sim = Rcons.Runtime.Sim.create ~n (fun pid () -> Script.run runner pid scripts.(pid)) in
  let rng = Random.State.make [| 7 |] in
  let crashes =
    Rcons.Runtime.Adversary.(
      (run ~record:false (of_rng ~rng (Uniform { crash_prob = 0.2; max_crashes = 16 })) sim)
        .crashes)
  in

  Format.printf "4 processes, 20 operations, %d crashes injected@." crashes;
  Format.printf "operations applied (in linearization order):@.";
  List.iter
    (fun nd ->
      let pid, k = nd.Runiversal.tag in
      Format.printf "  #%02d p%d/%d@."
        (Rcons.Runtime.Cell.peek nd.Runiversal.seq)
        pid k)
    (Runiversal.linearization store);
  let ok =
    Rcons.History.Linearizability.check_history (Derived.lin_spec (Derived.kv ())) history
  in
  Format.printf "history linearizable w.r.t. the sequential map: %b@." ok;
  assert ok
