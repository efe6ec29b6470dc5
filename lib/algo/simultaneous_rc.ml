(* Recoverable consensus under *simultaneous* crashes from standard
   consensus instances: the algorithm of Figure 4 (Theorem 1 / Appendix A).

   Processes work through rounds r = 1, 2, ...; round r uses a fresh
   standard-consensus instance C_r and a register D[r] recording its
   output.  Round[j] remembers the largest round process j has entered, so
   that after a crash p_j never accesses an instance twice (Lemma 27); a
   recovering process catches its preference up from D[r-1] instead.  A
   process returns once it completes a round that no process has moved
   beyond.  The arrays are unbounded, as footnote 2 of the paper allows
   (Golab showed bounded space is impossible for such a transformation).

   The consensus instances are pluggable: any standard consensus algorithm
   works, since each process invokes each instance at most once and a
   process that crashed mid-invocation looks like a stalled process to a
   wait-free algorithm. *)

open Rcons_runtime

type 'v consensus = { propose : int -> 'v -> 'v } (* pid -> input -> output *)

type 'v t = {
  n : int;
  round : int Cell.t array; (* Round[1..n], initially 0 *)
  d : 'v option Growable.t; (* D[1..infinity], initially None *)
  instance : int -> 'v consensus; (* C_1, C_2, ..., created on demand *)
}

let create ~n ~make_consensus =
  let instances : (int, 'v consensus) Hashtbl.t = Hashtbl.create 16 in
  let instance r =
    match Hashtbl.find_opt instances r with
    | Some c -> c
    | None ->
        (* A rolled-back execution must not leave an instance behind (a
           later branch would find a pre-decided object).  The rollback
           feed never gets here: it re-runs only what preceded the mark,
           so the lookup hits. *)
        let c = make_consensus () in
        Undo.aside (fun () ->
            Hashtbl.add instances r c;
            fun () -> Hashtbl.remove instances r);
        c
  in
  {
    n;
    round = Array.init n (fun _ -> Cell.make 0);
    d = Growable.make (fun _ -> None);
    instance;
  }

(* Figure 4: Decide(v) for process j.  Restarting from the beginning after
   a crash is exactly the model's recovery behaviour. *)
let decide t j v =
  let pref = ref v in
  let result = ref None in
  let r = ref 1 in
  let catch_up () =
    if !r > 1 then
      match Growable.read t.d (!r - 1) with Some w -> pref := w | None -> ()
  in
  while !result = None do
    if Cell.read t.round.(j) < !r then begin
      Cell.write t.round.(j) !r;
      catch_up ();
      pref := (t.instance !r).propose j !pref;
      Growable.write t.d !r (Some !pref);
      let all_le = ref true in
      for k = 0 to t.n - 1 do
        if Cell.read t.round.(k) > !r then all_le := false
      done;
      if !all_le then result := Some !pref
    end
    else catch_up ();
    incr r
  done;
  Option.get !result

(* The maximum round recorded so far: the number of consensus instances an
   execution consumed (grows with the number of simultaneous crashes). *)
let rounds_used t =
  Array.fold_left (fun acc c -> max acc (Cell.peek c)) 0 t.round
