(* Recoverable team consensus from a readable n-recording type: the
   algorithm of Figure 2 of the paper, instantiated with a machine-derived
   recording certificate (Theorem 8).

   The code in the paper assumes q0 is not in Q_B; when the certificate has
   q0 in Q_B (and hence, by condition 1, not in Q_A) the roles of the two
   teams are swapped internally.  Processes on team A update O when they
   find it in state q0.  Processes on team B do likewise, except that a
   *lone* process on team B instead yields to team A when it sees that some
   team-A process has already written its input (line 19-20 of Figure 2);
   this is what makes the algorithm safe when q0 can recur in Q_A.

   [faithful] (default true) keeps the |B| = 1 guard of line 19.  Setting
   it to false reproduces the broken variant discussed after Lemma 7: with
   two processes on team B the yield rule violates agreement, and the
   bounded model checker finds the counterexample -- a negative control
   showing the simulator can detect real bugs.

   Persist barriers for the write-back cache model come from the build
   ([Persist.scoped ~barriers]): every shared write is flushed and every
   shared read is link-and-persist, so no decision is based on a value a
   crash could still revert.  The write-side barrier alone is NOT
   enough: a reader can observe an un-flushed write, the writer crashes
   (reverting it), and the reader decides on vanished state -- the
   violating schedules the lossy explorer finds against the
   barrier-free build are exactly of this shape.  Built with barriers
   off, this is the original Figure 2, step for step.

   The barrier-carrying build is NOT correct on every type: its
   [apply_o_durable] retry is keyed on the value q0, which recurs in
   S_n and T_n, so the retry can apply a second operation.  [rcons
   explore --type S2 --annotated --max-crashes 0 --dedup --por] exits 1
   with a 36-step schedule under eager, the paper's own model (the top
   ROADMAP item). *)

open Rcons_runtime
open Rcons_check

type 'v t = {
  decide : Rcons_spec.Team.t -> int -> 'v -> 'v;
      (* [decide team slot v]: run DECIDE(v) as the [slot]-th process of
         [team] (slots index the certificate's per-team operation lists).
         Must be called from inside a simulated process; on crash the
         caller's whole run restarts, which re-enters this code from the
         beginning exactly as in the model. *)
  size_a : int;
  size_b : int;
}

let create ?(faithful = true) (Certificate.Recording ((module T), d)) : 'v t =
  (* Orient the teams so that q0 is not in Q_(code team B). *)
  let ops_a, ops_b, q_a, swap =
    if d.q0_in_q_b then (d.ops_b, d.ops_a, d.q_b, true) else (d.ops_a, d.ops_b, d.q_a, false)
  in
  let ops_a = Array.of_list ops_a and ops_b = Array.of_list ops_b in
  let o = Sim_obj.make (module T) d.q0 in
  let r_a : 'v option Cell.t = Cell.make None in
  let r_b : 'v option Cell.t = Cell.make None in
  let in_q_a q = List.exists (fun q' -> T.compare_state q' q = 0) q_a in
  let is_q0 q = T.compare_state q d.q0 = 0 in
  (* Apply an operation and return the durable state it left O in.  With
     barriers on this must retry while that state is still [q0]: the
     apply may have been absorbed as a no-op into ANOTHER process's
     un-flushed change (O volatilely out of q0), and that change -- our
     operation's effect with it -- reverts if the other process crashes
     before flushing.  Once the link-and-persist read returns a non-q0
     state, some operation is durably installed.  (Keyed on the value:
     wrong where q0 recurs, see the header.)  With barriers off, this
     is the original apply-then-read of Figure 2. *)
  let rec apply_o_durable op =
    ignore (Sim_obj.apply o op);
    Sim_obj.flush o;
    let q = Sim_obj.read_persist o in
    if is_q0 q && Persist.barriers () then apply_o_durable op else q
  in
  let read_input r msg = match Cell.read_persist r with Some v -> v | None -> invalid_arg msg in
  let return_team_a () = read_input r_a "Figure 2: R_A empty at return" in
  let return_team_b () = read_input r_b "Figure 2: R_B empty at return" in
  let finish q = if in_q_a q then return_team_a () else return_team_b () in
  (* Figure 2, lines 4-13: code for process [slot] of team A. *)
  let decide_a slot v =
    Cell.write r_a (Some v);
    Cell.flush r_a;
    let q = Sim_obj.read_persist o in
    let q = if is_q0 q then apply_o_durable ops_a.(slot) else q in
    finish q
  in
  (* Figure 2, lines 15-28: code for process [slot] of team B. *)
  let decide_b slot v =
    Cell.write r_b (Some v);
    Cell.flush r_b;
    let q = Sim_obj.read_persist o in
    if is_q0 q then
      if (Array.length ops_b = 1 || not faithful) && Cell.read_persist r_a <> None then
        return_team_a () (* line 20: the lone team-B process yields *)
      else finish (apply_o_durable ops_b.(slot))
    else finish q
  in
  let decide team slot v =
    let effective =
      if swap then Rcons_spec.Team.opposite team else team
    in
    match effective with
    | Rcons_spec.Team.A -> decide_a slot v
    | Rcons_spec.Team.B -> decide_b slot v
  in
  (* Sizes are reported in the certificate's labelling (callers address
     teams and slots as in the certificate; the swap is internal). *)
  { decide; size_a = List.length d.ops_a; size_b = List.length d.ops_b }

(* The Figure 2 system: team A's processes first, then team B's, each
   member proposing its team's input.  [Outputs.system] makes the log
   before [create] builds the algorithm's objects, so under a heap
   arena the registration order is log, then algorithm. *)
let system ?faithful ~inputs:(a, b) cert =
  let size_a, size_b = Certificate.recording_teams cert in
  let inputs = Array.init (size_a + size_b) (fun i -> if i < size_a then a else b) in
  Outputs.system ~inputs @@ fun () ->
  let tc = create ?faithful cert in
  fun pid v ->
    if pid < size_a then tc.decide Rcons_spec.Team.A pid v
    else tc.decide Rcons_spec.Team.B (pid - size_a) v
