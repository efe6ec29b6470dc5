(* E11 -- Figure 3 / Theorem 14's valency argument, exhibited.

   For real 2-process consensus systems, walk the bounded E_A-style
   schedule space to a critical execution and print the paper's proof
   picture: the bivalent prefix, the (differing, univalent) valencies of
   each process's next step, and the shared object each process is
   poised on.  As the "standard argument" demands, at criticality both
   processes are poised on the SAME consensus object -- never a
   register. *)

let one_shot_mk () =
  Rcons.Algo.Outputs.system ~inputs:[| 0; 1 |] (fun () ->
      let c = Rcons.Algo.One_shot.create () in
      fun _pid v -> Rcons.Algo.One_shot.decide c v)

(* Figure 2 on the type's level-2 certificate: p0 (team A) proposes 0,
   p1 (team B) proposes 1. *)
let fig2_mk name =
  let module Cex = Rcons.Counterexample in
  Util.ok_or_fail (Cex.team_system (Cex.team2 ~inputs:(0, 1) name))

let run () =
  Util.section "E11 (Figure 3): critical executions of real algorithms";
  List.iter
    (fun (name, mk) ->
      let report, dt = Util.time_it (fun () -> Rcons.Valency.Critical.find_critical ~mk ()) in
      Util.row "[%s]  (%.2fs)@.%a@." name dt Rcons.Valency.Critical.pp_report report)
    [
      ("one-shot consensus object", one_shot_mk);
      ("Figure 2 on S_2", fig2_mk "S2");
      ("Figure 2 on the sticky bit", fig2_mk "sticky");
      ("Figure 2 on CAS", fig2_mk "cas");
    ];
  Util.row
    "At every critical execution both processes are poised on the same consensus@.";
  Util.row "object (labels above), never on a register: the structural step of Theorem 14.@."
