(* The valency argument of Theorem 14 (Figure 3), exhibited on real
   algorithms.

   For a consensus/RC system built by [mk], explore a bounded,
   E_A-style schedule space (steps of every process; crashes of p0 only,
   within a budget) and compute each prefix's *decision set*: the set of
   output values reachable in its extensions.  A prefix is bivalent if
   its decision set has at least two elements; a *critical execution* is
   a bivalent prefix all of whose one-step extensions are univalent.

   The proof's "standard argument" says that at criticality every process
   must be poised to perform an update on the SAME object O (registers
   and reads cannot separate valencies).  With labelled steps the
   explorer reports exactly what each process is poised on, letting the
   tests reproduce that structural claim on, e.g., the Figure 2 algorithm
   running on S_2: both processes end up poised on the S_2 object.

   The space is tiny by construction (2-3 processes, short bodies, small
   crash budget), and exhibiting a critical execution within a subspace
   is legitimate: valencies are defined relative to the explored space,
   exactly as the proof defines them relative to E_A. *)

open Rcons_runtime
module Outputs = Rcons_algo.Outputs

module Int_set = Set.Make (Int)

type report = {
  prefix : Schedule.choice list;
  decision_sets : Int_set.t list; (* decision set after each next-step of p0, p1, ... *)
  poised_on : string option list; (* label of each process's pending access *)
}

exception Search_space_exhausted of string

let replay ~mk prefix =
  let sim, outputs = mk () in
  List.iter (Schedule.apply sim) (List.rev prefix);
  (sim, outputs)

(* Enabled choices after [prefix], within the restricted space: any
   unfinished process may step; p0 may crash if it has started, is
   unfinished, and the crash budget remains. *)
let choices sim prefix max_crashes =
  let n = Sim.num_procs sim in
  let steps =
    List.filter_map
      (fun i -> if Sim.finished sim i then None else Some (Schedule.Step_choice i))
      (List.init n Fun.id)
  in
  let crashes =
    if Schedule.crashes prefix < max_crashes && Sim.started sim 0 && not (Sim.finished sim 0)
    then [ Schedule.Crash_choice 0 ]
    else []
  in
  steps @ crashes

(* Decision set of a prefix: union of output values over all maximal
   extensions in the space. *)
let decisions ?(max_crashes = 1) ?(max_depth = 200) ~mk prefix0 =
  let rec go prefix =
    if List.length prefix > max_depth then
      raise (Search_space_exhausted "depth bound hit (non-terminating algorithm?)");
    let sim, outputs = replay ~mk prefix in
    let cs = choices sim prefix max_crashes in
    Sim.abandon sim;
    if cs = [] then Int_set.of_list (Outputs.all outputs)
    else List.fold_left (fun acc c -> Int_set.union acc (go (c :: prefix))) Int_set.empty cs
  in
  go prefix0

(* Walk from the empty prefix towards a critical execution: while the
   current (bivalent) node has a bivalent child, descend; when all
   children are univalent, we are critical. *)
let find_critical ?(max_crashes = 1) ?(max_depth = 200) ~mk () =
  let rec walk prefix =
    if List.length prefix > max_depth then
      raise (Search_space_exhausted "no critical execution within bounds");
    let sim, _ = replay ~mk prefix in
    let cs = choices sim prefix max_crashes in
    Sim.abandon sim;
    if cs = [] then raise (Search_space_exhausted "reached a maximal execution while bivalent");
    let child_sets =
      List.map (fun c -> (c, decisions ~max_crashes ~max_depth ~mk (c :: prefix))) cs
    in
    match List.find_opt (fun (_, set) -> Int_set.cardinal set >= 2) child_sets with
    | Some (c, _) -> walk (c :: prefix)
    | None -> (prefix, child_sets)
  in
  let root_set = decisions ~max_crashes ~max_depth ~mk [] in
  if Int_set.cardinal root_set < 2 then
    raise (Search_space_exhausted "initial configuration is already univalent");
  let prefix, child_sets = walk [] in
  (* Report: per-process next-step decision sets and poised-on labels.
     A process whose label is None has not reached its first shared
     access; probing it with one step is shared-state neutral (the first
     step only runs local code up to the first suspension), and each
     probe uses its own replay. *)
  let sim, _ = replay ~mk prefix in
  let n = Sim.num_procs sim in
  Sim.abandon sim;
  let decision_sets =
    List.init n (fun i ->
        Option.value (List.assoc_opt (Schedule.Step_choice i) child_sets) ~default:Int_set.empty)
  in
  let poised_on =
    List.init n (fun i ->
        let sim, _ = replay ~mk prefix in
        let label =
          match Sim.pending_label sim i with
          | Some l -> Some l
          | None ->
              if Sim.finished sim i then None
              else begin
                ignore (Sim.step_proc sim i);
                Sim.pending_label sim i
              end
        in
        Sim.abandon sim;
        label)
  in
  { prefix = List.rev prefix; decision_sets; poised_on }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>critical execution (%d choices): %a@," (List.length r.prefix)
    Schedule.pp r.prefix;
  List.iteri
    (fun i (set, label) ->
      Format.fprintf ppf "  p%d: next-step valency {%s}, poised on %s@," i
        (String.concat "," (List.map string_of_int (Int_set.elements set)))
        (match label with Some l -> l | None -> "-"))
    (List.combine r.decision_sets r.poised_on);
  Format.fprintf ppf "@]"
