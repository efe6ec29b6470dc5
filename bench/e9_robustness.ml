(* E9 -- Theorem 22: robustness up to 1.  For a set of readable types,
   rcons(set) lies in [max individual rcons lower bound, max + 1].

   For each sampled set the table shows the individual recording levels,
   the derived set-level rcons interval, a dynamic confirmation (an RC
   algorithm for max-level-many processes built from the strongest
   member, run under a crash adversary), and -- as an extra instrument --
   the recording level of the PRODUCT type of the set's members (one
   object carrying one component per member): the product inherits the
   strongest member's level and never jumps past the set-level bound. *)

open Rcons.Runtime

let dynamic_check cert n =
  let sim, outputs =
    Rcons.Algo.Outputs.system ~inputs:(Array.init n Fun.id) (fun () ->
        Rcons.Algo.Tournament.recoverable_consensus cert ~n)
  in
  let adv =
    Adversary.create ~seed:(Util.seed 77)
      (Adversary.Uniform { crash_prob = 0.2; max_crashes = 2 * n })
  in
  ignore (Adversary.run ~record:false adv sim);
  Rcons.Algo.Outputs.agreement_ok outputs && Rcons.Algo.Outputs.validity_ok outputs

let run () =
  Util.section "E9 (Theorem 22): sets of readable types are robust up to 1";
  Util.row "%-28s %-20s %-12s %-18s %s@." "set" "individual levels" "rcons(set)" "dynamic"
    "product level";
  let sets =
    [
      [ ("S_2", Rcons.Spec.Sn.make 2); ("S_4", Rcons.Spec.Sn.make 4) ];
      [ ("register", Rcons.Spec.Register.default); ("S_3", Rcons.Spec.Sn.make 3) ];
      [ ("T_5", Rcons.Spec.Tn.make 5); ("S_3", Rcons.Spec.Sn.make 3) ];
      [ ("register", Rcons.Spec.Register.default); ("swap", Rcons.Spec.Swap.default) ];
    ]
  in
  List.iter
    (fun set ->
      let types = List.map snd set in
      let a = Rcons.Check.Robustness.analyse ~limit:5 types in
      let names = String.concat "+" (List.map fst set) in
      let levels =
        String.concat ","
          (List.map (fun (_, l) -> Format.asprintf "%a" Rcons.Check.Classify.pp_level l)
             a.Rcons.Check.Robustness.members)
      in
      let interval =
        Printf.sprintf "[%d,%s]" a.Rcons.Check.Robustness.rcons_lower
          (match a.Rcons.Check.Robustness.rcons_upper with
          | Some u -> string_of_int u
          | None -> "inf")
      in
      let dynamic =
        if a.Rcons.Check.Robustness.rcons_lower < 2 then "(trivial)"
        else
          match Rcons.Check.Robustness.best_certificate ~limit:5 types with
          | Some cert ->
              if dynamic_check cert a.Rcons.Check.Robustness.rcons_lower then "RC ok at max level"
              else "FAILED"
          | None -> "no certificate"
      in
      let product_level =
        match types with
        | [ t1; t2 ] ->
            Format.asprintf "%a"
              Rcons.Check.Classify.pp_level
              (Rcons.Check.Classify.max_recording ~limit:5 (Rcons.Spec.Product.make t1 t2))
        | _ -> "-"
      in
      Util.row "%-28s %-20s %-12s %-18s %s@." names levels interval dynamic product_level)
    sets;
  Util.row
    "@.Theorem 22: rcons(set) cannot exceed max+1 -- the critical-object argument localizes@.";
  Util.row "the power of a multi-type algorithm in a single object type.  The product column@.";
  Util.row "shows one-object combination inherits exactly the strongest member's level here.@."
