(* E6 -- Figure 6 / Proposition 21: S_n is n-recording and not
   (n+1)-discerning, hence rcons(S_n) = cons(S_n) = n: every level of the
   RC hierarchy is populated.  Additionally the derived certificate is
   exercised end-to-end: the Figure 2 + tournament algorithm from S_n's
   witness solves n-process RC under a random crash adversary. *)

open Rcons.Runtime

let dynamic_check n cert =
  let iters = 200 in
  let adv =
    Adversary.create ~seed:(Util.seed n)
      (Adversary.Uniform { crash_prob = 0.2; max_crashes = 2 * n })
  in
  let ok = ref 0 in
  for _ = 1 to iters do
    let sim, outputs =
      Rcons.Algo.Outputs.system ~inputs:(Array.init n (fun i -> 100 + i)) (fun () ->
          Rcons.Algo.Tournament.recoverable_consensus cert ~n)
    in
    ignore (Adversary.run ~record:false adv sim);
    if Rcons.Algo.Outputs.agreement_ok outputs && Rcons.Algo.Outputs.validity_ok outputs then
      incr ok
  done;
  (!ok, iters)

let run ?(domains = 1) () =
  Util.section "E6 (Figure 6): S_n populates level n of both hierarchies";
  Util.row "%-6s %-14s %-18s %-7s %-8s %-18s %s@." "n" "n-recording" "(n+1)-discerning" "cons"
    "rcons" "n-process RC runs" "time";
  List.iter
    (fun n ->
      let t = Rcons.Spec.Sn.make n in
      let (rec_n, disc_n1, cert), dt =
        Util.time_it (fun () ->
            ( Rcons.Check.Recording.is_recording ~domains t n,
              Rcons.Check.Discerning.is_discerning ~domains t (n + 1),
              Rcons.Check.Recording.witness ~domains t n ))
      in
      let report = Rcons.classify ~domains ~limit:(n + 1) t in
      let ok, iters = dynamic_check n (Option.get cert) in
      Util.row "%-6d %-14b %-18b %-7s %-8s %8d/%-9d %.2fs@." n rec_n disc_n1
        (Util.bounds_str report.Rcons.Check.Classify.cons)
        (Util.bounds_str report.Rcons.Check.Classify.rcons)
        ok iters dt)
    [ 2; 3; 4; 5; 6 ];
  Util.row "@.paper: yes / no on each row; cons = rcons = n; all runs correct.@."
