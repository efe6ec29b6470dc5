(* Benchmark harness entry point: regenerates every table and figure of
   the paper's results (experiments E1-E11, see DESIGN.md and
   EXPERIMENTS.md).

     dune exec bench/main.exe                     # all experiment tables
     dune exec bench/main.exe -- E4 E8            # selected experiments
     dune exec bench/main.exe -- --e1 --domains 4 # E1 on 4 domains
     dune exec bench/main.exe -- --parallel       # seq-vs-par comparison,
                                                  # writes BENCH_parallel.json

   Experiment names are case-insensitive and leading dashes are ignored,
   so `E1`, `e1` and `--e1` all select the hierarchy table.  The
   [--domains N] flag fans the decision procedures of E1/E5/E6/E11 out
   across N OCaml 5 domains; every table is identical to the sequential
   one (the pool's determinism contract), only the check-times change.
   [--seed N] offsets every experiment's adversary seeds by N (default 0
   = the EXPERIMENTS.md tables); the exhaustive results are seed-free
   and do not change. *)

let experiments ~domains =
  [
    ("E1", fun () -> E1_hierarchy.run ~domains ());
    ("E2", E2_team_consensus.run);
    ("E3", E3_necessity.run);
    ("E4", E4_simultaneous.run);
    ("E5", fun () -> E5_tn.run ~domains ());
    ("E6", fun () -> E6_sn.run ~domains ());
    ("E7", E7_universal.run);
    ("E8", E8_stack.run);
    ("E9", E9_robustness.run);
    ("E10", E10_ablation.run);
    ("E11", fun () -> E11_critical.run ~domains ());
    ("E12", E12_persistency.run);
    ("E13", E13_reduction.run);
    ("E14", fun () -> E14_log.run ());
    ("E15", fun () -> E15_service.run ());
  ]

let canonical name =
  let stripped = ref name in
  while String.length !stripped > 0 && !stripped.[0] = '-' do
    stripped := String.sub !stripped 1 (String.length !stripped - 1)
  done;
  String.uppercase_ascii !stripped

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Pull out --domains N (or --domains=N); what remains selects
     experiments. *)
  let domains = ref 1 in
  let rec strip_domains = function
    | [] -> []
    | "--domains" :: v :: rest | "-j" :: v :: rest ->
        domains := int_of_string v;
        strip_domains rest
    | "--seed" :: v :: rest ->
        Util.seed_offset := int_of_string v;
        strip_domains rest
    | arg :: rest when String.length arg > 10 && String.sub arg 0 10 = "--domains=" ->
        domains := int_of_string (String.sub arg 10 (String.length arg - 10));
        strip_domains rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--seed=" ->
        Util.seed_offset := int_of_string (String.sub arg 7 (String.length arg - 7));
        strip_domains rest
    | arg :: rest -> arg :: strip_domains rest
  in
  let args = strip_domains args in
  let experiments = experiments ~domains:!domains in
  match args with
  | [] ->
      Format.printf
        "Reproduction harness: When Is Recoverable Consensus Harder Than Consensus? (PODC 2022)@.";
      List.iter (fun (_, run) -> run ()) experiments;
      Format.printf "@.All experiment tables regenerated; compare against EXPERIMENTS.md.@."
  | [ "--parallel" ] ->
      Parallel_bench.run ~domains:(if !domains > 1 then !domains else 4) ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt (canonical name) experiments with
          | Some run -> run ()
          | None ->
              Format.eprintf "unknown experiment %S (known: %s, --parallel)@." name
                (String.concat ", " (List.map fst experiments));
              exit 2)
        names
