(* Command-line interface to the library.

     rcons classify [--limit N] [TYPE ...]   hierarchy table (E1)
     rcons solve --type TYPE [-n N] [...]    run RC under a crash adversary
     rcons impossible [--verbose]            Appendix H valency sweeps (E8)
     rcons explore --type TYPE [...]         bounded exhaustive model check
     rcons log [--type TYPE] [...]           recoverable replicated log
     rcons certs list|revalidate|gc          persisted certificate cache
     rcons critical --type TYPE              Theorem 14's critical execution (E11)
     rcons serve [...]                       crash-churn service soak (E15)

   TYPE names: register, tas, swap, faa, stack, queue, readable-stack,
   readable-queue, sticky, cas, consensus, S<n>, T<n> (e.g. S4, T6). *)

open Cmdliner

(* Names on the command line -- object types and persistency models --
   are plain strings resolved in the command body, not by a cmdliner
   converter, so an unknown one is bad input like any other: one
   [rcons CMD:] line and exit 2 (not a usage dump, and not exit 1, the
   violation code).  [resolve cmd parse name k] continues with the
   parsed value. *)
let resolve cmd parse name k =
  match parse name with
  | Ok v -> k v
  | Error e ->
      Format.eprintf "rcons %s: %s@." cmd e;
      2

(* A known type with no recording witness at the asked level is not a
   violation either: the workload cannot be built, so the input is
   unusable.  Every command reports it the same way -- one line, exit 2
   -- so a script can tell "no witness" from "violated" (exit 1). *)
let no_witness fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s@." msg;
      2)
    fmt

(* One shared type resolver (also used by counterexample artifacts), so
   a type name means the same thing on the command line and in a
   committed witness file. *)
let parse_type = Rcons.Spec.Catalogue.of_name

let default_types () = List.map (fun e -> e.Rcons.Spec.Catalogue.ot) Rcons.Spec.Catalogue.all

(* Shared persistency flags: which write-back cache model to build the
   simulated system under, and how many steps each persist barrier
   costs.  A system is built under [Persist.scoped] and carries its
   cache from then on; the default (eager, cost 1) builds with none,
   keeping the seed behaviour byte-identical. *)
module Persist = Rcons.Runtime.Persist

let parse_persist s =
  match Persist.policy_of_string s with p -> Ok p | exception Invalid_argument e -> Error e

let persist_arg =
  Arg.(
    value
    & opt string "eager"
    & info [ "persist" ] ~docv:"MODEL"
        ~doc:
          "Persistency model: $(b,eager) (every write durable at its step; the default, and the \
           seed behaviour), $(b,lossy) (writes sit in a volatile write-back cache and are lost \
           when their writer crashes before flushing), or $(b,torn) (a crash persists some \
           cached lines and loses others).")

let flush_cost_arg =
  Arg.(
    value & opt int 1
    & info [ "flush-cost" ] ~docv:"STEPS"
        ~doc:"Number of simulation steps each persist barrier (flush/fence) takes (default 1).")

(* Numeric flags with a floor -- a barrier costs at least one step, a
   run takes at least one domain, consensus at least two processes --
   are checked up front: one line and exit 2.  [below min cmd flag v]
   reports whether [v] was refused. *)
let below min cmd flag v =
  if v < min then Format.eprintf "rcons %s: --%s must be >= %d (got %d)@." cmd flag min v;
  v < min

(* A process body that raised under a randomized adversary
   ([Adversary.Body_failure]) is a violation, reported in the explorer's
   words: one line, exit 1. *)
let body_violation msg =
  Format.printf "VIOLATION: uncaught exception in process body: %s@." msg;
  1

(* Shared --domains flag: every answer is independent of it (the domain
   pool's determinism contract); it only changes wall-clock time. *)
let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains"; "j" ]
        ~doc:
          "Number of OCaml 5 domains for the witness searches / the schedule explorer (>= 1; \
           1 = sequential; results are identical either way).")

(* Shared certificate-cache flags: where the persisted per-level scan
   results live, and an off switch.  Entries are revalidated against the
   live module before being trusted, so a cache can never change an
   answer -- only skip recomputation. *)
let certs_dir_arg =
  Arg.(
    value & opt string "_certs"
    & info [ "certs-dir" ] ~docv:"DIR"
        ~doc:
          "Directory of persisted scan certificates keyed by behavioural fingerprint (default \
           $(b,_certs)).  Every entry is revalidated before use; failed entries are recomputed.")

let no_certs_arg =
  Arg.(
    value & flag
    & info [ "no-certs" ] ~doc:"Disable the certificate cache (neither read nor write it).")

let certs_of no_certs dir = if no_certs then None else Some dir

(* --- classify --- *)

let classify_cmd =
  let run limit domains no_certs certs_dir names =
    (* Keep the library's invariant ([Classify.max_level] raises on
       limit < 2) out of user-facing output. *)
    if below 2 "classify" "limit" limit || below 1 "classify" "domains" domains then 2
    else
      let parse_all names =
        List.fold_right
          (fun name acc ->
            match (parse_type name, acc) with
            | Error e, _ | _, Error e -> Error e
            | Ok ot, Ok ots -> Ok (ot :: ots))
          names (Ok [])
      in
      resolve "classify" parse_all names @@ fun types ->
      let types = if types = [] then default_types () else types in
      let certs = certs_of no_certs certs_dir in
      List.iter
        (fun ot ->
          Format.printf "%a@." Rcons.Check.Classify.pp_report
            (Rcons.classify ~domains ~limit ?certs ot))
        types;
      0
  in
  let limit = Arg.(value & opt int 5 & info [ "limit" ] ~doc:"Largest n to test (>= 2).") in
  let types = Arg.(value & pos_all string [] & info [] ~docv:"TYPE") in
  Cmd.v
    (Cmd.info "classify" ~doc:"Discerning/recording levels and cons/rcons bounds (experiment E1)")
    Term.(const run $ limit $ domains_arg $ no_certs_arg $ certs_dir_arg $ types)

(* --- solve --- *)

let solve_cmd =
  let run ot n crash_prob seed persist no_certs certs_dir =
    resolve "solve" parse_type ot @@ fun ot ->
    resolve "solve" parse_persist persist @@ fun persist ->
    let certs = certs_of no_certs certs_dir in
    let module Adv = Rcons.Runtime.Adversary in
    if below 2 "solve" "procs" n then 2
    else
      match Adv.policy_of_string ~crash_prob ~max_crashes:(4 * n) "uniform" with
      | Error e ->
          Format.eprintf "rcons solve: %s@." e;
          2
      | Ok policy -> (
          (* The decision objects and the system are built under one
             cache, which the system carries through the run. *)
          let build () =
            Option.map
              (fun decide ->
                Rcons.Algo.Outputs.system ~inputs:(Array.init n (fun i -> 100 + i)) (fun () ->
                    decide))
              (Rcons.solve_rc ?certs ot ~n)
          in
          match Persist.scoped persist build with
          | None ->
              no_witness "%s is not %d-recording: no certificate, cannot solve %d-process RC"
                (Rcons.Spec.Object_type.name ot) n n
          | Some (sim, outputs) -> (
              let rng = Random.State.make [| seed |] in
              match Adv.run ~record:false (Adv.of_rng ~rng policy) sim with
              | exception Adv.Body_failure msg ->
                  (* Figure 2 is built without persist barriers: under
                     a write-back cache, a crash that reverts state it
                     assumed durable trips an invariant in a process
                     body. *)
                  body_violation msg
              | outcome ->
                  Format.printf "%d processes, %d crashes:@." n outcome.Adv.crashes;
                  Array.iteri
                    (fun pid outs ->
                      Format.printf "  p%d -> %s@." pid
                        (String.concat "," (List.map string_of_int outs)))
                    outputs.Rcons.Algo.Outputs.outputs;
                  Format.printf "agreement=%b validity=%b@."
                    (Rcons.Algo.Outputs.agreement_ok outputs)
                    (Rcons.Algo.Outputs.validity_ok outputs);
                  if
                    Rcons.Algo.Outputs.agreement_ok outputs
                    && Rcons.Algo.Outputs.validity_ok outputs
                  then 0
                  else 1))
  in
  let ot = Arg.(required & opt (some string) None & info [ "type" ] ~doc:"Object type.") in
  let n = Arg.(value & opt int 3 & info [ "procs"; "n" ] ~doc:"Number of processes.") in
  let crash_prob =
    Arg.(value & opt float 0.2 & info [ "crash-prob" ] ~doc:"Per-step crash probability.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Adversary seed.") in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run recoverable consensus under a random crash adversary")
    Term.(
      const run $ ot $ n $ crash_prob $ seed $ persist_arg $ no_certs_arg $ certs_dir_arg)

(* --- impossible --- *)

let impossible_cmd =
  let run verbose =
    let reports =
      [
        Rcons.Valency.Impossibility.analyse_stack ();
        Rcons.Valency.Impossibility.analyse_queue ();
        Rcons.Valency.Impossibility.analyse Rcons.Spec.Test_and_set.t;
        Rcons.Valency.Impossibility.analyse Rcons.Spec.Register.default;
        Rcons.Valency.Impossibility.analyse Rcons.Spec.Fetch_add.default;
        Rcons.Valency.Impossibility.analyse Rcons.Spec.Swap.default;
        Rcons.Valency.Impossibility.analyse Rcons.Spec.Sticky_bit.t;
        Rcons.Valency.Impossibility.analyse Rcons.Spec.Cas.default;
      ]
    in
    List.iter
      (fun r ->
        if verbose then Format.printf "%a@." Rcons.Valency.Impossibility.pp_report r
        else Format.printf "%a@." Rcons.Valency.Impossibility.summary r)
      reports;
    0
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every configuration.") in
  Cmd.v
    (Cmd.info "impossible" ~doc:"Appendix H valency sweeps: which types have rcons = 1 (E8)")
    Term.(const run $ verbose)

(* --- explore / log: shared exhaustive machinery --- *)

module E = Rcons.Runtime.Explore
module Cex = Rcons.Counterexample

(* The exhaustive-explorer flags shared by [explore] and [log
   --exhaustive], declared once; only the --max-crashes default differs
   between the two commands. *)
type exhaustive = {
  max_crashes : int;
  dedup : bool;
  por : bool;
  symmetry : bool;
  node_budget : int option;
  checkpoint : string option;
  resume : string option;
  save_cex : string option;
}

let exhaustive_term ~max_crashes =
  let max_crashes =
    Arg.(
      value & opt int max_crashes
      & info [ "max-crashes" ] ~doc:"Crash budget for the exhaustive explorer.")
  in
  let dedup =
    Arg.(
      value & flag
      & info [ "dedup" ]
          ~doc:
            "Deduplicate states by canonical fingerprint: much faster on multi-crash budgets, \
             but node/schedule counts then refer to the state graph, not the raw schedule tree.")
  in
  let por =
    Arg.(
      value & flag
      & info [ "por" ]
          ~doc:
            "Sleep-set partial-order reduction over step footprints: interleavings differing \
             only by swaps of independent steps are explored once.  Finds a violation iff the \
             raw run does.  With --dedup it is sequential-only.")
  in
  let symmetry =
    Arg.(
      value & flag
      & info [ "symmetry" ]
          ~doc:
            "Process-symmetry reduction (requires --dedup): canonicalize fingerprints over \
             relabelings of interchangeable processes (members of one certificate team, which \
             share one operation and one input in these workloads).")
  in
  let node_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-budget" ]
          ~doc:
            "Interrupt after exploring $(docv) nodes, saving a resumable checkpoint (see \
             --checkpoint / --resume).  Sequential mode only.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ]
          ~doc:"Where to write the checkpoint on interrupt (default explore.ckpt.json).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ]
          ~doc:
            "Resume from a checkpoint file; the run continues to final stats bit-identical to \
             an uninterrupted one, in every sequential mode.  Run the printed \"resume with:\" \
             line: a checkpoint taken on a different workload or with different explorer \
             parameters or reductions is refused (exit 2).")
  in
  let save_cex =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-counterexample" ]
          ~doc:"On violation, shrink the schedule (ddmin) and write a replayable JSON witness.")
  in
  Term.(
    const
      (fun max_crashes dedup por symmetry node_budget checkpoint resume save_cex ->
        { max_crashes; dedup; por; symmetry; node_budget; checkpoint; resume; save_cex })
    $ max_crashes $ dedup $ por $ symmetry $ node_budget $ checkpoint $ resume $ save_cex)

(* The workload flags [explore] and [log] share, as the "resume with:"
   hint must repeat them: run verbatim, it rebuilds the same workload
   (the checkpoint's provenance refuses any other). *)
let workload_flags ~annotated ~broken ~persist ~flush_cost =
  String.concat ""
    [
      (if annotated then " --annotated" else "");
      (if broken then " --broken" else "");
      (match persist with
      | Persist.Eager -> ""
      | p -> " --persist " ^ Persist.policy_to_string p);
      (if flush_cost = 1 then "" else Printf.sprintf " --flush-cost %d" flush_cost);
    ]

(* The explorer flags of the "resume with:" hint, read off the one
   record the command line filled: the hint repeats every parameter the
   checkpoint's provenance will be compared against. *)
let resume_flags ex ~file =
  String.concat ""
    [
      Printf.sprintf " --max-crashes %d" ex.max_crashes;
      (if ex.dedup then " --dedup" else "");
      (if ex.por then " --por" else "");
      (if ex.symmetry then " --symmetry" else "");
      " --resume " ^ file;
    ]

(* Exhaustively explore a counterexample workload (team consensus or
   replicated log), with the budget/checkpoint/resume/shrink plumbing.
   [resume_hint] is the command prefix, workload flags included, echoed
   in the "resume with:" line.  Exit codes: 0 no violation, 1 violation
   found, 2 bad input (a type with no recording witness at the
   workload's level, a corrupt or mismatched checkpoint, an invalid
   combination), 3 interrupted with a checkpoint saved. *)
let run_exhaustive ~resume_hint w ex ~domains =
  let { max_crashes; dedup; por; symmetry; node_budget; checkpoint; resume; save_cex } = ex in
  let classes =
    if not symmetry then Ok None
    else match Cex.symmetry_classes w with Error e -> Error e | Ok cls -> Ok (Some cls)
  in
  match (Cex.mk w, classes) with
  | Error e, _ | _, Error e -> no_witness "%s" e
  | Ok mk, Ok classes -> (
      (* A corrupt or truncated checkpoint must fail with one
         diagnostic line and exit 2 (unusable input), not a
         backtrace -- same contract as a corrupt artifact. *)
      match Option.map (fun file -> E.load_checkpoint ~file) resume with
      | exception (Invalid_argument msg | Sys_error msg | Failure msg) ->
          Format.eprintf "cannot load checkpoint: %s@." msg;
          2
      | resume_from -> (
          match
            E.explore ~max_crashes ~domains ~dedup ~por ?symmetry:classes ?node_budget
              ?resume_from ~fingerprint:(Cex.fingerprint w) ~mk ()
          with
          | stats ->
              Format.printf "exhaustive: %d schedules, %d nodes, max depth %d -- no violation@."
                stats.E.schedules stats.E.nodes stats.E.max_depth;
              if dedup then
                Format.printf
                  "dedup: %d distinct states, %d hits (node counts are state-graph edges)@."
                  stats.E.distinct_states stats.E.dedup_hits;
              if por || symmetry then
                Format.printf "reduction: %d por-pruned, %d symmetry hits@." stats.E.por_pruned
                  stats.E.symmetry_hits;
              0
          | exception E.Interrupted cp ->
              let file = Option.value checkpoint ~default:"explore.ckpt.json" in
              E.save_checkpoint ~file cp;
              let s = E.checkpoint_stats cp in
              Format.printf
                "interrupted: %d schedules, %d nodes explored so far; checkpoint -> %s@.resume \
                 with: %s%s@."
                s.E.schedules s.E.nodes file resume_hint (resume_flags ex ~file);
              3
          | exception E.Violation v ->
              Format.printf "VIOLATION: %s at %a@." v.E.v_msg E.pp_schedule v.E.v_schedule;
              (match v.E.v_provenance with
              | Some p -> Format.printf "provenance: %a@." Rcons.Runtime.Schedule.pp_provenance p
              | None -> ());
              (match save_cex with
              | None -> ()
              | Some file -> (
                  let cex = Cex.of_violation w v in
                  match Cex.minimize cex with
                  | Ok m ->
                      Cex.save ~file m;
                      Format.printf "shrunk %d -> %d choices; witness -> %s@."
                        (List.length cex.Cex.schedule)
                        (List.length m.Cex.schedule)
                        file
                  | Error e ->
                      Cex.save ~file cex;
                      Format.printf "shrink failed (%s); unshrunk witness -> %s@." e file));
              1
          | exception Invalid_argument msg ->
              Format.eprintf "%s@." msg;
              2))

(* --- explore --- *)

let explore_cmd =
  let replay_artifact file =
    (* Malformed input must fail with one diagnostic line, not a
       backtrace: [Json.parse_exn] reports the offset and the expected
       token ([Invalid_argument]), semantic problems (missing fields,
       wrong field types, unknown names) surface as [Invalid_argument]
       or [Failure], and unreadable files as [Sys_error].  All exit 2:
       the artifact is unusable, which is distinct from a stale witness
       (exit 1). *)
    match Cex.load ~file with
    | exception (Sys_error msg | Invalid_argument msg | Failure msg) ->
        Format.eprintf "cannot load %s: %s@." file msg;
        2
    | cex -> (
        Format.printf "replaying %s: %d-choice schedule%s on %s (%s)@." file
          (List.length cex.Cex.schedule)
          (match cex.Cex.shrunk_from with
          | Some n -> Printf.sprintf " (shrunk from %d)" n
          | None -> "")
          cex.Cex.workload.Cex.type_name
          (if cex.Cex.workload.Cex.faithful then "faithful" else "broken variant");
        match Cex.replay cex with
        | `Violated msg ->
            Format.printf "violation reproduced: %s@." msg;
            0
        | `Passed ->
            Format.printf "STALE WITNESS: the schedule no longer violates@.";
            1
        | exception Invalid_argument msg ->
            Format.eprintf "%s@." msg;
            2)
  in
  let run name ex domains broken level replay_file persist annotated flush_cost =
    resolve "explore" parse_persist persist @@ fun persist ->
    match (replay_file, name) with
    | _ when below 1 "explore" "domains" domains -> 2
    | Some file, _ -> replay_artifact file
    | None, None ->
        Format.eprintf "one of --type or --replay is required@.";
        2
    | None, Some _ when below 2 "explore" "level" level -> 2
    | None, Some _ when below 1 "explore" "flush-cost" flush_cost -> 2
    | None, Some name ->
        resolve "explore" parse_type name @@ fun _ ->
        let w = Cex.team2 ~faithful:(not broken) ~level ~persist ~annotated ~flush_cost name in
        run_exhaustive
          ~resume_hint:
            (Printf.sprintf "rcons explore --type %s --level %d%s" name level
               (workload_flags ~annotated ~broken ~persist ~flush_cost))
          w ex ~domains
  in
  let type_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "type" ] ~doc:"Object type (catalogue name, alias, or S<n>/T<n>).")
  in
  let broken =
    Arg.(
      value & flag
      & info [ "broken" ]
          ~doc:
            "Drop the |B| = 1 guard of Figure 2 line 19 (the negative control): with --level 3 \
             (a two-process team) the explorer then finds an agreement violation.")
  in
  let level =
    Arg.(
      value & opt int 2
      & info [ "level" ]
          ~doc:
            "Recording level of the certificate instantiating Figure 2 (team sizes come from \
             the certificate; level n means n processes).")
  in
  let replay_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ]
          ~doc:
            "Replay a counterexample artifact produced by --save-counterexample (or the bench \
             harness) and report whether the violation still fires.")
  in
  let annotated =
    Arg.(
      value & flag
      & info [ "annotated" ]
          ~doc:
            "Build Figure 2 with persist barriers (flushed writes, link-and-persist reads, a \
             retried update).  Not correct on every type: $(b,--type S2 --annotated \
             --max-crashes 0 --dedup --por) exits 1 with a 36-step schedule even under eager \
             (the retry is keyed on the value q0; see the top ROADMAP item).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively model-check Figure 2 on the type's 2-recording certificate; \
          budgeted/resumable, with counterexample shrinking and replay")
    Term.(
      const run $ type_name $ exhaustive_term ~max_crashes:1 $ domains_arg $ broken $ level
      $ replay_file $ persist_arg $ annotated $ flush_cost_arg)

(* --- log --- *)

let log_cmd =
  let module Adv = Rcons.Runtime.Adversary in
  let module Rlog = Rcons.Log.Rlog in
  let module Conditions = Rcons.History.Conditions in
  let module Linearizability = Rcons.History.Linearizability in
  let run name slots procs adversary seed crash_prob adv_crashes persist annotated vote_first
      broken no_certs certs_dir exhaustive ex domains flush_cost =
    resolve "log" parse_persist persist @@ fun persist ->
    if
      below 1 "log" "slots" slots
      || below 2 "log" "procs" procs
      || below 1 "log" "flush-cost" flush_cost
      || below 1 "log" "domains" domains
    then 2
    else if (not exhaustive) && procs * slots > Linearizability.max_ops then begin
      (* The randomized run's verdict checks every APPEND at once; the
         exhaustive checker never builds that history. *)
      Format.eprintf
        "rcons log: --procs %d x --slots %d is %d appends, over the %d-operation bound of the \
         randomized run's linearizability check (--exhaustive has no bound)@."
        procs slots (procs * slots) Linearizability.max_ops;
      2
    end
    else if exhaustive then begin
      if vote_first then begin
        (* The exhaustive path runs through the replayable workload
           record, which deliberately has no vote-first field (it is a
           test-only negative control, not an artifact variant). *)
        Format.eprintf "rcons log: --vote-first is not supported with --exhaustive@.";
        2
      end
      else
        resolve "log" parse_type name @@ fun _ ->
        let w =
          Cex.log ~faithful:(not broken) ~level:procs ~persist ~annotated ~flush_cost ~slots
            name
        in
        run_exhaustive
          ~resume_hint:
            (Printf.sprintf "rcons log --type %s --slots %d --procs %d --exhaustive%s" name slots
               procs
               (workload_flags ~annotated ~broken ~persist ~flush_cost))
          w ex ~domains
    end
    else
      (* Randomized mode: drive the log to completion under a seeded
         crash adversary, sampling the committed prefix after every
         crash and at the end, then check the prefix-durability verdict
         over the recorded history. *)
      match Adv.policy_of_string ~crash_prob ~max_crashes:adv_crashes adversary with
      | Error e ->
          Format.eprintf "rcons log: %s@." e;
          2
      | Ok policy -> (
          resolve "log" parse_type name @@ fun ot ->
          match Rcons.recording_witness ?certs:(certs_of no_certs certs_dir) ot procs with
          | None ->
              no_witness "%s has no %d-recording witness: cannot build the %d-process log"
                (Rcons.Spec.Object_type.name ot) procs procs
          | Some cert -> (
              let t, sim =
                Persist.scoped ~flush_cost ~barriers:annotated persist (fun () ->
                    Rlog.instance ~faithful:(not broken) ~vote_first ~slots cert)
              in
              let on_crash pid = Rlog.note_crash t ~pid in
              match Adv.run ~on_crash (Adv.create ~seed policy) sim with
              | exception Adv.Stuck msg ->
                  Format.eprintf "stuck: %s@." msg;
                  1
              | exception Adv.Body_failure msg -> body_violation msg
              | outcome ->
                  let state_violation = ref None in
                  Rlog.check_exn
                    ~fail:(fun m ->
                      if !state_violation = None then state_violation := Some m)
                    t;
                  let v = Rlog.verdict t in
                  Format.printf "%d slots x %d procs: %d steps, %d crashes, committed=%d@."
                    slots (Rlog.num_procs t) outcome.Adv.steps outcome.Adv.crashes
                    (Rlog.committed t);
                  Format.printf "committed trace: %s@."
                    (String.concat " " (List.map string_of_int (Rlog.committed_trace t)));
                  Format.printf "recovery replay steps per process: %s@."
                    (String.concat " "
                       (List.map string_of_int (Array.to_list (Rlog.recovery_steps t))));
                  Format.printf
                    "verdict: slot-agreement=%b prefix-monotone=%b durable-linearizable=%b@."
                    v.Conditions.slot_agreement v.Conditions.prefix_monotone
                    v.Conditions.durable_lin;
                  (match !state_violation with
                  | Some m ->
                      Format.printf "VIOLATION: %s@." m;
                      1
                  | None ->
                      if Conditions.log_verdict_ok v then 0
                      else begin
                        Format.printf "VIOLATION: prefix-durability verdict failed@.";
                        1
                      end)))
  in
  let type_name =
    Arg.(
      value & opt string "sticky"
      & info [ "type" ]
          ~doc:
            "Object type whose recording certificate decides each slot (catalogue name, alias, \
             or S<n>/T<n>).  Default $(b,sticky).")
  in
  let slots = Arg.(value & opt int 3 & info [ "slots" ] ~doc:"Number of log slots (>= 1).") in
  let procs =
    Arg.(
      value & opt int 3
      & info [ "procs"; "n" ]
          ~doc:
            "Number of processes = recording level of the per-slot certificates (team sizes \
             come from the certificate).")
  in
  let adversary =
    Arg.(
      value & opt string "storm"
      & info [ "adversary" ] ~docv:"POLICY"
          ~doc:
            "Crash adversary for the randomized run: $(b,uniform), $(b,storm), $(b,targeted), \
             $(b,simultaneous) or $(b,quiescent).  An unknown name lists the valid policies and \
             exits 2.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Adversary seed (deterministic).") in
  let crash_prob =
    Arg.(value & opt float 0.2 & info [ "crash-prob" ] ~doc:"Per-opportunity crash probability.")
  in
  let adv_crashes =
    Arg.(
      value & opt int 6
      & info [ "crashes" ] ~doc:"Crash budget for the randomized adversary (default 6).")
  in
  let annotated =
    Arg.(
      value & flag
      & info [ "annotated" ]
          ~doc:
            "Persist-annotated log: each slot's decision is made durable (link-and-persist) \
             before the quorum-counter vote advertising it is flushed.  Without this flag the \
             barrier-free log violates per-slot agreement under $(b,--persist lossy).")
  in
  let vote_first =
    Arg.(
      value & flag
      & info [ "vote-first" ]
          ~doc:
            "Negative control (randomized mode only): flush the vote $(i,before) the slot's \
             decision is durable, so a crash can un-persist a committed slot.")
  in
  let broken =
    Arg.(
      value & flag
      & info [ "broken" ]
          ~doc:"Drop the |B| = 1 guard of Figure 2 line 19 in every slot's instance.")
  in
  let exhaustive =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Exhaustively model-check the log instead of running one randomized schedule \
             (supports --max-crashes/--dedup/--por/--symmetry/--node-budget/--resume/\
             --save-counterexample, like $(b,rcons explore)).")
  in
  Cmd.v
    (Cmd.info "log"
       ~doc:
         "Recoverable replicated log: per-slot RC instances under a quorum-counter committed \
          prefix -- randomized adversary runs and exhaustive prefix-durability checks")
    Term.(
      const run $ type_name $ slots $ procs $ adversary $ seed $ crash_prob $ adv_crashes
      $ persist_arg $ annotated $ vote_first $ broken $ no_certs_arg $ certs_dir_arg
      $ exhaustive $ exhaustive_term ~max_crashes:2 $ domains_arg $ flush_cost_arg)

(* --- certs --- *)

let certs_cmd =
  let module C = Rcons.Check.Cert_cache in
  let pp_info (i : C.info) =
    Format.printf "%-10s n=%d %-8s %-16s depth=%d fp=%s %s@." i.C.property i.C.n
      (if i.C.positive then "witness" else "none")
      i.C.type_hint i.C.depth i.C.fingerprint (Filename.basename i.C.file)
  in
  let list_cmd =
    let run dir =
      match C.list_dir dir with
      | [] ->
          Format.printf "no certificates under %s@." dir;
          0
      | entries ->
          List.iter
            (fun (file, parsed) ->
              match parsed with
              | Ok i -> pp_info i
              | Error m -> Format.printf "CORRUPT    %s: %s@." (Filename.basename file) m)
            entries;
          0
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List the cache entries (one line each; corrupt files are flagged)")
      Term.(const run $ certs_dir_arg)
  in
  let revalidate_cmd =
    (* Exit codes follow the artifact convention: 0 all valid, 1 at
       least one stale entry (well-formed but refuted by the live
       modules), 2 at least one corrupt file.  Corrupt dominates. *)
    let run dir =
      let entries = C.list_dir dir in
      if entries = [] then begin
        Format.printf "no certificates under %s@." dir;
        0
      end
      else begin
        let worst = ref 0 in
        List.iter
          (fun (file, _) ->
            match C.revalidate_file file with
            | C.Valid -> Format.printf "valid      %s@." (Filename.basename file)
            | C.Stale_entry m ->
                Format.printf "STALE      %s: %s@." (Filename.basename file) m;
                worst := max !worst 1
            | C.Corrupt m ->
                Format.printf "CORRUPT    %s: %s@." (Filename.basename file) m;
                worst := max !worst 2)
          entries;
        !worst
      end
    in
    Cmd.v
      (Cmd.info "revalidate"
         ~doc:
           "Re-check every entry against the live modules (exit 0 all valid, 1 any stale, 2 any \
            corrupt)")
      Term.(const run $ certs_dir_arg)
  in
  let gc_cmd =
    let run dir =
      let removed = C.gc dir in
      List.iter (fun (file, m) -> Format.printf "removed %s: %s@." (Filename.basename file) m) removed;
      Format.printf "%d entries removed@." (List.length removed);
      0
    in
    Cmd.v
      (Cmd.info "gc" ~doc:"Delete every entry that fails revalidation (stale or corrupt)")
      Term.(const run $ certs_dir_arg)
  in
  Cmd.group
    (Cmd.info "certs" ~doc:"Inspect and maintain the persisted certificate cache")
    [ list_cmd; revalidate_cmd; gc_cmd ]

(* --- critical --- *)

let critical_cmd =
  let run name =
    resolve "critical" parse_type name @@ fun _ ->
    match Cex.team_system (Cex.team2 ~inputs:(0, 1) name) with
    | Error e -> no_witness "%s" e
    | Ok mk ->
        (match Rcons.Valency.Critical.find_critical ~mk () with
        | report -> Format.printf "%a@." Rcons.Valency.Critical.pp_report report
        | exception Rcons.Valency.Critical.Search_space_exhausted msg ->
            Format.printf "no critical execution found: %s@." msg);
        0
  in
  let ot = Arg.(required & opt (some string) None & info [ "type" ] ~doc:"Object type.") in
  Cmd.v
    (Cmd.info "critical"
       ~doc:
         "Exhibit Theorem 14's critical execution for Figure 2 on the type's certificate \
          (experiment E11)")
    Term.(const run $ ot)

(* --- serve --- *)

let serve_cmd =
  let module Service = Rcons.Service in
  let module Instance = Service.Instance in
  let module Soak = Service.Soak in
  let run instances seed adversary crash_prob max_crashes burst persist flush_cost domains
      sessions ops queue_cap bare max_ticks =
    resolve "serve" parse_persist persist @@ fun persist ->
    match
      Rcons.Runtime.Adversary.policy_of_string ~crash_prob ~max_crashes ~burst adversary
    with
    | _ when below 1 "serve" "instances" instances -> 2
    | _ when below 1 "serve" "flush-cost" flush_cost -> 2
    | _ when below 1 "serve" "domains" domains -> 2
    | Error msg ->
        Format.eprintf "rcons serve: %s@." msg;
        2
    | Ok adv -> (
        (* every 4th instance hosts the replicated log, the rest the
           universal counter.  A counter instance runs --sessions
           sessions of --ops operations plus [Soak.default]'s open-loop
           arrivals (8 at rate 0.25); a log instance runs
           max 1 (--sessions / 2) sessions of --ops operations plus 4
           open-loop arrivals at rate 0.2. *)
        let cert = lazy (Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 2) in
        let cfgs =
          List.init instances (fun id ->
              let base = Soak.default ~id ~seed in
              let base =
                {
                  base with
                  Instance.adversary = adv;
                  persist;
                  flush_cost;
                  annotated = not bare;
                  sessions;
                  ops_per_session = ops;
                  queue_cap;
                  max_ticks;
                }
              in
              match id mod 4 with
              | 3 ->
                  (* fail loudly rather than silently hosting a counter
                     where a log instance was intended *)
                  let c =
                    match Lazy.force cert with
                    | Some c -> c
                    | None ->
                        Format.eprintf
                          "serve: cannot build the sticky-bit recording certificate (n=2) \
                           needed for log instances@.";
                        exit 2
                  in
                  {
                    base with
                    Instance.kind = Instance.Log;
                    cert = Some c;
                    sessions = max 1 (sessions / 2);
                    open_ops = 4;
                    open_rate = 0.2;
                  }
              | _ -> base)
        in
        (* Configs are validated before the soak starts: bad input is
           one line and exit 2, while an [Invalid_argument] raised
           mid-run still surfaces. *)
        match List.iter Instance.validate cfgs with
        | exception Invalid_argument msg ->
            Format.eprintf "rcons serve: %s@." msg;
            2
        | () -> (
            match Soak.run ~domains cfgs with
            | o ->
                List.iter
                  (fun (r : Instance.report) ->
                    Format.printf
                      "instance %2d %-9s ticks %6d acked %4d/%-4d retries %4d shed %4d crashes %3d \
                       recoveries %3d checks %3d%s@."
                      r.Instance.r_id r.Instance.r_kind r.Instance.r_ticks r.Instance.r_acked
                      r.Instance.r_submitted r.Instance.r_retries r.Instance.r_shed
                      r.Instance.r_crashes_delivered r.Instance.r_recoveries r.Instance.r_checks_run
                      (if r.Instance.r_stuck then "  STUCK" else ""))
                  o.Soak.reports;
                let s = o.Soak.summary in
                Format.printf
                  "soak: %d instances, %d acked / %d submitted, %d gave up, %d shed, %d crashes \
                   delivered, %d recoveries, 0 violations@."
                  s.Soak.s_instances s.Soak.s_acked s.Soak.s_submitted s.Soak.s_gave_up
                  s.Soak.s_shed s.Soak.s_crashes_delivered s.Soak.s_recoveries;
                Format.printf "latency p50/p99 = %d/%d ticks, recovery p99 = %d ticks@."
                  (Service.Metrics.percentile s.Soak.s_latency 0.50)
                  (Service.Metrics.percentile s.Soak.s_latency 0.99)
                  (Service.Metrics.percentile s.Soak.s_recovery 0.99);
                Format.printf "commit digest %s (independent of --domains)@."
                  s.Soak.s_commit_digest;
                if s.Soak.s_stuck > 0 then begin
                  Format.eprintf "%d instances stuck at the tick budget@." s.Soak.s_stuck;
                  1
                end
                else 0
            | exception Instance.Violation v ->
                Format.eprintf "VIOLATION: instance %d, tick %d: %s@." v.instance v.tick v.msg;
                1))
  in
  let instances =
    Arg.(value & opt int 8 & info [ "instances" ] ~doc:"Number of hosted instances (default 8).")
  in
  let seed = Arg.(value & opt int 1500 & info [ "seed" ] ~doc:"Fleet seed (default 1500).") in
  let adversary =
    Arg.(
      value & opt string "storm"
      & info [ "adversary" ] ~docv:"POLICY"
          ~doc:
            "Crash adversary injecting churn into live workers: $(b,uniform), $(b,storm), \
             $(b,targeted), $(b,simultaneous) or $(b,quiescent) (default storm).")
  in
  let crash_prob =
    Arg.(
      value & opt float 0.05
      & info [ "crash-prob" ] ~doc:"Per-opportunity crash probability (default 0.05).")
  in
  let max_crashes =
    Arg.(
      value & opt int 12
      & info [ "crashes" ] ~doc:"Crash budget per instance (default 12; finitely many).")
  in
  let burst =
    Arg.(value & opt int 2 & info [ "burst" ] ~doc:"Storm burst size (default 2).")
  in
  let sessions =
    Arg.(
      value & opt int 16
      & info [ "sessions" ] ~doc:"Closed-loop client sessions per instance (default 16).")
  in
  let ops =
    Arg.(value & opt int 4 & info [ "ops" ] ~doc:"Operations per session (default 4).")
  in
  let queue_cap =
    Arg.(
      value & opt int 32
      & info [ "queue-cap" ] ~doc:"Admission bound; submissions beyond it shed (default 32).")
  in
  let bare =
    Arg.(
      value & flag
      & info [ "bare" ]
          ~doc:
            "Drop the persist barriers (negative control: under $(b,--persist lossy) the online \
             checkers must abort the soak).")
  in
  let max_ticks =
    Arg.(
      value & opt int 50_000
      & info [ "max-ticks" ] ~doc:"Per-instance tick budget (default 50000).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Soak a fleet of recoverable-service instances under crash churn with online \
          durability checking (experiment E15)")
    Term.(
      const run $ instances $ seed $ adversary $ crash_prob $ max_crashes $ burst $ persist_arg
      $ flush_cost_arg $ domains_arg $ sessions $ ops $ queue_cap $ bare $ max_ticks)

let subcommand_names =
  [ "classify"; "solve"; "impossible"; "explore"; "log"; "certs"; "critical"; "serve" ]

let () =
  (* Unknown-subcommand diagnosis before cmdliner's own parse: one line
     naming every valid subcommand, exit 2 (usage error), instead of the
     default usage dump.  Prefix matches fall through to cmdliner, which
     accepts unambiguous prefixes. *)
  (if Array.length Sys.argv > 1 then
     let cmd = Sys.argv.(1) in
     let is_prefix c s =
       String.length c <= String.length s && String.sub s 0 (String.length c) = c
     in
     if
       String.length cmd > 0
       && cmd.[0] <> '-'
       && not (List.exists (is_prefix cmd) ("help" :: subcommand_names))
     then begin
       Format.eprintf "rcons: unknown subcommand %S@." cmd;
       Format.eprintf "valid subcommands: %s@." (String.concat ", " subcommand_names);
       exit 2
     end);
  let info =
    Cmd.info "rcons" ~version:"1.0.0"
      ~doc:"Recoverable consensus vs consensus: executable PODC 2022 reproduction"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            classify_cmd;
            solve_cmd;
            impossible_cmd;
            explore_cmd;
            log_cmd;
            certs_cmd;
            critical_cmd;
            serve_cmd;
          ]))
