(* The repository benchmark.

     perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
     perf.exe --check-stability [--workload NAME] [--seed N] [--seconds S]

   Runs a workload (all of them when --workload is absent) for S
   seconds, every repetition in a fresh child process of this
   executable: in-process memo tables and a grown heap would otherwise
   turn later repetitions into a warm program no user runs.  It checks
   every output against its pins, prints every metric by name with its
   unit, and ends each workload with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the
   per-layer ones, from children that time the calls into each layer.

   BENCHMARK.json (read from the current directory) is the
   specification: the workloads, the metric names and units, the
   regression bounds --check-stability applies, and the default run
   length.  A run refuses to start when it disagrees with this
   executable. *)

module Json = Rcons.Runtime.Json

(* An untraced run repeats the command at least twice, so its median is
   never one sample; set-up is sampled a further [setup_samples] times
   by children that stop right before the timed call. *)
let min_reps = 2
let setup_samples = 16

(* Children write certificate caches under the checkout, never
   elsewhere, and the run removes them when it ends. *)
let tmp_root = "_perf_tmp"

let fail_usage fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

let find_workload name =
  match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
  | Some w -> w
  | None ->
      fail_usage "unknown workload %S (valid: %s)" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))

(* --- child: one repetition --- *)

type mode = Run | Trace | Setup

let mode_name = function Run -> "run" | Trace -> "trace" | Setup -> "setup"

let child ~name ~seed ~certs mode =
  (* A hung repetition must not outlive the run that started it. *)
  ignore (Unix.alarm 150);
  let w = find_workload name in
  let result =
    match w.Workloads.setup ~seed ~certs with
    | exception e -> Error (Printexc.to_string e)
    | p -> (
        let ready = Probe.now_ns () in
        let outcome (o : Workloads.outcome) wall layers =
          Ok
            [
              ("ready_ns", Json.Int ready);
              ("wall_s", Json.Float wall);
              ("heap_words", Json.Int (Gc.quick_stat ()).Gc.top_heap_words);
              ("work", Json.Int o.Workloads.work);
              ("digest", Json.String o.Workloads.digest);
              ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) layers));
            ]
        in
        match mode with
        | Setup -> Ok [ ("ready_ns", Json.Int ready) ]
        | Run -> (
            match Workloads.timed p.Workloads.run with
            | o, wall -> outcome o wall []
            | exception Workloads.Wrong m -> Error m
            | exception e -> Error (Printexc.to_string e))
        | Trace -> (
            match p.Workloads.traced () with
            | o, wall, layers -> outcome o wall layers
            | exception Workloads.Wrong m -> Error m
            | exception e -> Error (Printexc.to_string e)))
  in
  let fields =
    match result with
    | Ok fs -> ("ok", Json.Bool true) :: fs
    | Error m -> [ ("ok", Json.Bool false); ("error", Json.String m) ]
  in
  print_endline (Json.to_string ~indent:0 (Json.Obj fields))

(* --- the specification --- *)

type spec = {
  run_seconds : int;
  end_to_end : (string * string * float) list;  (** name, unit, bound *)
  per_layer : (string * string) list;  (** name, unit *)
}

(* The end-to-end metrics [run_workload] computes, in its order. *)
let end_to_end_names = [ "wall_s"; "setup_s"; "work_per_s"; "peak_heap_mb" ]

let read_spec () =
  let j =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | s -> ( match Json.parse s with Ok j -> j | Error e -> fail_usage "BENCHMARK.json: %s" e)
    | exception Sys_error e -> fail_usage "%s" e
  in
  let list k = Json.to_list (Json.field k j) in
  let str k m = Json.to_str (Json.field k m) in
  let spec =
    {
      run_seconds = Json.to_int (Json.field "run_seconds" j);
      end_to_end =
        List.map
          (fun m -> (str "name" m, str "unit" m, Json.to_float (Json.field "bound" m)))
          (list "end_to_end");
      per_layer = List.map (fun m -> (str "name" m, str "unit" m)) (list "per_layer");
    }
  in
  if List.map (str "name") (list "workloads") <> List.map (fun w -> w.Workloads.name) Workloads.all
  then fail_usage "BENCHMARK.json: its workloads are not this benchmark's";
  if List.map (fun (k, _, _) -> k) spec.end_to_end <> end_to_end_names then
    fail_usage "BENCHMARK.json: its end_to_end metrics are not %s"
      (String.concat ", " end_to_end_names);
  spec

(* --- parent: repetitions, statistics, output --- *)

type sample = {
  setup : float;
  wall : float;
  heap_mb : float;
  rate : float;
  digest : string;
  layers : (string * float) list;
}

let run_child ~name ~seed ~certs mode =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; name; "--seed"; string_of_int seed ]
    @ [ "--certs"; certs; "--mode"; mode_name mode ]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Probe.now_ns () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  let what = Printf.sprintf "%s (%s)" name (mode_name mode) in
  match (status, Json.parse last) with
  | Unix.WEXITED 0, Ok j -> (
      let num k = Json.to_float (Json.field k j) in
      let str k = Json.to_str (Json.field k j) in
      match Json.member "ok" j with
      | Some (Json.Bool true) ->
          let setup = float_of_int (Json.to_int (Json.field "ready_ns" j) - t0) *. 1e-9 in
          if mode = Setup then
            Ok { setup; wall = 0.; heap_mb = 0.; rate = 0.; digest = ""; layers = [] }
          else
            let wall = num "wall_s" in
            Ok
              {
                setup;
                wall;
                heap_mb = num "heap_words" *. float_of_int (Sys.word_size / 8) /. 1e6;
                rate = num "work" /. wall;
                digest = str "digest";
                layers =
                  (match Json.field "layers" j with
                  | Json.Obj kvs -> List.map (fun (k, v) -> (k, Json.to_float v)) kvs
                  | _ -> []);
              }
      | _ -> Error (Printf.sprintf "%s: %s" what (try str "error" with Invalid_argument _ -> last)))
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "%s: child exited %d" what c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "%s: child killed by signal %d" what s)

(* Linear-interpolation quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float list) list;  (** name, unit, samples *)
  errors : string list;
}

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run_workload ~spec ~(w : Workloads.t) ~seed ~seconds ~trace =
  let name = w.Workloads.name in
  let tmp = Filename.concat tmp_root (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  Sys.mkdir tmp 0o755;
  Fun.protect ~finally:(fun () ->
      rm_rf tmp;
      try Unix.rmdir tmp_root with Unix.Unix_error _ -> ())
  @@ fun () ->
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let child certs mode =
    incr attempted;
    match run_child ~name ~seed ~certs mode with
    | Ok s -> Some s
    | Error e ->
        incr failed;
        errors := e :: !errors;
        None
  in
  let fresh =
    let k = ref 0 in
    fun () ->
      incr k;
      Filename.concat tmp (Printf.sprintf "certs-%d" !k)
  in
  let warm = Filename.concat tmp "certs-warm" in
  let certs () = if w.Workloads.reads_certs then warm else fresh () in
  (* A run over an empty cache is the cold pass that fills it. *)
  let prep = if w.Workloads.reads_certs then Option.to_list (child warm Run) else [] in
  let untraced = ref [] and traced = ref [] in
  let start = Probe.now_ns () in
  let rec loop reps =
    let elapsed = float_of_int (Probe.now_ns () - start) *. 1e-9 in
    if !errors = [] && (reps < (if trace then 1 else min_reps) || elapsed < float_of_int seconds)
    then begin
      Option.iter (fun s -> untraced := s :: !untraced) (child (certs ()) Run);
      if trace then Option.iter (fun s -> traced := s :: !traced) (child (certs ()) Trace);
      loop (reps + 1)
    end
  in
  loop 0;
  let setups =
    if trace || !errors <> [] then []
    else List.filter_map (fun _ -> child (certs ()) Setup) (List.init setup_samples Fun.id)
  in
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let digests = List.sort_uniq compare (List.map (fun s -> s.digest) (prep @ untraced @ traced)) in
  if List.length digests > 1 then
    errors := Printf.sprintf "%s: outputs differ between repetitions" name :: !errors;
  List.iter
    (fun s ->
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k spec.per_layer) then
            errors :=
              Printf.sprintf "%s: layer metric %s is not in BENCHMARK.json" name k :: !errors)
        s.layers)
    traced;
  let have = untraced <> [] && ((not trace) || traced <> []) in
  let metrics =
    if not have then []
    else if not trace then
      List.map2
        (fun (k, u, _) xs -> (k, u, xs))
        spec.end_to_end
        [
          List.map (fun s -> s.wall) untraced;
          List.map (fun s -> s.setup) (untraced @ setups);
          List.map (fun s -> s.rate) untraced;
          List.map (fun s -> s.heap_mb) untraced;
        ]
    else
      let layer k =
        List.map (fun s -> Option.value (List.assoc_opt k s.layers) ~default:0.) traced
      in
      let wall = median (List.map (fun s -> s.wall) untraced) in
      List.map
        (fun (k, u) ->
          match k with
          | "trace.overhead_ratio" -> (k, u, [ median (List.map (fun s -> s.wall) traced) /. wall ])
          | "trace.unattributed_s" -> (k, u, [ wall -. median (layer "trace.attributed_s") ])
          | _ -> (k, u, layer k))
        spec.per_layer
  in
  {
    correct = !errors = [] && have;
    attempted = !attempted;
    failed = !failed;
    metrics;
    errors = List.rev !errors;
  }

let print_result ~name ~seed ~seconds ~trace r =
  Printf.printf "%s: seed %d, %d s, %s, %d children\n" name seed seconds
    (if trace then "traced" else "untraced")
    r.attempted;
  List.iter (fun e -> Printf.printf "  ERROR %s\n" e) r.errors;
  List.iter
    (fun (k, u, xs) ->
      Printf.printf "  %-30s %16.6f %-6s median of %d (q1 %.6f, q3 %.6f)\n" k (median xs) u
        (List.length xs) (quantile 0.25 xs) (quantile 0.75 xs))
    r.metrics;
  let metric (k, u, xs) =
    (k, Json.Obj [ ("value", Json.Float (median xs)); ("unit", Json.String u) ])
  in
  print_endline
    (Json.to_string ~indent:0
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj (List.map metric r.metrics));
          ]))

let print_host ~seed =
  let sh cmd =
    match Unix.open_process_in cmd with
    | ic ->
        let s = String.trim (In_channel.input_all ic) in
        ignore (Unix.close_process_in ic);
        s
    | exception Unix.Unix_error _ -> ""
  in
  let git = Sys.file_exists ".git" in
  let commit = if git then sh "git rev-parse --short HEAD 2>/dev/null" else "" in
  let dirty = git && sh "git status --porcelain --untracked-files=no 2>/dev/null" <> "" in
  let nproc = sh "nproc 2>/dev/null" in
  Printf.printf
    "host: nproc %s, recommended domains %d, ocaml %s, flambda %b, word size %d, commit %s%s, seed \
     %d\n"
    (if nproc = "" then "unknown" else nproc)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.flambda Sys.word_size
    (if commit = "" then "none" else commit)
    (if dirty then " (dirty)" else "")
    seed

(* Two untraced sets back to back; a median that moves by more than its
   bound between them means the benchmark cannot resolve that bound. *)
let check_stability ~spec ~workloads ~seed ~seconds =
  let set () =
    List.map
      (fun w ->
        let r = run_workload ~spec ~w ~seed ~seconds ~trace:false in
        print_result ~name:w.Workloads.name ~seed ~seconds ~trace:false r;
        (w.Workloads.name, r))
      workloads
  in
  let first = set () in
  let second = set () in
  Printf.printf "stability (seed %d, %d s per workload):\n" seed seconds;
  let ok = ref true in
  List.iter2
    (fun (name, a) (_, b) ->
      if not (a.correct && b.correct) then begin
        ok := false;
        Printf.printf "  %-16s incorrect output\n" name
      end
      else
        List.iter2
          (fun ((k, u, xa), (_, _, bound)) (_, _, xb) ->
            let ma = median xa and mb = median xb in
            let change = Float.abs (mb -. ma) /. ma in
            if change > bound then ok := false;
            Printf.printf "  %-16s %-13s %14.6f %14.6f %-4s change %5.1f%% bound %4.1f%% %s\n"
              name k ma mb u (100. *. change) (100. *. bound)
              (if change > bound then "UNSTABLE" else "ok"))
          (List.combine a.metrics spec.end_to_end)
          b.metrics)
    first second;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref None
  and seed = ref 1500
  and seconds = ref None
  and trace = ref 0
  and stability = ref false
  and child_name = ref None
  and certs = ref ""
  and mode = ref "run" in
  let args =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload (default: all)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1500)");
      ("--seconds", Arg.Int (fun s -> seconds := Some s), "S measure each workload for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer instead of end-to-end metrics");
      ("--check-stability", Arg.Set stability, " run two untraced sets and compare their medians");
      ("--child", Arg.String (fun s -> child_name := Some s), "NAME (internal) run one repetition");
      ("--certs", Arg.Set_string certs, "DIR (internal) certificate cache of the repetition");
      ("--mode", Arg.Set_string mode, "run|trace|setup (internal) what the repetition does");
    ]
  in
  Arg.parse args (fun a -> fail_usage "unexpected argument %S" a) "perf.exe [options]";
  match !child_name with
  | Some name ->
      let mode =
        match !mode with
        | "run" -> Run
        | "trace" -> Trace
        | "setup" -> Setup
        | m -> fail_usage "unknown --mode %S" m
      in
      child ~name ~seed:!seed ~certs:!certs mode
  | None ->
      let spec = read_spec () in
      let seconds = Option.value !seconds ~default:spec.run_seconds in
      if seconds < 1 then fail_usage "--seconds must be >= 1";
      if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
      let workloads = match !workload with Some n -> [ find_workload n ] | None -> Workloads.all in
      print_host ~seed:!seed;
      if !stability then check_stability ~spec ~workloads ~seed:!seed ~seconds
      else begin
        let trace = !trace = 1 in
        let all_ok =
          List.fold_left
            (fun ok w ->
              let r = run_workload ~spec ~w ~seed:!seed ~seconds ~trace in
              print_result ~name:w.Workloads.name ~seed:!seed ~seconds ~trace r;
              ok && r.correct)
            true workloads
        in
        exit (if all_ok then 0 else 1)
      end
