(* Small shared helpers for the experiment harness. *)

let section title =
  Format.printf "@.=== %s ===@." title;
  Format.printf "%s@." (String.make (String.length title + 8) '=')

let row fmt = Format.printf fmt

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let level_str l = Format.asprintf "%a" Rcons.Check.Classify.pp_level l
let bounds_str b = Format.asprintf "%a" Rcons.Check.Classify.pp_bounds_option b

(* Global seed offset ([--seed N] in main): every experiment derives its
   adversary seeds through [seed], so one flag reruns the whole harness
   on fresh randomness.  The default offset 0 reproduces EXPERIMENTS.md
   exactly. *)
let seed_offset = ref 0
let seed base = base + !seed_offset

(* The Figure 2 workloads the benches build through
   [Rcons.Counterexample] always resolve: an error is a bug. *)
let ok_or_fail = function Ok v -> v | Error e -> failwith e
