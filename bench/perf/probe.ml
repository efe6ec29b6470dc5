(* Outside-in per-call timing of the explorer layers.

   The probe is a second depth-first walker written only against the
   public Sim / Undo / Heap / Visited API.  It visits children in
   Explore's order (per process: crash, then step), prunes crashes the
   same way (only started, unfinished processes; at most [max_crashes]
   on a path), and backtracks exactly like Explore's checkpoint/restore
   engine: mark before every child but the last, roll back after it.
   Around each call into a layer it reads the monotonic clock, so every
   layer gets a call count and a mean cost per call.

   Its numbers are only trusted once the walk is shown to be Explore's
   walk: [validate] compares the probe's counts with Explore.explore on
   two small configurations before any per-call time is reported.

   Limits of the outside view: Explore's por + dedup mode uses a
   sleep-set walk and an internal masked store, neither of which is
   public, so the probe walks such a workload without por, claims
   ungraded fingerprints in a Visited set, and stops at a node cap. *)

module Sim = Rcons.Runtime.Sim
module Undo = Rcons.Runtime.Undo
module Heap = Rcons.Runtime.Heap
module Persist = Rcons.Runtime.Persist
module E = Rcons.Runtime.Explore
module Cex = Rcons.Counterexample
module Visited = Rcons.Par.Visited

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Cost of one empty clock-read pair, subtracted from every timed call:
   the median of many back-to-back reads. *)
let clock_overhead_ns =
  lazy
    (let samples =
       Array.init 2001 (fun _ ->
           let t0 = now_ns () in
           now_ns () - t0)
     in
     Array.sort compare samples;
     samples.(1000))

type layer = { mutable calls : int; mutable ns : int }

let layer () = { calls = 0; ns = 0 }

(* Mean cost of one call, clock overhead removed; 0 for an unused layer. *)
let ns_per_call l =
  if l.calls = 0 then 0.
  else
    Float.max 0.
      ((float_of_int l.ns /. float_of_int l.calls) -. float_of_int (Lazy.force clock_overhead_ns))

type walk = {
  step : layer;  (** steps of processes whose continuation is live *)
  rebuild_step : layer;  (** first step of a process a rollback made stale *)
  crash : layer;
  rollback : layer;
  fingerprint : layer;
  claim : layer;
  check : layer;
  mutable nodes : int;
  mutable schedules : int;
  mutable distinct : int;
  mutable complete : bool;  (** false when [node_cap] stopped the walk *)
}

exception Cap

(* Explore's child order: for each pid ascending, the crash (if allowed)
   and then the step (if unfinished). *)
let choices ~max_crashes t crashes_used =
  let rec collect i acc =
    if i < 0 then acc
    else
      let acc = if Sim.finished t i then acc else E.Step_choice i :: acc in
      let acc =
        if crashes_used < max_crashes && Sim.started t i && not (Sim.finished t i) then
          E.Crash_choice i :: acc
        else acc
      in
      collect (i - 1) acc
  in
  collect (Sim.num_procs t - 1) []

let walk ?(node_cap = max_int) ~max_crashes ~dedup ~graded mk =
  let w =
    {
      step = layer ();
      rebuild_step = layer ();
      crash = layer ();
      rollback = layer ();
      fingerprint = layer ();
      claim = layer ();
      check = layer ();
      nodes = 0;
      schedules = 0;
      distinct = 0;
      complete = false;
    }
  in
  let timed l f =
    let t0 = now_ns () in
    let v = f () in
    l.ns <- l.ns + (now_ns () - t0);
    l.calls <- l.calls + 1;
    v
  in
  (* The set-up Explore does before building its system: fresh object
     ids, a fresh fingerprint arena under dedup, and a journal installed
     before the build so every step value is recorded for rebuilds. *)
  let saved_arena = Heap.current () and saved_cache = Persist.current () in
  Rcons.Spec.Footprint.reset_oids ();
  if dedup then Heap.activate (Heap.create ());
  Undo.install ();
  Fun.protect
    ~finally:(fun () ->
      Undo.uninstall ();
      (match saved_arena with Some a -> Heap.activate a | None -> Heap.deactivate ());
      Persist.restore saved_cache)
  @@ fun () ->
  let t, check = mk () in
  Fun.protect ~finally:(fun () -> Sim.abandon t) @@ fun () ->
  (* A rollback marks stale every process with a step or crash undone by
     it; the next step of a stale process rebuilds its continuation.
     [touched] mirrors the journal's per-process step/crash entries. *)
  let stale = Array.make (Sim.num_procs t) false in
  let touched = Stack.create () in
  let apply c =
    let p, l =
      match c with
      | E.Crash_choice p -> (p, w.crash)
      | E.Step_choice p -> (p, if stale.(p) then w.rebuild_step else w.step)
    in
    timed l (fun () -> E.apply_choice t c);
    stale.(p) <- false;
    Stack.push p touched
  in
  let vset = Visited.create () in
  let claim () =
    let fp = timed w.fingerprint (fun () -> Sim.fingerprint_digest ~graded t) in
    timed w.claim (fun () -> Visited.add vset fp)
  in
  let rec expand crashes_used =
    match choices ~max_crashes t crashes_used with
    | [] -> w.schedules <- w.schedules + 1
    | cs ->
        let last = List.length cs - 1 in
        List.iteri
          (fun k c ->
            if w.nodes >= node_cap then raise Cap;
            w.nodes <- w.nodes + 1;
            let crashes' =
              match c with E.Crash_choice _ -> crashes_used + 1 | E.Step_choice _ -> crashes_used
            in
            let m = if k = last then None else Some (Sim.mark t, Stack.length touched) in
            apply c;
            timed w.check check;
            if (not dedup) || claim () then expand crashes';
            Option.iter
              (fun (m, len) ->
                timed w.rollback (fun () -> Sim.rollback t m);
                while Stack.length touched > len do
                  stale.(Stack.pop touched) <- true
                done)
              m)
          cs
  in
  if dedup then ignore (claim ());
  (match expand 0 with () -> w.complete <- true | exception Cap -> ());
  w.distinct <- (if dedup then Visited.cardinal vset else 0);
  w

let mk_exn w = match Cex.mk w with Ok mk -> mk | Error e -> failwith e

(* The probe must walk Explore's tree before its times mean anything:
   raw S_2 with one crash, and graded dedup S_2 with two crashes, both
   against Explore.explore and against the counts pinned for them. *)
let validate () =
  let s2 = Cex.team2 "S2" in
  let mk = mk_exn s2 in
  let raw = walk ~max_crashes:1 ~dedup:false ~graded:true mk in
  let e_raw = E.explore ~max_crashes:1 ~mk () in
  let dd = walk ~max_crashes:2 ~dedup:true ~graded:true mk in
  let e_dd = E.explore ~max_crashes:2 ~dedup:true ~mk () in
  let got =
    [
      ("raw nodes", raw.nodes, e_raw.E.nodes, 112_674);
      ("raw schedules", raw.schedules, e_raw.E.schedules, 30_120);
      ("dedup nodes", dd.nodes, e_dd.E.nodes, 9_940);
      ("dedup schedules", dd.schedules, e_dd.E.schedules, 156);
      ("dedup distinct states", dd.distinct, e_dd.E.distinct_states, 5_127);
    ]
  in
  match List.find_opt (fun (_, p, e, pin) -> p <> e || e <> pin) got with
  | None -> Ok ()
  | Some (what, p, e, pin) ->
      Error (Printf.sprintf "probe self-validation: %s probe=%d explore=%d pinned=%d" what p e pin)
