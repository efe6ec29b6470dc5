(* Domain-local undo journal for the simulator's checkpoint/restore
   engine.

   The journal is a LIFO stack of restore closures.  While a journal is
   installed (the explorer installs one around each depth-first walk),
   every mutation of simulated state — cell contents, cache-line
   ownership, per-process step/crash counters, container growth, digest
   registrations — pushes a closure that puts the old value back.
   [mark] takes the current stack extent; [rollback_to] pops and runs
   entries newest-first until the stack is back at the mark, which
   restores the entire simulation to its state at the mark.

   Three flags gate recording:

   - no journal installed: [log] is a no-op, so the write-through paths
     (tests, checkers, the replay engine) pay one branch per mutation;
   - rolling back: restore closures re-perform mutations (writing the
     old value back goes through the same mutable fields), and those
     must not journal themselves;
   - feeding: while [Sim.rollback] rebuilds a crashed-and-rewound
     process by re-feeding its recorded step values, the step bodies are
     skipped but the code between them re-runs; the journal is already
     unwound past that region, so nothing may be recorded, and [aside]
     bookkeeping does not run at all.

   The journal never depends on [Heap]/[Sim] (they depend on it).
   Counters accumulate locally and flush to {!Rcons_par.Pool.Telemetry}
   at [uninstall], so the hot path touches no atomics. *)

type journal = {
  mutable entries : (unit -> unit) array;
  mutable len : int;
  mutable live : bool; (* false while running restore closures *)
  mutable feed : bool; (* true while re-feeding recorded step values *)
  mutable peak : int; (* high-water [len] *)
  mutable pushed : int; (* total entries recorded *)
  mutable restores : int; (* rollback_to calls *)
}

let nop () = ()

let key : journal option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let install () =
  let r = Domain.DLS.get key in
  (match !r with
  | Some _ -> invalid_arg "Undo.install: a journal is already installed on this domain"
  | None -> ());
  r :=
    Some
      {
        entries = Array.make 1024 nop;
        len = 0;
        live = true;
        feed = false;
        peak = 0;
        pushed = 0;
        restores = 0;
      }

(* Rough per-entry footprint: a small closure (header + a few captured
   words) plus its stack slot.  Only used for the telemetry high-water
   estimate, never for correctness. *)
let bytes_per_entry = 56

let uninstall () =
  let r = Domain.DLS.get key in
  (match !r with
  | None -> ()
  | Some j ->
      Rcons_par.Pool.Telemetry.note_undo ~restores:j.restores ~entries:j.pushed
        ~bytes_peak:(j.peak * bytes_per_entry));
  r := None

let recording () =
  match !(Domain.DLS.get key) with Some j -> j.live && not j.feed | None -> false

let with_feeding f x =
  match !(Domain.DLS.get key) with
  | None -> f x
  | Some j -> (
      let saved = j.feed in
      j.feed <- true;
      match f x with
      | v ->
          j.feed <- saved;
          v
      | exception e ->
          j.feed <- saved;
          raise e)

(* The handle is the domain's journal slot itself: [install]/[uninstall]
   mutate the slot's contents, never replace the slot, so a handle
   captured at any time (even before [install]) stays current. *)
type handle = journal option ref

let handle () : handle = Domain.DLS.get key
let h_installed (h : handle) = !h <> None
let h_recording (h : handle) = match !h with Some j -> j.live && not j.feed | None -> false

let push j f =
  let n = Array.length j.entries in
  if j.len = n then begin
    let bigger = Array.make (2 * n) nop in
    Array.blit j.entries 0 bigger 0 n;
    j.entries <- bigger
  end;
  j.entries.(j.len) <- f;
  j.len <- j.len + 1;
  j.pushed <- j.pushed + 1;
  if j.len > j.peak then j.peak <- j.len

let h_log (h : handle) f =
  match !h with Some j when j.live && not j.feed -> push j f | Some _ | None -> ()

let log f = h_log (Domain.DLS.get key) f

let aside f =
  match !(Domain.DLS.get key) with
  | None -> ignore (f () : unit -> unit)
  | Some j when j.feed -> ()
  | Some j ->
      let undo = f () in
      if j.live then push j undo

let mark () = match !(Domain.DLS.get key) with Some j -> j.len | None -> 0

let rollback_to m =
  match !(Domain.DLS.get key) with
  | None -> ()
  | Some j ->
      if m > j.len then invalid_arg "Undo.rollback_to: mark is beyond the journal tip";
      j.live <- false;
      (try
         while j.len > m do
           j.len <- j.len - 1;
           let f = j.entries.(j.len) in
           j.entries.(j.len) <- nop;
           f ()
         done
       with e ->
         j.live <- true;
         raise e);
      j.live <- true;
      j.restores <- j.restores + 1
