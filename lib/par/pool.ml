(* Domain pool with deterministic result merging.

   Every combinator runs a function over the index range [0, n) and
   merges per-index results so the outcome does not depend on the number
   of domains: [?domains:1] (the default) and any larger value produce
   the same answer, bit for bit.  Determinism comes from the merge,
   never from the schedule.

   Two layers keep the overhead proportional to the work instead of to
   the call count:

   - A {e granularity cutoff}.  Every combinator first runs indices
     inline on the calling domain until [sequential_cutoff] seconds have
     elapsed (default 1ms, override with [set_sequential_cutoff]); only
     then does it fan the remaining range out.  Scans whose whole work
     fits in the grace period — the small classify sweeps that used to
     regress 10-30x under [?domains] — never spawn a domain at all, and
     a scan that does fan out is guaranteed to carry at least a grace
     period of work, so the per-job [Domain.spawn] cost (tens of
     microseconds per worker) stays a few percent in the worst case.

   - {e One shared cursor}.  Participants claim the remaining indices
     one at a time with [Atomic.fetch_and_add], so indices are handed
     out in order.  [find_first]'s hits usually sit near the front of
     its range; in-order claims keep every participant on that front,
     and a claim at or above the smallest hit so far ends the claimer's
     loop, since every later claim would be larger still.  (Splitting
     the range into per-participant blocks instead sends all but one
     participant deep into the range, where candidates are large and
     can never win, while the join waits for them.)

   Worker domains are deliberately spawned {e per job} and joined before
   the combinator returns, never parked in a persistent pool.  On OCaml
   5.1 every live domain participates in stop-the-world minor
   collections, so parked idle domains tax allocation-heavy {e
   sequential} phases measurably (~3x on the explorer); joined domains
   cost nothing.  Per-job spawning also means worker domain-local state
   (heap arenas, persistency caches) starts fresh every time, so no
   cross-job hygiene is needed.

   With [domains <= 1], inside a worker (nested calls run inline rather
   than nest domain fan-outs), or when the range is trivially small,
   everything runs on the calling domain: no spawns, no atomics, just
   the plain left-to-right loop. *)

let available_domains () = max 1 (Domain.recommended_domain_count ())

let resolve_domains = function
  | None -> 1
  | Some d when d <= 1 -> 1
  | Some d -> d

(* ------------------------------------------------------------------ *)
(* Telemetry: cheap global counters for the bench's per-stage rows.    *)

module Telemetry = struct
  type snapshot = {
    jobs : int;  (* parallel jobs submitted to the pool *)
    chunks : int;  (* index claims off a job's cursor *)
    seq_cutoffs : int;  (* calls completed inside the grace period *)
    restores : int;  (* explorer rollbacks to a journal mark *)
    undo_entries : int;  (* undo-journal entries pushed *)
    undo_bytes_peak : int;  (* high-water estimate of journal footprint *)
    rehashes_full : int;  (* fingerprint components recomputed *)
    rehashes_saved : int;  (* fingerprint components served from cache *)
  }

  let jobs = Atomic.make 0
  let chunks = Atomic.make 0
  let seq_cutoffs = Atomic.make 0
  let restores = Atomic.make 0
  let undo_entries = Atomic.make 0
  let undo_bytes_peak = Atomic.make 0
  let rehashes_full = Atomic.make 0
  let rehashes_saved = Atomic.make 0

  (* The peak is a high-water mark, not a sum: raise-only CAS merge. *)
  let note_bytes_peak b =
    let rec go () =
      let cur = Atomic.get undo_bytes_peak in
      if b > cur && not (Atomic.compare_and_set undo_bytes_peak cur b) then go ()
    in
    go ()

  (* Batched contributions from the runtime layer (undo journal,
     fingerprint cache): one atomic op per batch, not per event. *)
  let note_undo ~restores:r ~entries ~bytes_peak =
    ignore (Atomic.fetch_and_add restores r);
    ignore (Atomic.fetch_and_add undo_entries entries);
    note_bytes_peak bytes_peak

  let note_rehashes ~full ~saved =
    ignore (Atomic.fetch_and_add rehashes_full full);
    ignore (Atomic.fetch_and_add rehashes_saved saved)

  let snapshot () =
    {
      jobs = Atomic.get jobs;
      chunks = Atomic.get chunks;
      seq_cutoffs = Atomic.get seq_cutoffs;
      restores = Atomic.get restores;
      undo_entries = Atomic.get undo_entries;
      undo_bytes_peak = Atomic.get undo_bytes_peak;
      rehashes_full = Atomic.get rehashes_full;
      rehashes_saved = Atomic.get rehashes_saved;
    }

  let diff a b =
    {
      jobs = a.jobs - b.jobs;
      chunks = a.chunks - b.chunks;
      seq_cutoffs = a.seq_cutoffs - b.seq_cutoffs;
      restores = a.restores - b.restores;
      undo_entries = a.undo_entries - b.undo_entries;
      (* A high-water mark does not subtract; report the bracket's end
         value (the global peak at the end of the workload). *)
      undo_bytes_peak = a.undo_bytes_peak;
      rehashes_full = a.rehashes_full - b.rehashes_full;
      rehashes_saved = a.rehashes_saved - b.rehashes_saved;
    }
end

(* ------------------------------------------------------------------ *)
(* Granularity cutoff.                                                 *)

let cutoff = Atomic.make 0.001

let sequential_cutoff () = Atomic.get cutoff
let set_sequential_cutoff g = Atomic.set cutoff (max 0. g)
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Per-job worker domains.                                             *)

(* True on worker domains, and on the caller domain while it is
   participating in a job: combinators called from either run inline, so
   nested parallelism never nests domain fan-outs. *)
let in_parallel_region : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Effective participant count for a request of [k] domains: 1 inside a
   worker or for sequential requests; otherwise capped at one participant
   per core (with a floor of 4 so single-core test machines still
   exercise real cross-domain schedules in the determinism suites).
   Determinism never depends on this number (merge-based), so clamping a
   generous [--domains] to the machine is free. *)
let effective_width k =
  if k <= 1 || Domain.DLS.get in_parallel_region then 1
  else min k (max 4 (available_domains ()))

(* Run [body p] for every participant p in [0, width); the caller is
   participant 0, the others are freshly spawned domains (joined before
   returning, so no idle domain outlives the job to tax later sequential
   phases with stop-the-world barriers).  The first exception in
   participant order (caller first) is re-raised. *)
let run_job width body =
  let exns = Array.make width None in
  Atomic.incr Telemetry.jobs;
  let doms =
    Array.init (width - 1) (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_parallel_region true;
            match body (i + 1) with
            | () -> ()
            | exception e -> exns.(i + 1) <- Some e))
  in
  Domain.DLS.set in_parallel_region true;
  (match body 0 with () -> () | exception e -> exns.(0) <- Some e);
  Domain.DLS.set in_parallel_region false;
  Array.iter Domain.join doms;
  Array.iter (function Some e -> raise e | None -> ()) exns

(* ------------------------------------------------------------------ *)
(* Combinators.                                                        *)

(* What [superseded] reads: the lowest-hit watermark of the parallel job
   this domain takes part in, and the index it is evaluating.  Outside a
   job the watermark is [idle], which is never lowered. *)
type position = { mutable lowest : int Atomic.t; mutable index : int }

let idle = Atomic.make max_int
let position = Domain.DLS.new_key (fun () -> { lowest = idle; index = 0 })

let superseded () =
  let p = Domain.DLS.get position in
  Atomic.get p.lowest < p.index

let seq_find f lo hi =
  let rec scan i =
    if i >= hi then None else match f i with Some _ as r -> r | None -> scan (i + 1)
  in
  scan lo

(* The one range driver, for [width > 1] participants and [n > 1]
   indices: the value of [f i] at the smallest [i] where it is [Some],
   as a left-to-right scan returns it.  Indices run inline until the
   grace period elapses; participants then claim the rest off one
   cursor.  [lowest], the smallest hit so far, ends a participant's loop
   at its first claim that can no longer win.  [map] is the instance
   whose [f] never hits. *)
let drive width n f =
  let g = Atomic.get cutoff in
  let t0 = now () in
  let rec grace i =
    if i >= n || not (g > 0. && now () -. t0 < g) then (i, None)
    else match f i with Some _ as r -> (i, r) | None -> grace (i + 1)
  in
  match grace 0 with
  | start, None when start < n ->
      let lowest = Atomic.make max_int in
      let rec lower i =
        let b = Atomic.get lowest in
        if i < b && not (Atomic.compare_and_set lowest b i) then lower i
      in
      (* A participant stops at its first hit: its next claim is larger,
         hence at or above [lowest].  So one slot each suffices. *)
      let hits = Array.make width None in
      let failed = Atomic.make false in
      let cursor = Atomic.make start in
      run_job width (fun j ->
          let pos = Domain.DLS.get position in
          pos.lowest <- lowest;
          Fun.protect ~finally:(fun () -> pos.lowest <- idle) @@ fun () ->
          let rec loop () =
            if not (Atomic.get failed) then begin
              let i = Atomic.fetch_and_add cursor 1 in
              if i < n && i < Atomic.get lowest then begin
                pos.index <- i;
                (match f i with
                | Some v ->
                    lower i;
                    hits.(j) <- Some (i, v)
                | None -> ());
                loop ()
              end
            end
          in
          try loop ()
          with e ->
            Atomic.set failed true;
            raise e);
      (* Every fetch-and-add is one claim, the loop-ending ones included. *)
      ignore (Atomic.fetch_and_add Telemetry.chunks (Atomic.get cursor - start));
      let best = Atomic.get lowest in
      Array.find_map (function Some (i, v) when i = best -> Some v | _ -> None) hits
  | _, r ->
      (* Settled inside the grace period: the pool is never touched. *)
      Atomic.incr Telemetry.seq_cutoffs;
      r

let find_first ?domains n f =
  let width = effective_width (resolve_domains domains) in
  if width <= 1 || n <= 1 then seq_find f 0 n else drive width n f

let map ?domains n f =
  let width = effective_width (resolve_domains domains) in
  if width <= 1 || n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    ignore
      (drive width n (fun i ->
           results.(i) <- Some (f i);
           None));
    Array.map Option.get results
  end
