(* A recoverable compare-and-swap object built from an ordinary atomic
   CAS object and registers, in the style of Attiya, Ben-Baruch and
   Hendler's recoverable CAS (cited in Section 5 of the paper: "any
   concurrent algorithm from read/write and CAS objects can become
   recoverable by replacing its CAS objects with their recoverable
   implementation").

   The difficulty is detectability: a process that crashes right after
   its successful CAS must be able to discover, upon recovery, that the
   operation took effect -- even if the installed value has since been
   overwritten.  Two mechanisms provide it:

   - values in the underlying object are tagged with (owner, attempt), so
     a process whose value is still installed recognizes it directly;
   - before overwriting a tagged value, a process first records the
     (owner, attempt) it observed in the owner's evidence row; the
     owner's recovery finds the record even after the value is gone.
     Evidence for an older attempt may be overwritten by evidence for a
     newer one, but a process's attempts are sequential: by the time it
     starts attempt a+1 it has already resolved attempt a.

   Each invocation is identified by a per-process attempt number and is
   idempotent: re-entering [cas] with the same attempt (what a restarted
   process does) returns the recorded outcome without re-executing.

   On interference the operation re-reads and retries while the current
   value still equals [expected] (the tag made the underlying CAS fail
   spuriously); this makes the operation lock-free rather than wait-free,
   as in the original construction. *)

open Rcons_runtime

type 'v tagged = { value : 'v; owner : int; attempt : int }

type 'v phase =
  | Idle
  | Attempt of { attempt : int; expected : 'v; desired : 'v }
  | Done of { attempt : int; result : bool }

type 'v t = {
  n : int;
  c : 'v tagged Cell.t;
  evidence : int option Cell.t array array;
      (* evidence.(q).(p) = Some s: process p observed q's attempt s
         installed in [c] (and was about to overwrite it) *)
  phase : 'v phase Cell.t array;
}

let create ~n initial =
  {
    n;
    c = Cell.make { value = initial; owner = -1; attempt = 0 };
    evidence = Array.init n (fun _ -> Array.init n (fun _ -> Cell.make None));
    phase = Array.init n (fun _ -> Cell.make Idle);
  }

(* Atomic compare-and-swap on the underlying tagged cell: one step, like
   a hardware CAS. *)
let cas_tagged c ~expected_tag ~desired_tag =
  Sim.step ~fp:(Cell.footprint c Rcons_spec.Footprint.Update) (fun () ->
      if Cell.peek c = expected_tag then begin
        Cell.poke c desired_tag;
        true
      end
      else false)

let read_value t = (Cell.read t.c).value

(* [cas t pid ~attempt ~expected ~desired]: recoverable CAS, idempotent
   per (pid, attempt).  Attempts of one process must be issued with
   increasing numbers. *)
let cas t pid ~attempt ~expected ~desired =
  let finish result =
    Cell.write t.phase.(pid) (Done { attempt; result });
    result
  in
  let rec attempt_loop () =
    let cur = Cell.read t.c in
    if cur.owner = pid && cur.attempt = attempt then finish true
    else if cur.value <> expected then finish false
    else begin
      (* record evidence for the current owner before overwriting *)
      if cur.owner >= 0 then Cell.write t.evidence.(cur.owner).(pid) (Some cur.attempt);
      if
        cas_tagged t.c ~expected_tag:cur
          ~desired_tag:{ value = desired; owner = pid; attempt }
      then finish true
      else attempt_loop ()
    end
  in
  match Cell.read t.phase.(pid) with
  | Done { attempt = a; result } when a = attempt -> result (* recovery fast path *)
  | Done _ | Idle ->
      Cell.write t.phase.(pid) (Attempt { attempt; expected; desired });
      attempt_loop ()
  | Attempt { attempt = a; _ } when a <> attempt ->
      Cell.write t.phase.(pid) (Attempt { attempt; expected; desired });
      attempt_loop ()
  | Attempt _ ->
      (* recovery: we crashed mid-attempt; did it already take effect? *)
      let cur = Cell.read t.c in
      if cur.owner = pid && cur.attempt = attempt then finish true
      else begin
        let succeeded = ref false in
        for p = 0 to t.n - 1 do
          if (not !succeeded) && Cell.read t.evidence.(pid).(p) = Some attempt then
            succeeded := true
        done;
        if !succeeded then finish true else attempt_loop ()
      end

(* Detectability (the NRL-style guarantee of Section 4): after a crash,
   what is the status of process [pid]'s attempt [attempt]?  Unlike
   [cas], never re-executes anything. *)
type status = Succeeded | Failed | Unresolved

let recover t pid ~attempt =
  match Cell.read t.phase.(pid) with
  | Done { attempt = a; result } when a = attempt -> if result then Succeeded else Failed
  | Done _ | Idle -> Unresolved
  | Attempt { attempt = a; _ } when a <> attempt -> Unresolved
  | Attempt _ ->
      let cur = Cell.read t.c in
      if cur.owner = pid && cur.attempt = attempt then Succeeded
      else begin
        let succeeded = ref false in
        for p = 0 to t.n - 1 do
          if (not !succeeded) && Cell.read t.evidence.(pid).(p) = Some attempt then
            succeeded := true
        done;
        if !succeeded then Succeeded else Unresolved
      end
