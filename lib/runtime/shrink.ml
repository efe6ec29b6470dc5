(* ddmin over schedules; see the interface.

   The oracle is replay-from-scratch, so minimization is sound for any
   deterministic workload: we never "guess" that a sub-schedule
   violates, we re-run it.  Each oracle call costs one full system
   build plus one replay, which for the schedule lengths produced by
   the adversaries (tens to low hundreds of choices) is milliseconds. *)

let check ~mk sched =
  (* [mk] may activate a fresh Heap arena for its system; restore the
     ambient one so repeated oracle calls do not leak it across builds.
     (The write-back cache is the system's own: [mk] builds under it.) *)
  let saved_arena = Heap.current () in
  Fun.protect ~finally:(fun () ->
      match saved_arena with Some a -> Heap.activate a | None -> Heap.deactivate ())
  @@ fun () ->
  let t, chk = mk () in
  let rec go used = function
    | [] ->
        Sim.abandon t;
        None
    | c :: rest -> (
        match Schedule.apply_guarded t c with
        | Error msg ->
            (* a violation at this choice, same as in [Explore] *)
            Sim.abandon t;
            Some (msg, used + 1)
        | Ok () -> (
            match chk () with
            | () -> go (used + 1) rest
            | exception Explore.Violation_found msg ->
                Sim.abandon t;
                Some (msg, used + 1)))
  in
  go 0 sched

(* [sched] split into [n] contiguous chunks of near-equal length. *)
let split n sched =
  let len = List.length sched in
  let base = len / n and extra = len mod n in
  let rec take k xs acc = if k = 0 then (List.rev acc, xs) else
    match xs with [] -> (List.rev acc, []) | x :: tl -> take (k - 1) tl (x :: acc)
  in
  let rec go i xs acc =
    if i = n then List.rev acc
    else
      let sz = base + if i < extra then 1 else 0 in
      let chunk, rest = take sz xs [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 sched []

(* Oracle replays one minimization may spend; past it, the best
   schedule so far is returned. *)
let max_checks = 100_000

let minimize ~mk sched =
  match check ~mk sched with
  | None -> None
  | Some (msg0, used0) ->
      let checks = ref 1 in
      let oracle s =
        if !checks >= max_checks then None
        else begin
          incr checks;
          check ~mk s
        end
      in
      (* Truncate to the choices the checker actually consumed. *)
      let cur = ref (List.filteri (fun i _ -> i < used0) sched) in
      let msg = ref msg0 in
      (* Classic ddmin: try dropping one chunk at a time; on success
         restart at the coarsest useful granularity, otherwise refine.
         Terminates because every accepted candidate is strictly
         shorter, and n only grows up to the current length. *)
      let n = ref 2 in
      let continue = ref (List.length !cur >= 2) in
      while !continue && !checks < max_checks do
        let chunks = Array.of_list (split !n !cur) in
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < Array.length chunks do
          let candidate =
            Array.to_list chunks
            |> List.filteri (fun j _ -> j <> !i)
            |> List.concat
          in
          (if candidate <> [] then
             match oracle candidate with
             | Some (m, used) ->
                 found := true;
                 cur := List.filteri (fun k _ -> k < used) candidate;
                 msg := m;
                 n := max (!n - 1) 2
             | None -> ());
          incr i
        done;
        if not !found then
          if !n >= List.length !cur then continue := false
          else n := min (2 * !n) (List.length !cur)
      done;
      Some (!cur, !msg)
