(* Linearizability checking (Wing-Gong style search with memoization).

   A history is linearizable w.r.t. a sequential specification if there is
   a total order of its operations that (i) respects real time (if o1's
   response precedes o2's invocation, o1 comes first), (ii) is legal for
   the specification, and (iii) matches every completed operation's
   response.  Pending operations (no response -- e.g. cut off by a final
   crash) may either take effect or be dropped, as in the definitions of
   persistent/recoverable linearizability used in Section 4: an operation
   interrupted by a crash is linearized at most once, and our histories
   close crash-interrupted operations at their recovery's response, so a
   response always certifies the operation took effect exactly once.

   The search linearizes operations one at a time: a candidate must not be
   preceded in real time by the response of another not-yet-linearized
   operation.  Visited (linearized-set, object-state) pairs are memoized;
   histories are limited to [max_ops] operations (bitmask representation). *)

type ('s, 'o, 'r) spec = {
  init : 's;
  apply : 's -> 'o -> 's * 'r;
  equal_resp : 'r -> 'r -> bool;
}

(* One bit per operation in an OCaml int, less the sign bit. *)
let max_ops = 62

let check (type s o r) (spec : (s, o, r) spec) (ops : (o, r) History.operation list) =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  if n > max_ops then
    invalid_arg (Printf.sprintf "Linearizability.check: more than %d operations" max_ops);
  let completed_mask = ref 0 in
  Array.iteri (fun i (o : (o, r) History.operation) -> if o.resp <> None then completed_mask := !completed_mask lor (1 lsl i)) ops;
  let goal mask = mask land !completed_mask = !completed_mask in
  let visited : (int * s, unit) Hashtbl.t = Hashtbl.create 1024 in
  (* Candidate i is minimal if no not-yet-linearized operation j responded
     before i was invoked. *)
  let minimal mask i =
    let oi = ops.(i) in
    let ok = ref true in
    for j = 0 to n - 1 do
      if j <> i && mask land (1 lsl j) = 0 && ops.(j).res < oi.inv then ok := false
    done;
    !ok
  in
  let rec search mask state =
    goal mask
    ||
    if Hashtbl.mem visited (mask, state) then false
    else begin
      Hashtbl.add visited (mask, state) ();
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < n do
        let idx = !i in
        incr i;
        if mask land (1 lsl idx) = 0 && minimal mask idx then begin
          let o = ops.(idx) in
          let state', resp' = spec.apply state o.op in
          match o.resp with
          | Some r ->
              if spec.equal_resp r resp' then
                found := search (mask lor (1 lsl idx)) state'
          | None ->
              (* A pending operation may take effect with any response... *)
              if search (mask lor (1 lsl idx)) state' then found := true
        end
      done;
      !found
    end
  in
  search 0 spec.init

(* Check an entire recorded history against a specification. *)
let check_history spec history = check spec (History.operations history)
