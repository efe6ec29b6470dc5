(* Concurrent operation histories with crash markers.

   A history records, in global time order, invocation and response events
   of high-level operations on an implemented object, plus process-crash
   markers.  Each operation carries a unique tag so that an operation that
   is interrupted by a crash and completed by the recovery code appears as
   ONE operation: the recovery's response closes the original invocation
   (this is the shape of history produced by the recoverable universal
   construction, whose recovery function finishes the last announced
   operation). *)

type ('o, 'r) event =
  | Invoke of { pid : int; tag : int; op : 'o }
  | Response of { pid : int; tag : int; resp : 'r }
  | Crash of { pid : int }
  | Persist of { pid : int; tag : int }
      (* the effect of operation [tag] is durable from this point on:
         recorded by persist-annotated implementations after their
         barriers complete (write-back cache model, [Persist]) *)

type ('o, 'r) t = { mutable events_rev : ('o, 'r) event list; mutable next_tag : int }

let create () = { events_rev = []; next_tag = 0 }

let invoke t ~pid op =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  t.events_rev <- Invoke { pid; tag; op } :: t.events_rev;
  tag

let respond t ~pid ~tag resp = t.events_rev <- Response { pid; tag; resp } :: t.events_rev
let crash t ~pid = t.events_rev <- Crash { pid } :: t.events_rev
let persist t ~pid ~tag = t.events_rev <- Persist { pid; tag } :: t.events_rev
let events t = List.rev t.events_rev
let rev_events t = t.events_rev

(* Cheap structural save/restore, for undo-journaling call sites (this
   library stays runtime-agnostic; the simulation layers that append to
   a history journal it themselves).  The event list is immutable, so a
   save is two words. *)
type ('o, 'r) saved = ('o, 'r) event list * int

let save t = (t.events_rev, t.next_tag)

let restore t (events_rev, next_tag) =
  t.events_rev <- events_rev;
  t.next_tag <- next_tag

(* One operation extracted from a history: [res] is the index of its
   response event in the event sequence, or [max_int] when pending. *)
type ('o, 'r) operation = {
  op_pid : int;
  op_tag : int;
  op : 'o;
  resp : 'r option;
  inv : int;
  res : int;
}

let operations t =
  let evs = Array.of_list (events t) in
  let by_tag = Hashtbl.create 16 in
  Array.iteri
    (fun i ev ->
      match ev with
      | Invoke { pid; tag; op } ->
          Hashtbl.replace by_tag tag { op_pid = pid; op_tag = tag; op; resp = None; inv = i; res = max_int }
      | Response { tag; resp; _ } -> (
          match Hashtbl.find_opt by_tag tag with
          | Some o -> Hashtbl.replace by_tag tag { o with resp = Some resp; res = i }
          | None -> invalid_arg "History.operations: response without invocation")
      | Crash _ | Persist _ -> ())
    evs;
  Hashtbl.fold (fun _ o acc -> o :: acc) by_tag []
  |> List.sort (fun a b -> compare a.inv b.inv)

let num_crashes t =
  List.length (List.filter (function Crash _ -> true | _ -> false) (events t))
