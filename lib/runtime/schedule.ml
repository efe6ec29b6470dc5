(* Schedules and their metadata; see the interface. *)

type choice = Step_choice of int | Crash_choice of int

let pp_choice ppf = function
  | Step_choice i -> Format.fprintf ppf "step(p%d)" i
  | Crash_choice i -> Format.fprintf ppf "crash(p%d)" i

let pp ppf cs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp_choice ppf cs

(* Replaying a *sub*-schedule (ddmin probes one) can direct a step at a
   process that finished earlier than it did in the full schedule; the
   step is simply a no-op then, matching the pre-defensive-API behavior
   [Shrink] was built on.  Out-of-range pids (malformed artifacts) still
   raise, with the range in the message. *)
let apply t = function
  | Step_choice i ->
      if i < 0 || i >= Sim.num_procs t then
        invalid_arg
          (Printf.sprintf "Schedule.apply: pid %d out of range [0,%d)" i (Sim.num_procs t));
      if not (Sim.finished t i) then ignore (Sim.step_proc t i)
  | Crash_choice i -> Sim.crash t i

(* A process body may raise (e.g. an algorithm hitting an assertion
   because a lossy crash reverted an un-flushed write): that is a
   property violation, not a harness error.  Our own defensive checks
   name their [Sim.]/[Schedule.] entry point, and they (like any other
   exception) are no body failure. *)
let body_failure = function
  | Invalid_argument m | Failure m
    when not (String.starts_with ~prefix:"Sim." m || String.starts_with ~prefix:"Schedule." m) ->
      Some m
  | _ -> None

let apply_guarded t c =
  match apply t c with
  | () -> Ok ()
  | exception e -> (
      match body_failure e with
      | Some m -> Error ("uncaught exception in process body: " ^ m)
      | None -> raise e)

let crashes cs =
  List.fold_left (fun acc c -> match c with Crash_choice _ -> acc + 1 | _ -> acc) 0 cs

(* "s3" / "c1": compact, diffable, and obvious in a text editor. *)
let to_json cs =
  Json.List
    (List.map
       (fun c ->
         match c with
         | Step_choice i -> Json.String ("s" ^ string_of_int i)
         | Crash_choice i -> Json.String ("c" ^ string_of_int i))
       cs)

let of_json j =
  List.map
    (fun item ->
      let s = Json.to_str item in
      if String.length s < 2 then invalid_arg "Schedule.of_json: bad choice";
      let pid =
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some p when p >= 0 -> p
        | _ -> invalid_arg "Schedule.of_json: bad pid"
      in
      match s.[0] with
      | 's' -> Step_choice pid
      | 'c' -> Crash_choice pid
      | _ -> invalid_arg "Schedule.of_json: bad choice tag")
    (Json.to_list j)

type provenance = {
  origin : string;
  seed : int option;
  params : (string * string) list;
  fingerprint : string option;
}

let provenance_to_json p =
  Json.Obj
    [
      ("origin", Json.String p.origin);
      ("seed", match p.seed with Some s -> Json.Int s | None -> Json.Null);
      ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) p.params));
      ( "fingerprint",
        match p.fingerprint with Some f -> Json.String f | None -> Json.Null );
    ]

let provenance_of_json j =
  {
    origin = Json.to_str (Json.field "origin" j);
    seed = (match Json.field "seed" j with Json.Null -> None | v -> Some (Json.to_int v));
    params =
      (match Json.field "params" j with
      | Json.Obj fields -> List.map (fun (k, v) -> (k, Json.to_str v)) fields
      | _ -> invalid_arg "Schedule.provenance_of_json: params");
    fingerprint =
      (match Json.field "fingerprint" j with Json.Null -> None | v -> Some (Json.to_str v));
  }

let pp_provenance ppf p =
  Format.fprintf ppf "%s" p.origin;
  (match p.seed with Some s -> Format.fprintf ppf " seed=%d" s | None -> ());
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) p.params;
  match p.fingerprint with
  | Some f -> Format.fprintf ppf " [%s]" f
  | None -> ()
