(* Replayable counterexample artifacts; see the interface. *)

module Json = Rcons_runtime.Json
module Schedule = Rcons_runtime.Schedule
module Explore = Rcons_runtime.Explore
module Shrink = Rcons_runtime.Shrink
module Persist = Rcons_runtime.Persist

type workload = {
  type_name : string;
  level : int;
  faithful : bool;
  input_a : int;
  input_b : int;
  persist : Persist.policy;
  annotated : bool;
  flush_cost : int;
  log_slots : int option;
}

let team2 ?(faithful = true) ?(level = 2) ?(inputs = (111, 222)) ?(persist = Persist.Eager)
    ?(annotated = false) ?(flush_cost = 1) type_name =
  {
    type_name;
    level;
    faithful;
    input_a = fst inputs;
    input_b = snd inputs;
    persist;
    annotated;
    flush_cost;
    log_slots = None;
  }

let log ?(faithful = true) ?(level = 2) ?(persist = Persist.Eager) ?(annotated = false)
    ?(flush_cost = 1) ~slots type_name =
  if slots < 1 then invalid_arg "Counterexample.log: slots must be >= 1";
  (* The log derives one proposal per (team, slot), so the team-input
     fields are unused; they keep their defaults for JSON stability. *)
  {
    type_name;
    level;
    faithful;
    input_a = 111;
    input_b = 222;
    persist;
    annotated;
    flush_cost;
    log_slots = Some slots;
  }

(* Non-default persistency parameters are appended as suffixes so the
   canonical string -- and hence the fingerprint binding committed
   artifacts to their workload -- is unchanged for every pre-existing
   (eager) artifact. *)
let persist_suffixes w =
  (match w.persist with
  | Persist.Eager -> ""
  | p -> ":persist=" ^ Persist.policy_to_string p)
  ^ (if w.annotated then ":annotated" else "")
  ^ if w.flush_cost = 1 then "" else Printf.sprintf ":flush-cost=%d" w.flush_cost

let canonical w =
  match w.log_slots with
  | None ->
      Printf.sprintf "team-consensus:%s:level=%d:faithful=%b:inputs=%d,%d%s" w.type_name
        w.level w.faithful w.input_a w.input_b (persist_suffixes w)
  | Some slots ->
      Printf.sprintf "replicated-log:%s:level=%d:faithful=%b:slots=%d%s" w.type_name w.level
        w.faithful slots (persist_suffixes w)

let fingerprint w = Digest.to_hex (Digest.string (canonical w))

(* The workload's certificate, re-derived by the same deterministic
   witness search that produced it. *)
let cert_of w =
  match Rcons_spec.Catalogue.of_name w.type_name with
  | Error e -> Error e
  | Ok ot -> (
      match Rcons_check.Recording.witness ot w.level with
      | None ->
          Error
            (Printf.sprintf "%s has no level-%d recording witness"
               (Rcons_spec.Object_type.name ot) w.level)
      | Some cert -> Ok cert)

(* Interchangeable-process classes of the workload, for the
   symmetry-reducing explorer: the certificate's equal-operation slots
   per team.  Sound here because the workload gives every member of a
   team the same input (one input value per team). *)
let symmetry_classes w = Result.map Rcons_check.Certificate.symmetry_classes (cert_of w)

(* Every build runs under the workload's cache model -- policy, flush
   cost and barriers: a fresh cache per system (lines are per-system
   state), which the system then carries; eager at cost 1 without
   barriers builds with none. *)
let build w f = Persist.scoped ~flush_cost:w.flush_cost ~barriers:w.annotated w.persist f

let team_build w cert =
  let size_a, size_b = Rcons_check.Certificate.recording_teams cert in
  let n = size_a + size_b in
  let inputs = Array.init n (fun i -> if i < size_a then w.input_a else w.input_b) in
  fun () ->
    build w @@ fun () ->
    Rcons_algo.Outputs.system ~inputs @@ fun () ->
    let tc = Rcons_algo.Team_consensus.create ~faithful:w.faithful cert in
    fun pid v ->
      if pid < size_a then tc.Rcons_algo.Team_consensus.decide Rcons_spec.Team.A pid v
      else tc.Rcons_algo.Team_consensus.decide Rcons_spec.Team.B (pid - size_a) v

let team_system w =
  match w.log_slots with
  | Some _ -> Error "Counterexample.team_system: not a team-consensus workload"
  | None -> Result.map (team_build w) (cert_of w)

let mk w =
  Result.map
    (fun cert ->
      match w.log_slots with
      | Some slots ->
          fun () ->
            build w @@ fun () ->
            let t, sim = Rcons_log.Rlog.instance ~faithful:w.faithful ~slots cert in
            (sim, fun () -> Rcons_log.Rlog.check_exn ~fail:Explore.fail t)
      | None ->
          let system = team_build w cert in
          fun () ->
            let sim, outputs = system () in
            (sim, fun () -> Rcons_algo.Outputs.check_exn ~fail:Explore.fail outputs))
    (cert_of w)

type t = {
  workload : workload;
  msg : string;
  schedule : Schedule.choice list;
  shrunk_from : int option;
  provenance : Schedule.provenance option;
}

let of_violation w (v : Explore.violation) =
  {
    workload = w;
    msg = v.v_msg;
    schedule = v.v_schedule;
    shrunk_from = None;
    provenance = v.v_provenance;
  }

let minimize ?max_checks t =
  match mk t.workload with
  | Error e -> Error e
  | Ok mk -> (
      match Shrink.minimize ?max_checks ~mk t.schedule with
      | None -> Error "schedule does not violate; nothing to shrink"
      | Some (schedule, msg) ->
          Ok { t with msg; schedule; shrunk_from = Some (List.length t.schedule) })

let replay t =
  (match t.provenance with
  | Some { Schedule.fingerprint = Some fp; _ } when fp <> fingerprint t.workload ->
      invalid_arg
        (Printf.sprintf
           "Counterexample.replay: artifact fingerprint %s does not match workload %s (%s)" fp
           (fingerprint t.workload) (canonical t.workload))
  | _ -> ());
  match mk t.workload with
  | Error e -> invalid_arg ("Counterexample.replay: " ^ e)
  | Ok mk -> (
      match Shrink.check ~mk t.schedule with
      | Some (msg, _) -> `Violated msg
      | None -> `Passed)

let workload_to_json w =
  Json.Obj
    ([
       ( "kind",
         Json.String
           (match w.log_slots with None -> "team-consensus" | Some _ -> "replicated-log") );
       ("type", Json.String w.type_name);
       ("level", Json.Int w.level);
       ("faithful", Json.Bool w.faithful);
       ("input_a", Json.Int w.input_a);
       ("input_b", Json.Int w.input_b);
       ("persist", Json.String (Persist.policy_to_string w.persist));
       ("annotated", Json.Bool w.annotated);
       ("flush_cost", Json.Int w.flush_cost);
     ]
    @ match w.log_slots with None -> [] | Some s -> [ ("slots", Json.Int s) ])

let workload_of_json j =
  let log_slots =
    match Json.member "kind" j with
    | Some (Json.String "team-consensus") -> None
    | Some (Json.String "replicated-log") -> Some (Json.to_int (Json.field "slots" j))
    | _ -> invalid_arg "Counterexample.of_json: unknown workload kind"
  in
  {
    type_name = Json.to_str (Json.field "type" j);
    level = Json.to_int (Json.field "level" j);
    faithful = Json.to_bool (Json.field "faithful" j);
    input_a = Json.to_int (Json.field "input_a" j);
    input_b = Json.to_int (Json.field "input_b" j);
    (* Absent in pre-persistency artifacts: default to the seed model. *)
    persist =
      (match Json.member "persist" j with
      | Some v -> Persist.policy_of_string (Json.to_str v)
      | None -> Persist.Eager);
    annotated = (match Json.member "annotated" j with Some v -> Json.to_bool v | None -> false);
    flush_cost = (match Json.member "flush_cost" j with Some v -> Json.to_int v | None -> 1);
    log_slots;
  }

let to_json t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("kind", Json.String "counterexample");
      ("workload", workload_to_json t.workload);
      ("msg", Json.String t.msg);
      ("schedule", Schedule.to_json t.schedule);
      ( "shrunk_from",
        match t.shrunk_from with Some n -> Json.Int n | None -> Json.Null );
      ( "provenance",
        match t.provenance with Some p -> Schedule.provenance_to_json p | None -> Json.Null );
    ]

let of_json j =
  (match Json.member "kind" j with
  | Some (Json.String "counterexample") -> ()
  | _ -> invalid_arg "Counterexample.of_json: not a counterexample artifact");
  {
    workload = workload_of_json (Json.field "workload" j);
    msg = Json.to_str (Json.field "msg" j);
    schedule = Schedule.of_json (Json.field "schedule" j);
    shrunk_from =
      (match Json.member "shrunk_from" j with
      | Some Json.Null | None -> None
      | Some v -> Some (Json.to_int v));
    provenance =
      (match Json.member "provenance" j with
      | Some Json.Null | None -> None
      | Some v -> Some (Schedule.provenance_of_json v));
  }

let save ~file t = Json.save ~file (to_json t)
let load ~file = of_json (Json.load ~file)
