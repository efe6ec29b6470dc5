(* Fleet soak driver; see the interface. *)

open Rcons_runtime

type summary = {
  s_instances : int;
  s_ticks : int;
  s_sim_steps : int;
  s_submitted : int;
  s_acked : int;
  s_completed : int;
  s_completed_unacked : int;
  s_gave_up : int;
  s_retries : int;
  s_timeouts : int;
  s_overloads : int;
  s_shed : int;
  s_admitted : int;
  s_queue_high_water : int;
  s_crashes_delivered : int;
  s_crashes_requested : int;
  s_recoveries : int;
  s_checks_run : int;
  s_generations : int;
  s_stuck : int;
  s_latency : Metrics.hist;
  s_recovery : Metrics.hist;
  s_replay : Metrics.hist;
  s_commit_digest : string;
}

type outcome = { reports : Instance.report list; summary : summary }

let default ~id ~seed =
  {
    Instance.id;
    seed;
    kind = Instance.Universal;
    adversary = Adversary.Uniform { crash_prob = 0.05; max_crashes = 8 };
    persist = Persist.Eager;
    flush_cost = 2;
    annotated = true;
    queue_cap = 32;
    sessions = 16;
    ops_per_session = 4;
    open_rate = 0.25;
    open_ops = 8;
    cert = None;
    max_ticks = 50_000;
  }

let summarize reports =
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let maxi f = List.fold_left (fun a r -> max a (f r)) 0 reports in
  let lat = Metrics.hist () and rec_h = Metrics.hist () and replay = Metrics.hist () in
  let buf = Buffer.create 512 in
  List.iter
    (fun (r : Instance.report) ->
      Metrics.merge_into ~dst:lat r.Instance.r_latency;
      Metrics.merge_into ~dst:rec_h r.Instance.r_recovery;
      Metrics.merge_into ~dst:replay r.Instance.r_replay;
      Buffer.add_string buf (string_of_int r.Instance.r_id);
      Buffer.add_char buf '#';
      Buffer.add_string buf r.Instance.r_commit_trace;
      Buffer.add_char buf '\n')
    reports;
  {
    s_instances = List.length reports;
    s_ticks = maxi (fun r -> r.Instance.r_ticks);
    s_sim_steps = sum (fun r -> r.Instance.r_sim_steps);
    s_submitted = sum (fun r -> r.Instance.r_submitted);
    s_acked = sum (fun r -> r.Instance.r_acked);
    s_completed = sum (fun r -> r.Instance.r_completed);
    s_completed_unacked = sum (fun r -> r.Instance.r_completed_unacked);
    s_gave_up = sum (fun r -> r.Instance.r_gave_up);
    s_retries = sum (fun r -> r.Instance.r_retries);
    s_timeouts = sum (fun r -> r.Instance.r_timeouts);
    s_overloads = sum (fun r -> r.Instance.r_overloads);
    s_shed = sum (fun r -> r.Instance.r_shed);
    s_admitted = sum (fun r -> r.Instance.r_admitted);
    s_queue_high_water = maxi (fun r -> r.Instance.r_queue_high_water);
    s_crashes_delivered = sum (fun r -> r.Instance.r_crashes_delivered);
    s_crashes_requested = sum (fun r -> r.Instance.r_crashes_requested);
    s_recoveries = sum (fun r -> r.Instance.r_recoveries);
    s_checks_run = sum (fun r -> r.Instance.r_checks_run);
    s_generations = sum (fun r -> r.Instance.r_generations);
    s_stuck = sum (fun r -> if r.Instance.r_stuck then 1 else 0);
    s_latency = lat;
    s_recovery = rec_h;
    s_replay = replay;
    s_commit_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
  }

let run ?domains cfgs =
  List.iter Instance.validate cfgs;
  let cfgs = Array.of_list cfgs in
  (* Each instance keeps its own verdict, so the violation from the
     lowest instance index wins however the fleet was spread. *)
  let results =
    Rcons_par.Pool.map ?domains (Array.length cfgs) (fun i ->
        try Ok (Instance.run cfgs.(i)) with Instance.Violation _ as e -> Error e)
  in
  let reports = Array.to_list (Array.map (function Ok rep -> rep | Error e -> raise e) results) in
  { reports; summary = summarize reports }
