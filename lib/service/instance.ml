(* One hosted service shard; see the interface for the engine shape.

   Everything in here is per-instance and deterministic: private RNGs
   seeded from (seed, id), sessions resumed in index order, the
   adversary consulted once per tick, no iteration over hash tables
   whose order could leak in.  [Service] relies on that to partition
   instances across domains without changing any report. *)

open Rcons_runtime
module History = Rcons_history.History
module Linearizability = Rcons_history.Linearizability
module Conditions = Rcons_history.Conditions
module Runiversal = Rcons_universal.Runiversal
module Derived = Rcons_universal.Derived
module Rlog = Rcons_log.Rlog

exception Violation of { instance : int; tick : int; msg : string }

type kind = Universal | Log

type config = {
  id : int;
  seed : int;
  kind : kind;
  adversary : Adversary.policy;
  persist : Persist.policy;
  flush_cost : int;
  annotated : bool;
  workers : int;
  batch : int;
  queue_cap : int;
  quantum : int;
  sessions : int;
  ops_per_session : int;
  open_rate : float;
  open_ops : int;
  retry : Backoff.policy;
  check_window : int;
  slots : int;
  cert : Rcons_check.Certificate.recording option;
  max_ticks : int;
}

let max_ops cfg = (cfg.sessions * cfg.ops_per_session) + cfg.open_ops

let validate cfg =
  if cfg.workers < 1 then invalid_arg "Instance: workers must be >= 1";
  if cfg.batch < 1 then invalid_arg "Instance: batch must be >= 1";
  if cfg.queue_cap < 1 then invalid_arg "Instance: queue_cap must be >= 1";
  if cfg.quantum < 1 then invalid_arg "Instance: quantum must be >= 1";
  if cfg.sessions < 0 then invalid_arg "Instance: sessions must be >= 0";
  if cfg.ops_per_session < 0 then invalid_arg "Instance: ops_per_session must be >= 0";
  if cfg.open_ops < 0 then invalid_arg "Instance: open_ops must be >= 0";
  if cfg.open_rate < 0.0 then invalid_arg "Instance: open_rate must be >= 0";
  if cfg.open_ops > 0 && cfg.open_rate <= 0.0 then
    invalid_arg "Instance: open_ops > 0 needs open_rate > 0";
  if cfg.flush_cost < 1 then invalid_arg "Instance: flush_cost must be >= 1";
  if cfg.max_ticks < 1 then invalid_arg "Instance: max_ticks must be >= 1";
  Backoff.validate cfg.retry;
  match cfg.kind with
  | Universal ->
      if cfg.check_window < 0 then invalid_arg "Instance: check_window must be >= 0";
      (* The Wing & Gong oracle is bounded at 62 operations; a window
         closes at a drain point, so it holds at most [check_window]
         trigger ops plus everything still in flight when the trigger
         fired. *)
      if cfg.check_window > 0 && cfg.check_window + (cfg.workers * cfg.batch) > 62 then
        invalid_arg "Instance: check_window + workers*batch exceeds the 62-op checker bound";
      if cfg.check_window = 0 && max_ops cfg > 62 then
        invalid_arg "Instance: check_window = 0 (final check only) needs <= 62 total ops"
  | Log -> (
      if cfg.slots < 1 then invalid_arg "Instance: slots must be >= 1";
      match cfg.cert with
      | None -> invalid_arg "Instance: Log kind requires a recording certificate"
      | Some cert ->
          let a, b = Rcons_check.Certificate.recording_teams cert in
          if (a + b) * cfg.slots > 62 then
            invalid_arg "Instance: procs * slots exceeds the 62-op checker bound")

(* --- operations --- *)

type owner = Closed of int | Open of int

(* [Failed]: a log generation retired without committing the op's slot
   (reachable only without barriers); the next retry re-admits it. *)
type op_status = Fresh | Queued | Inflight | Completed of int | Failed

type op_rec = {
  o_id : int;  (** dense per-instance id; the idempotency key *)
  o_op : Derived.counter_op;
  o_owner : owner;
  mutable o_status : op_status;
  mutable o_submit : int;  (** first-submission tick; -1 before *)
  mutable o_acked : bool;
}

type open_rec = {
  oo : op_rec;
  mutable oo_phase : int;  (** 0 = trying/backing off, 1 = awaiting, 2 = resolved *)
  mutable oo_due : int;  (** phase 0: next attempt tick; phase 1: deadline *)
  mutable oo_tries : int;
}

(* --- backends --- *)

type worker_cur = {
  mutable epoch : int;
  mutable wops : op_rec array;
  mutable next_ack : int;
  mutable marks : int list;  (** crash ticks awaiting batch completion *)
}

type universal_state = {
  u : (int, Derived.counter_op, int) Runiversal.t;
  u_hist : (Derived.counter_op, int) History.t;
  u_sim : Sim.t;
  assignment : (int * (int * Derived.counter_op) array) option Cell.t array;
  done_epoch : int Cell.t array;
  results : int option array;  (** meta-observation, filled by worker bodies *)
  cur : worker_cur array;
  mutable watermark : int;  (** highest history tag already checked *)
  mutable window_init : int;  (** counter state at the last window cut *)
  mutable ops_since_check : int;
  mutable draining : bool;
}

type generation = {
  g_log : Rlog.t;
  g_sim : Sim.t;
  g_reqs : op_rec array;  (** slot -> client op *)
  mutable g_acked : int;
  mutable g_trace : int list;  (** committed samples, newest first *)
  g_marks : int list array;  (** per-proc crash ticks awaiting body completion *)
}

type log_state = {
  l_cert : Rcons_check.Certificate.recording;
  mutable gen : generation option;
  mutable gens : int;
}

type backend = B_u of universal_state | B_l of log_state

type t = {
  cfg : config;
  mutable now : int;
  queue : op_rec Admission.t;
  sess : Session.t array;
  closed_ops : op_rec option array array;  (** session -> idx -> op *)
  waiting : op_rec option array;
  sess_deadline : int array;
  wake_at : int array;  (** -1 = not sleeping *)
  open_arr : open_rec option array;
  mutable open_gen : int;
  mutable open_acc : float;
  open_rng : Random.State.t;
  adv : Adversary.t;
  be : backend;
  mutable all_ops : op_rec list;
  mutable next_oid : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable overloads : int;
  mutable acked : int;
  mutable recoveries : int;
  mutable checks : int;
  mutable steps_acc : int;  (** retired log generations' sim steps *)
  lat : Metrics.hist;
  rec_h : Metrics.hist;
  replay_h : Metrics.hist;
  commit_buf : Buffer.t;
  mutable stuck : bool;
}

type report = {
  r_id : int;
  r_kind : string;
  r_ticks : int;
  r_sim_steps : int;
  r_submitted : int;
  r_acked : int;
  r_completed : int;
  r_completed_unacked : int;
  r_gave_up : int;
  r_retries : int;
  r_timeouts : int;
  r_overloads : int;
  r_shed : int;
  r_admitted : int;
  r_queue_high_water : int;
  r_crashes_delivered : int;
  r_crashes_requested : int;
  r_recoveries : int;
  r_checks_run : int;
  r_generations : int;
  r_stuck : bool;
  r_latency : Metrics.hist;
  r_recovery : Metrics.hist;
  r_replay : Metrics.hist;
  r_commit_trace : string;
}

let violation t msg = raise (Violation { instance = t.cfg.id; tick = t.now; msg })

let fresh_op t ~owner ~op =
  let r =
    { o_id = t.next_oid; o_op = op; o_owner = owner; o_status = Fresh; o_submit = -1; o_acked = false }
  in
  t.next_oid <- t.next_oid + 1;
  t.all_ops <- r :: t.all_ops;
  r

(* Deterministic op mix: one Get every fourth (session, idx) pair, the
   rest Incrs (log instances ignore the op payload). *)
let op_for ~ses ~idx = if (ses + idx) mod 4 = 3 then Derived.Get else Derived.Incr

let ack t r =
  r.o_acked <- true;
  t.acked <- t.acked + 1;
  Metrics.add t.lat (t.now - max 0 r.o_submit)

(* --- session plumbing --- *)

(* Answering a fiber runs client code that may immediately call again
   (e.g. the next op after a completed one), so [settle] loops until the
   session parks on a wait it cannot answer synchronously. *)
let rec settle t i =
  match Session.poised t.sess.(i) with
  | Session.Finished -> ()
  | Session.Sleeping d -> t.wake_at.(i) <- t.now + max 1 d
  | Session.Calling idx -> (
      match on_call t i idx with
      | Some r ->
          Session.answer t.sess.(i) r;
          settle t i
      | None -> ())

and on_call t i idx =
  let r =
    match t.closed_ops.(i).(idx) with
    | Some r -> r
    | None ->
        let r = fresh_op t ~owner:(Closed i) ~op:(op_for ~ses:i ~idx) in
        t.closed_ops.(i).(idx) <- Some r;
        r
  in
  match r.o_status with
  | Completed resp ->
      if not r.o_acked then ack t r;
      Some (Session.Done resp)
  | Queued | Inflight ->
      (* retry of an admitted op: idempotent -- re-arm the deadline, do
         not re-submit *)
      t.retries <- t.retries + 1;
      t.waiting.(i) <- Some r;
      t.sess_deadline.(i) <- t.now + t.cfg.retry.Backoff.deadline;
      None
  | Fresh | Failed ->
      if r.o_submit < 0 then r.o_submit <- t.now else t.retries <- t.retries + 1;
      if Admission.try_enqueue t.queue r then begin
        r.o_status <- Queued;
        t.waiting.(i) <- Some r;
        t.sess_deadline.(i) <- t.now + t.cfg.retry.Backoff.deadline;
        None
      end
      else begin
        t.overloads <- t.overloads + 1;
        Some Session.Overloaded
      end

(* The closed-loop client: submit each op, retry on Overloaded/Timeout
   with jittered exponential backoff, give up after max_retries, think
   briefly between ops. *)
let client_body cfg rng ctx =
  for idx = 0 to cfg.ops_per_session - 1 do
    let rec attempt n =
      match ctx.Session.call ~idx with
      | Session.Done _ -> ()
      | Session.Overloaded | Session.Timeout ->
          if n < cfg.retry.Backoff.max_retries then begin
            ctx.Session.sleep (Backoff.delay cfg.retry ~rng ~attempt:n);
            attempt (n + 1)
          end
    in
    attempt 0;
    ctx.Session.sleep (1 + Random.State.int rng 4)
  done

(* --- open-loop ops (seeded arrival process; no fiber, a 3-state
   machine per op sharing the same admission/dedup path) --- *)

let retry_or_give_up t oo =
  if oo.oo_tries >= t.cfg.retry.Backoff.max_retries then oo.oo_phase <- 2 (* gave up *)
  else begin
    let d = Backoff.delay t.cfg.retry ~rng:t.open_rng ~attempt:oo.oo_tries in
    oo.oo_tries <- oo.oo_tries + 1;
    oo.oo_phase <- 0;
    oo.oo_due <- t.now + d
  end

let open_act t oo =
  let r = oo.oo in
  match r.o_status with
  | Completed _ ->
      if not r.o_acked then ack t r;
      oo.oo_phase <- 2
  | Queued | Inflight ->
      if oo.oo_tries > 0 then t.retries <- t.retries + 1;
      oo.oo_phase <- 1;
      oo.oo_due <- t.now + t.cfg.retry.Backoff.deadline
  | Fresh | Failed ->
      if r.o_submit < 0 then r.o_submit <- t.now else t.retries <- t.retries + 1;
      if Admission.try_enqueue t.queue r then begin
        r.o_status <- Queued;
        oo.oo_phase <- 1;
        oo.oo_due <- t.now + t.cfg.retry.Backoff.deadline
      end
      else begin
        t.overloads <- t.overloads + 1;
        retry_or_give_up t oo
      end

let open_phase t =
  if t.cfg.open_ops > 0 then begin
    if t.open_gen < t.cfg.open_ops then begin
      t.open_acc <- t.open_acc +. t.cfg.open_rate;
      while t.open_acc >= 1.0 && t.open_gen < t.cfg.open_ops do
        t.open_acc <- t.open_acc -. 1.0;
        let j = t.open_gen in
        let r = fresh_op t ~owner:(Open j) ~op:(op_for ~ses:(-1) ~idx:j) in
        t.open_arr.(j) <- Some { oo = r; oo_phase = 0; oo_due = t.now; oo_tries = 0 };
        t.open_gen <- t.open_gen + 1
      done
    end;
    for j = 0 to t.open_gen - 1 do
      match t.open_arr.(j) with
      | Some oo when oo.oo_phase = 0 && oo.oo_due <= t.now -> open_act t oo
      | _ -> ()
    done
  end

(* --- completion delivery (shared by both backends) --- *)

let deliver_success t r resp =
  match r.o_owner with
  | Closed i -> (
      match t.waiting.(i) with
      | Some r' when r' == r ->
          t.waiting.(i) <- None;
          ack t r;
          Session.answer t.sess.(i) (Session.Done resp);
          settle t i
      | _ -> () (* client away (backing off / gave up); picked up lazily *))
  | Open j -> (
      match t.open_arr.(j) with
      | Some oo when oo.oo_phase = 1 ->
          ack t r;
          oo.oo_phase <- 2
      | _ -> ())

let deliver_failure t r =
  match r.o_owner with
  | Closed i -> (
      match t.waiting.(i) with
      | Some r' when r' == r ->
          t.waiting.(i) <- None;
          t.timeouts <- t.timeouts + 1;
          Session.answer t.sess.(i) Session.Timeout;
          settle t i
      | _ -> ())
  | Open j -> (
      match t.open_arr.(j) with
      | Some oo when oo.oo_phase = 1 ->
          t.timeouts <- t.timeouts + 1;
          retry_or_give_up t oo
      | _ -> ())

(* --- deadline sweep --- *)

let sweep t =
  for i = 0 to Array.length t.sess - 1 do
    match t.waiting.(i) with
    | Some _ when t.sess_deadline.(i) <= t.now ->
        t.waiting.(i) <- None;
        t.timeouts <- t.timeouts + 1;
        Session.answer t.sess.(i) Session.Timeout;
        settle t i
    | _ -> ()
  done;
  for j = 0 to t.open_gen - 1 do
    match t.open_arr.(j) with
    | Some oo when oo.oo_phase = 1 && oo.oo_due <= t.now ->
        t.timeouts <- t.timeouts + 1;
        retry_or_give_up t oo
    | _ -> ()
  done

(* --- universal backend --- *)

let u_busy s w = Cell.peek s.done_epoch.(w) < s.cur.(w).epoch

let u_any_busy s =
  let n = Array.length s.cur in
  let rec go w = w < n && (u_busy s w || go (w + 1)) in
  go 0

let counter_lin = Derived.lin_spec Derived.counter

let run_window_check t s =
  t.checks <- t.checks + 1;
  let window = Conditions.durable_window ~after:s.watermark s.u_hist in
  if window <> [] then begin
    if
      not
        (Conditions.durably_linearizable_window counter_lin ~after:s.watermark
           ~init:s.window_init s.u_hist)
    then
      violation t
        (Printf.sprintf "durable linearizability violated in the %d-op window after tag %d"
           (List.length window) s.watermark);
    s.watermark <-
      List.fold_left (fun a (o : _ History.operation) -> max a o.op_tag) s.watermark window;
    s.window_init <- Runiversal.current_state s.u
  end;
  s.ops_since_check <- 0

let tick_u t s =
  let workers = Array.length s.cur in
  (* dispatch batches to idle workers; paused while draining for a check *)
  if not s.draining then
    for w = 0 to workers - 1 do
      if (not (u_busy s w)) && not (Admission.is_empty t.queue) then begin
        let ops = Array.of_list (Admission.pop_up_to t.queue t.cfg.batch) in
        if Array.length ops > 0 then begin
          let c = s.cur.(w) in
          c.epoch <- c.epoch + 1;
          c.wops <- ops;
          c.next_ack <- 0;
          Array.iter (fun r -> r.o_status <- Inflight) ops;
          (* poke = durable out-of-simulation delivery: the assignment
             channel models a message, not crash-vulnerable state *)
          Cell.poke s.assignment.(w)
            (Some (c.epoch, Array.map (fun r -> (r.o_id, r.o_op)) ops))
        end
      end
    done;
  (* adversary: crash points sit at tick boundaries *)
  let eligible = ref [] in
  for w = workers - 1 downto 0 do
    if Sim.started s.u_sim w then eligible := w :: !eligible
  done;
  let victims = Adversary.decide t.adv ~eligible:!eligible ~total_steps:(Sim.total_steps s.u_sim) in
  List.iter
    (fun v ->
      Sim.crash s.u_sim v;
      History.crash s.u_hist ~pid:v;
      if u_busy s v then s.cur.(v).marks <- t.now :: s.cur.(v).marks)
    victims;
  (* step busy workers a bounded quantum each; a body blowing up is the
     construction corrupting itself (the barrier-free negative control
     does exactly this under lossy churn) -- surface it as a violation *)
  for w = 0 to workers - 1 do
    let q = ref t.cfg.quantum in
    while !q > 0 && u_busy s w do
      (try ignore (Sim.step_proc s.u_sim w)
       with Invalid_argument m ->
         violation t (Printf.sprintf "construction failure on worker %d: %s" w m));
      decr q
    done
  done;
  (* deliver completions in batch order; close recovery intervals *)
  for w = 0 to workers - 1 do
    let c = s.cur.(w) in
    while c.next_ack < Array.length c.wops && s.results.(c.wops.(c.next_ack).o_id) <> None do
      let r = c.wops.(c.next_ack) in
      let resp = Option.get s.results.(r.o_id) in
      (match r.o_status with
      | Completed _ -> ()
      | _ ->
          r.o_status <- Completed resp;
          s.ops_since_check <- s.ops_since_check + 1);
      deliver_success t r resp;
      c.next_ack <- c.next_ack + 1
    done;
    if (not (u_busy s w)) && c.marks <> [] then begin
      List.iter
        (fun m ->
          Metrics.add t.rec_h (t.now - m);
          t.recoveries <- t.recoveries + 1)
        c.marks;
      c.marks <- []
    end
  done;
  (* windowed online check at drain points *)
  if t.cfg.check_window > 0 && s.ops_since_check >= t.cfg.check_window then s.draining <- true;
  if s.draining && not (u_any_busy s) then begin
    run_window_check t s;
    s.draining <- false
  end

(* Lost-ack audit: every acknowledged op must sit in the final
   linearization exactly once (the idempotent-retry contract). *)
let audit_u t s =
  let seen = Hashtbl.create 256 in
  let lin = Runiversal.linearization s.u in
  List.iter
    (fun (nd : _ Runiversal.node) ->
      let _, oid = nd.Runiversal.tag in
      Hashtbl.replace seen oid (1 + Option.value ~default:0 (Hashtbl.find_opt seen oid)))
    lin;
  let lost = ref 0 and dup = ref 0 in
  List.iter
    (fun r ->
      if r.o_acked then
        match Hashtbl.find_opt seen r.o_id with
        | Some 1 -> ()
        | Some _ -> incr dup
        | None -> incr lost)
    t.all_ops;
  if !lost > 0 || !dup > 0 then
    violation t
      (Printf.sprintf "acknowledged-op audit failed: %d lost, %d duplicated of %d acked" !lost
         !dup t.acked);
  Buffer.add_string t.commit_buf
    (String.concat ","
       (List.map (fun (nd : _ Runiversal.node) -> string_of_int (snd nd.Runiversal.tag)) lin));
  Buffer.add_string t.commit_buf
    (Printf.sprintf ";state=%d" (Runiversal.current_state s.u))

(* --- log backend --- *)

let ack_committed t g =
  let c = Rlog.committed g.g_log in
  while g.g_acked < min c (Array.length g.g_reqs) do
    let slot = g.g_acked in
    let r = g.g_reqs.(slot) in
    let resp = Option.value ~default:(-1) (Rlog.decided_value g.g_log ~slot) in
    (match r.o_status with Completed _ -> () | _ -> r.o_status <- Completed resp);
    deliver_success t r resp;
    g.g_acked <- g.g_acked + 1
  done

let finish_gen t s g =
  ack_committed t g;
  let cfin = Rlog.committed g.g_log in
  g.g_trace <- cfin :: g.g_trace;
  let bad = ref None in
  Rlog.check_exn ~fail:(fun m -> if !bad = None then bad := Some m) g.g_log;
  (match !bad with
  | Some m -> violation t (Printf.sprintf "log state invariant: %s" m)
  | None -> ());
  let v = Rlog.verdict ~committed_trace:(List.rev g.g_trace) g.g_log in
  if not (Conditions.log_verdict_ok v) then
    violation t
      (Printf.sprintf
         "prefix durability violated: slot_agreement=%b prefix_monotone=%b durable_lin=%b"
         v.Conditions.slot_agreement v.Conditions.prefix_monotone v.Conditions.durable_lin);
  t.checks <- t.checks + 1;
  let replays = Rlog.recovery_steps g.g_log and recs = Rlog.recoveries g.g_log in
  Array.iteri (fun p n -> if recs.(p) > 0 then Metrics.add t.replay_h n) replays;
  (* slots the retired generation never committed (reachable only
     without barriers): fail them promptly so clients re-admit *)
  for slot = cfin to Array.length g.g_reqs - 1 do
    let r = g.g_reqs.(slot) in
    match r.o_status with
    | Completed _ -> ()
    | _ ->
        r.o_status <- Failed;
        deliver_failure t r
  done;
  Buffer.add_string t.commit_buf (Printf.sprintf "g%d:" s.gens);
  for slot = 0 to cfin - 1 do
    Buffer.add_string t.commit_buf
      (Printf.sprintf "%d," (Option.value ~default:min_int (Rlog.decided_value g.g_log ~slot)))
  done;
  Buffer.add_string t.commit_buf (Printf.sprintf "c=%d|" cfin);
  t.steps_acc <- t.steps_acc + Sim.total_steps g.g_sim;
  s.gens <- s.gens + 1;
  Sim.abandon g.g_sim;
  s.gen <- None

let tick_l t s =
  (match s.gen with
  | None when not (Admission.is_empty t.queue) ->
      let reqs = Array.of_list (Admission.pop_up_to t.queue t.cfg.slots) in
      Array.iter (fun r -> r.o_status <- Inflight) reqs;
      let g_log, g_sim = Rlog.instance ~annotated:t.cfg.annotated ~slots:(Array.length reqs) s.l_cert in
      s.gen <-
        Some
          {
            g_log;
            g_sim;
            g_reqs = reqs;
            g_acked = 0;
            g_trace = [];
            g_marks = Array.make (Rlog.num_procs g_log) [];
          }
  | _ -> ());
  match s.gen with
  | None -> ()
  | Some g ->
      let n = Rlog.num_procs g.g_log in
      let eligible = ref [] in
      for p = n - 1 downto 0 do
        if Sim.started g.g_sim p && not (Sim.finished g.g_sim p) then eligible := p :: !eligible
      done;
      let victims =
        Adversary.decide t.adv ~eligible:!eligible ~total_steps:(Sim.total_steps g.g_sim)
      in
      List.iter
        (fun v ->
          Sim.crash g.g_sim v;
          Rlog.note_crash g.g_log ~pid:v;
          g.g_trace <- Rlog.committed g.g_log :: g.g_trace;
          g.g_marks.(v) <- t.now :: g.g_marks.(v))
        victims;
      for p = 0 to n - 1 do
        let q = ref t.cfg.quantum in
        while !q > 0 && not (Sim.finished g.g_sim p) do
          (try ignore (Sim.step_proc g.g_sim p)
           with Invalid_argument m ->
             violation t (Printf.sprintf "log proc %d failure: %s" p m));
          decr q
        done;
        if Sim.finished g.g_sim p && g.g_marks.(p) <> [] then begin
          List.iter
            (fun m ->
              Metrics.add t.rec_h (t.now - m);
              t.recoveries <- t.recoveries + 1)
            g.g_marks.(p);
          g.g_marks.(p) <- []
        end
      done;
      ack_committed t g;
      if Sim.all_finished g.g_sim then finish_gen t s g

(* --- construction --- *)

let make_universal cfg =
  let hist = History.create () in
  let u = Runiversal.create ~history:hist ~annotated:cfg.annotated ~n:cfg.workers Derived.counter in
  let assignment = Array.init cfg.workers (fun _ -> Cell.make None) in
  let done_epoch = Array.init cfg.workers (fun _ -> Cell.make 0) in
  let results = Array.make (max 1 (max_ops cfg)) None in
  let body w () =
    (* Infinite serve loop: poll the assignment channel, execute the
       batch through idempotent invokes, publish completion.  Every poll
       iteration is two simulated steps, so the engine only steps a
       worker while its epoch is behind. *)
    let rec serve () =
      let e_done = Cell.read done_epoch.(w) in
      (match Cell.read assignment.(w) with
      | Some (epoch, ops) when epoch > e_done ->
          Array.iter
            (fun (oid, op) ->
              let r = Runiversal.invoke u ~pid:w ~index:oid op in
              results.(oid) <- Some r)
            ops;
          Cell.write done_epoch.(w) epoch;
          if cfg.annotated then Cell.flush done_epoch.(w)
      | _ -> ());
      serve ()
    in
    serve ()
  in
  let sim = Sim.create ~n:cfg.workers body in
  B_u
    {
      u;
      u_hist = hist;
      u_sim = sim;
      assignment;
      done_epoch;
      results;
      cur = Array.init cfg.workers (fun _ -> { epoch = 0; wops = [||]; next_ack = 0; marks = [] });
      watermark = -1;
      window_init = counter_lin.Linearizability.init;
      ops_since_check = 0;
      draining = false;
    }

let make cfg =
  let be =
    match cfg.kind with
    | Universal -> make_universal cfg
    | Log -> B_l { l_cert = Option.get cfg.cert; gen = None; gens = 0 }
  in
  let t =
    {
      cfg;
      now = 0;
      queue = Admission.create ~cap:cfg.queue_cap;
      sess =
        Array.init cfg.sessions (fun i ->
            let rng = Random.State.make [| cfg.seed; cfg.id; 1000 + i |] in
            Session.spawn (client_body cfg rng));
      closed_ops = Array.init cfg.sessions (fun _ -> Array.make (max 1 cfg.ops_per_session) None);
      waiting = Array.make cfg.sessions None;
      sess_deadline = Array.make cfg.sessions 0;
      wake_at = Array.make cfg.sessions (-1);
      open_arr = Array.make (max 1 cfg.open_ops) None;
      open_gen = 0;
      open_acc = 0.0;
      open_rng = Random.State.make [| cfg.seed; cfg.id; 555 |];
      adv = Adversary.create ~seed:(cfg.seed + (31 * (cfg.id + 1))) cfg.adversary;
      be;
      all_ops = [];
      next_oid = 0;
      retries = 0;
      timeouts = 0;
      overloads = 0;
      acked = 0;
      recoveries = 0;
      checks = 0;
      steps_acc = 0;
      lat = Metrics.hist ();
      rec_h = Metrics.hist ();
      replay_h = Metrics.hist ();
      commit_buf = Buffer.create 256;
      stuck = false;
    }
  in
  t

(* --- termination --- *)

let sessions_done t =
  let n = Array.length t.sess in
  let rec go i = i >= n || (Session.poised t.sess.(i) = Session.Finished && go (i + 1)) in
  go 0

let opens_done t =
  t.open_gen >= t.cfg.open_ops
  &&
  let rec go j =
    j >= t.open_gen
    || ((match t.open_arr.(j) with Some oo -> oo.oo_phase = 2 | None -> false) && go (j + 1))
  in
  go 0

let backend_idle t =
  match t.be with B_u s -> not (u_any_busy s) | B_l s -> s.gen = None

let done_cond t =
  sessions_done t && opens_done t && Admission.is_empty t.queue && backend_idle t

let cleanup t =
  Array.iter Session.abort t.sess;
  match t.be with
  | B_u s -> Sim.abandon s.u_sim
  | B_l s -> ( match s.gen with Some g -> Sim.abandon g.g_sim | None -> ())

let final_checks t =
  match t.be with
  | B_u s ->
      run_window_check t s;
      audit_u t s
  | B_l _ -> () (* every generation was checked as it retired *)

let report t =
  let submitted = ref 0
  and completed = ref 0
  and completed_unacked = ref 0
  and gave_up = ref 0 in
  List.iter
    (fun r ->
      if r.o_submit >= 0 then begin
        incr submitted;
        if not r.o_acked then incr gave_up
      end;
      match r.o_status with
      | Completed _ ->
          incr completed;
          if not r.o_acked then incr completed_unacked
      | _ -> ())
    t.all_ops;
  let sim_steps =
    t.steps_acc + (match t.be with B_u s -> Sim.total_steps s.u_sim | B_l _ -> 0)
  in
  {
    r_id = t.cfg.id;
    r_kind = (match t.cfg.kind with Universal -> "universal" | Log -> "log");
    r_ticks = t.now;
    r_sim_steps = sim_steps;
    r_submitted = !submitted;
    r_acked = t.acked;
    r_completed = !completed;
    r_completed_unacked = !completed_unacked;
    r_gave_up = !gave_up;
    r_retries = t.retries;
    r_timeouts = t.timeouts;
    r_overloads = t.overloads;
    r_shed = Admission.shed t.queue;
    r_admitted = Admission.admitted t.queue;
    r_queue_high_water = Admission.high_water t.queue;
    r_crashes_delivered = Adversary.crashes_injected t.adv;
    r_crashes_requested = Adversary.crashes_requested t.adv;
    r_recoveries = t.recoveries;
    r_checks_run = t.checks;
    r_generations = (match t.be with B_l s -> s.gens | B_u _ -> 0);
    r_stuck = t.stuck;
    r_latency = t.lat;
    r_recovery = t.rec_h;
    r_replay = t.replay_h;
    r_commit_trace = Buffer.contents t.commit_buf;
  }

let run_inner cfg =
  let t = make cfg in
  let finished = ref false in
  (try
     (* boot: start every session fiber (thundering herd by design --
        admission sheds, jittered backoff spreads the re-arrivals) *)
     Array.iteri
       (fun i s ->
         Session.start s;
         settle t i)
       t.sess;
     while (not !finished) && t.now < cfg.max_ticks do
       t.now <- t.now + 1;
       for i = 0 to Array.length t.sess - 1 do
         if t.wake_at.(i) >= 0 && t.wake_at.(i) <= t.now then begin
           t.wake_at.(i) <- -1;
           Session.wake t.sess.(i);
           settle t i
         end
       done;
       open_phase t;
       (match t.be with B_u s -> tick_u t s | B_l s -> tick_l t s);
       sweep t;
       if done_cond t then begin
         final_checks t;
         finished := true
       end
     done
   with e ->
     cleanup t;
     raise e);
  if not !finished then t.stuck <- true;
  cleanup t;
  report t

let run cfg =
  validate cfg;
  Persist.scoped ~flush_cost:cfg.flush_cost cfg.persist (fun () -> run_inner cfg)
