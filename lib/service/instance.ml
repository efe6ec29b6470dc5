(* One hosted service shard; see the interface for the engine shape.

   Everything in here is per-instance and deterministic: private RNGs
   seeded from (seed, id), client fibers resumed in index order, the
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
  queue_cap : int;
  sessions : int;
  ops_per_session : int;
  open_rate : float;
  open_ops : int;
  cert : Rcons_check.Certificate.recording option;
  max_ticks : int;
}

(* The engine's fixed shape: universal worker-pool size, max ops
   dispatched to one worker per epoch, max simulated steps per busy
   worker per tick, ops per online-check window, max slots per log
   generation, and the clients' retry policy.  A window closes at a
   drain point, so it holds at most [check_window] trigger ops plus
   every op still in flight when the trigger fired: 24 + 3 * 4 = 36,
   within the [Linearizability.max_ops] bound of the Wing & Gong
   oracle. *)
let workers = 3
let batch = 4
let quantum = 6
let check_window = 24
let slots = 4
let retry = Backoff.default

let max_ops cfg = (cfg.sessions * cfg.ops_per_session) + cfg.open_ops

let validate cfg =
  if cfg.queue_cap < 1 then invalid_arg "Instance: queue_cap must be >= 1";
  if cfg.sessions < 0 then invalid_arg "Instance: sessions must be >= 0";
  if cfg.ops_per_session < 0 then invalid_arg "Instance: ops_per_session must be >= 0";
  if cfg.open_ops < 0 then invalid_arg "Instance: open_ops must be >= 0";
  if cfg.open_rate < 0.0 then invalid_arg "Instance: open_rate must be >= 0";
  if cfg.open_ops > 0 && cfg.open_rate <= 0.0 then
    invalid_arg "Instance: open_ops > 0 needs open_rate > 0";
  if cfg.flush_cost < 1 then invalid_arg "Instance: flush_cost must be >= 1";
  if cfg.max_ticks < 1 then invalid_arg "Instance: max_ticks must be >= 1";
  match cfg.kind with
  | Universal -> ()
  | Log -> (
      match cfg.cert with
      | None -> invalid_arg "Instance: Log kind requires a recording certificate"
      | Some cert ->
          let a, b = Rcons_check.Certificate.recording_teams cert in
          if (a + b) * slots > Linearizability.max_ops then
            invalid_arg
              (Printf.sprintf "Instance: procs * slots exceeds the %d-op checker bound"
                 Linearizability.max_ops))

(* --- operations --- *)

(* [Failed]: a log generation retired without committing the op's slot
   (reachable only without barriers); the next retry re-admits it. *)
type op_status = Fresh | Queued | Inflight | Completed of int | Failed

type op_rec = {
  o_id : int;  (** dense per-instance id; the idempotency key *)
  o_op : Derived.counter_op;
  o_owner : int;  (** the fiber awaiting it *)
  mutable o_status : op_status;
  mutable o_submit : int;  (** first-submission tick; -1 before *)
  mutable o_acked : bool;
}

(* --- backends --- *)

type worker_cur = {
  mutable epoch : int;
  mutable wops : op_rec array;
  mutable next_ack : int;
}

type universal_state = {
  u : (int, Derived.counter_op, int) Runiversal.t;
  u_hist : (Derived.counter_op, int) History.t;
  u_sim : Sim.t;
  assignment : (int * (int * Derived.counter_op) array) option Cell.t array;
  done_epoch : int Cell.t array;
  results : int option array;  (** meta-observation, filled by worker bodies *)
  cur : worker_cur array;
  u_marks : int list array;  (** per-worker crash ticks awaiting batch completion *)
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
  sess : Session.t array;  (** closed sessions, then one fiber per open-loop op *)
  ops : op_rec option array array;  (** fiber -> idx -> op *)
  waiting : op_rec option array;
  sess_deadline : int array;
  wake_at : int array;  (** -1 = not sleeping *)
  mutable open_gen : int;  (** open-loop fibers started so far *)
  mutable open_acc : float;
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
    match t.ops.(i).(idx) with
    | Some r -> r
    | None ->
        let r = fresh_op t ~owner:i ~op:(op_for ~ses:i ~idx) in
        t.ops.(i).(idx) <- Some r;
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
      t.sess_deadline.(i) <- t.now + retry.Backoff.deadline;
      None
  | Fresh | Failed ->
      if r.o_submit < 0 then r.o_submit <- t.now else t.retries <- t.retries + 1;
      if Admission.try_enqueue t.queue r then begin
        r.o_status <- Queued;
        t.waiting.(i) <- Some r;
        t.sess_deadline.(i) <- t.now + retry.Backoff.deadline;
        None
      end
      else begin
        t.overloads <- t.overloads + 1;
        Some Session.Overloaded
      end

(* One op's client loop: submit, retry on Overloaded/Timeout with
   jittered exponential backoff, give up after max_retries. *)
let attempt rng ctx idx =
  let rec go n =
    match ctx.Session.call ~idx with
    | Session.Done _ -> ()
    | Session.Overloaded | Session.Timeout ->
        if n < retry.Backoff.max_retries then begin
          ctx.Session.sleep (Backoff.delay retry ~rng ~attempt:n);
          go (n + 1)
        end
  in
  go 0

(* The closed-loop client: each op in turn, thinking briefly between
   them. *)
let client_body cfg rng ctx =
  for idx = 0 to cfg.ops_per_session - 1 do
    attempt rng ctx idx;
    ctx.Session.sleep (1 + Random.State.int rng 4)
  done

(* Open-loop arrivals (a seeded rate): each arrival's op is created
   now, so op ids keep arrival order, and its one-op fiber -- placed
   after the closed sessions -- makes its first attempt at once. *)
let arrivals t =
  if t.open_gen < t.cfg.open_ops then begin
    t.open_acc <- t.open_acc +. t.cfg.open_rate;
    while t.open_acc >= 1.0 && t.open_gen < t.cfg.open_ops do
      t.open_acc <- t.open_acc -. 1.0;
      let j = t.open_gen and i = t.cfg.sessions + t.open_gen in
      t.ops.(i).(0) <- Some (fresh_op t ~owner:i ~op:(op_for ~ses:(-1) ~idx:j));
      t.open_gen <- t.open_gen + 1;
      Session.start t.sess.(i);
      settle t i
    done
  end

(* --- completion delivery (shared by both backends) --- *)

(* Answer [Done] or [Timeout] to the fiber awaiting [r]. *)
let deliver t r answer =
  let i = r.o_owner in
  match t.waiting.(i) with
  | Some r' when r' == r ->
      t.waiting.(i) <- None;
      (match answer with Session.Done _ -> ack t r | _ -> t.timeouts <- t.timeouts + 1);
      Session.answer t.sess.(i) answer;
      settle t i
  | _ -> () (* fiber away (backing off / gave up); picked up lazily *)

(* --- deadline sweep --- *)

let sweep t =
  Array.iteri
    (fun i w ->
      match w with
      | Some r when t.sess_deadline.(i) <= t.now -> deliver t r Session.Timeout
      | _ -> ())
    t.waiting

(* --- crash churn (shared by both backends) --- *)

(* One tick of churn on a backend's [sim]: the adversary crashes some
   started, unfinished processes (crash points sit at tick boundaries),
   then every busy process steps a bounded quantum -- in one resumption
   ([Sim.run_steps]), since nothing is decided between its steps.  A
   process is busy while it is unfinished and [has_work] holds;
   [has_work] is also the quantum's predicate, evaluated inside the
   running body, so it reads shared state only, never [Sim.finished]
   (which reads "finished" while a step runs).  A crash that interrupts
   work leaves a mark in [marks]; the recovery interval closes once
   that process is no longer busy.  A body failure
   ([Schedule.body_failure], the explorer's rule) is the construction
   corrupting itself (the barrier-free negative control does exactly
   this under lossy churn) -- surfaced as a violation with the
   backend's [failure] message. *)
let churn t sim ~has_work ~marks ~on_crash ~failure =
  let busy p = (not (Sim.finished sim p)) && has_work p in
  let n = Array.length marks in
  let eligible = ref [] in
  for p = n - 1 downto 0 do
    if Sim.started sim p && not (Sim.finished sim p) then eligible := p :: !eligible
  done;
  List.iter
    (fun v ->
      Sim.crash sim v;
      on_crash v;
      if busy v then marks.(v) <- t.now :: marks.(v))
    (Adversary.decide t.adv ~eligible:!eligible ~total_steps:(Sim.total_steps sim));
  for p = 0 to n - 1 do
    (match Sim.run_steps sim p ~max:quantum ~ok:(fun () -> has_work p) with
    | (_ : int) -> ()
    | exception e -> (
        match Schedule.body_failure e with Some m -> violation t (failure p m) | None -> raise e));
    if (not (busy p)) && marks.(p) <> [] then begin
      List.iter
        (fun m ->
          Metrics.add t.rec_h (t.now - m);
          t.recoveries <- t.recoveries + 1)
        marks.(p);
      marks.(p) <- []
    end
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
    if not (Conditions.durably_linearizable_window counter_lin ~init:s.window_init window) then
      violation t
        (Printf.sprintf "durable linearizability violated in the %d-op window after tag %d"
           (List.length window) s.watermark);
    s.watermark <-
      List.fold_left (fun a (o : _ History.operation) -> max a o.op_tag) s.watermark window;
    s.window_init <- Runiversal.current_state s.u
  end;
  s.ops_since_check <- 0

let tick_u t s =
  (* dispatch batches to idle workers; paused while draining for a check *)
  if not s.draining then
    for w = 0 to workers - 1 do
      if (not (u_busy s w)) && not (Admission.is_empty t.queue) then begin
        let ops = Array.of_list (Admission.pop_up_to t.queue batch) in
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
  churn t s.u_sim ~has_work:(u_busy s) ~marks:s.u_marks
    ~on_crash:(fun v -> History.crash s.u_hist ~pid:v)
    ~failure:(fun w m -> Printf.sprintf "construction failure on worker %d: %s" w m);
  (* deliver completions in batch order *)
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
      deliver t r (Session.Done resp);
      c.next_ack <- c.next_ack + 1
    done
  done;
  (* windowed online check at drain points *)
  if s.ops_since_check >= check_window then s.draining <- true;
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
    deliver t r (Session.Done resp);
    g.g_acked <- g.g_acked + 1
  done

let finish_gen t s g =
  ack_committed t g;
  let cfin = Rlog.committed g.g_log in
  let bad = ref None in
  Rlog.check_exn ~fail:(fun m -> if !bad = None then bad := Some m) g.g_log;
  (match !bad with
  | Some m -> violation t (Printf.sprintf "log state invariant: %s" m)
  | None -> ());
  let v = Rlog.verdict g.g_log in
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
        deliver t r Session.Timeout
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
      let reqs = Array.of_list (Admission.pop_up_to t.queue slots) in
      Array.iter (fun r -> r.o_status <- Inflight) reqs;
      let g_log, g_sim = Rlog.instance ~slots:(Array.length reqs) s.l_cert in
      s.gen <-
        Some
          {
            g_log;
            g_sim;
            g_reqs = reqs;
            g_acked = 0;
            g_marks = Array.make (Rlog.num_procs g_log) [];
          }
  | _ -> ());
  match s.gen with
  | None -> ()
  | Some g ->
      churn t g.g_sim
        ~has_work:(fun _ -> true)
        ~marks:g.g_marks
        ~on_crash:(fun v -> Rlog.note_crash g.g_log ~pid:v)
        ~failure:(fun p m -> Printf.sprintf "log proc %d failure: %s" p m);
      ack_committed t g;
      if Sim.all_finished g.g_sim then finish_gen t s g

(* --- construction --- *)

let make_universal cfg =
  let hist = History.create () in
  let u = Runiversal.create ~history:hist ~n:workers Derived.counter in
  let assignment = Array.init workers (fun _ -> Cell.make None) in
  let done_epoch = Array.init workers (fun _ -> Cell.make 0) in
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
          Cell.flush done_epoch.(w)
      | _ -> ());
      serve ()
    in
    serve ()
  in
  let sim = Sim.create ~n:workers body in
  B_u
    {
      u;
      u_hist = hist;
      u_sim = sim;
      assignment;
      done_epoch;
      results;
      cur = Array.init workers (fun _ -> { epoch = 0; wops = [||]; next_ack = 0 });
      u_marks = Array.make workers [];
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
  (* every open-loop fiber draws its backoff jitter from one shared RNG *)
  let open_rng = Random.State.make [| cfg.seed; cfg.id; 555 |] in
  let fibers = cfg.sessions + cfg.open_ops in
  let closed i = i < cfg.sessions in
  let t =
    {
      cfg;
      now = 0;
      queue = Admission.create ~cap:cfg.queue_cap;
      sess =
        Array.init fibers (fun i ->
            if closed i then
              Session.spawn (client_body cfg (Random.State.make [| cfg.seed; cfg.id; 1000 + i |]))
            else Session.spawn (fun ctx -> attempt open_rng ctx 0));
      ops =
        Array.init fibers (fun i ->
            Array.make (if closed i then max 1 cfg.ops_per_session else 1) None);
      waiting = Array.make fibers None;
      sess_deadline = Array.make fibers 0;
      wake_at = Array.make fibers (-1);
      open_gen = 0;
      open_acc = 0.0;
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

(* Every open-loop op arrived and every fiber ran to its end. *)
let sessions_done t =
  t.open_gen >= t.cfg.open_ops
  && Array.for_all (fun s -> Session.poised s = Session.Finished) t.sess

let backend_idle t =
  match t.be with B_u s -> not (u_any_busy s) | B_l s -> s.gen = None

let done_cond t =
  sessions_done t && Admission.is_empty t.queue && backend_idle t

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
     (* boot: start every closed session (thundering herd by design --
        admission sheds, jittered backoff spreads the re-arrivals) *)
     for i = 0 to cfg.sessions - 1 do
       Session.start t.sess.(i);
       settle t i
     done;
     while (not !finished) && t.now < cfg.max_ticks do
       t.now <- t.now + 1;
       for i = 0 to Array.length t.sess - 1 do
         if t.wake_at.(i) >= 0 && t.wake_at.(i) <= t.now then begin
           t.wake_at.(i) <- -1;
           Session.wake t.sess.(i);
           settle t i
         end
       done;
       arrivals t;
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
  Persist.scoped ~flush_cost:cfg.flush_cost ~barriers:cfg.annotated cfg.persist (fun () ->
      run_inner cfg)
