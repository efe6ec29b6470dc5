(* Unified seeded crash adversaries; see the interface.

   CAUTION: [crash_opportunity] is the only code that draws a crash from
   the RNG, for [run] and [decide] alike.  Its draw order is the stream
   contract: one [float] draw per opportunity at which a crash is
   possible (budget left, a victim eligible, inside the window), then
   one [int] draw per victim; [run] adds one [int] draw per random step
   pick.  Every EXPERIMENTS.md table regenerated under the default
   seeds and the service commit digests depend on it: change the draw
   order and they change. *)

exception Stuck of string
exception Body_failure of string

type policy =
  | Uniform of { crash_prob : float; max_crashes : int }
  | Storm of { crash_prob : float; burst : int; max_crashes : int }
  | Targeted of { victims : int list; crash_prob : float; max_crashes : int }
  | Simultaneous of { crash_at : int list }
  | Quiescent of { period : int; active : int; crash_prob : float; max_crashes : int }

let pp_policy ppf = function
  | Uniform { crash_prob; max_crashes } ->
      Format.fprintf ppf "uniform(p=%g, <=%d crashes)" crash_prob max_crashes
  | Storm { crash_prob; burst; max_crashes } ->
      Format.fprintf ppf "storm(p=%g, burst=%d, <=%d crashes)" crash_prob burst max_crashes
  | Targeted { victims; crash_prob; max_crashes } ->
      Format.fprintf ppf "targeted({%s}, p=%g, <=%d crashes)"
        (String.concat "," (List.map string_of_int victims))
        crash_prob max_crashes
  | Simultaneous { crash_at } ->
      Format.fprintf ppf "simultaneous(at %s)"
        (String.concat "," (List.map string_of_int crash_at))
  | Quiescent { period; active; crash_prob; max_crashes } ->
      Format.fprintf ppf "quiescent(%d/%d, p=%g, <=%d crashes)" active period crash_prob
        max_crashes

let policy_name = function
  | Uniform _ -> "uniform"
  | Storm _ -> "storm"
  | Targeted _ -> "targeted"
  | Simultaneous _ -> "simultaneous"
  | Quiescent _ -> "quiescent"

(* The one authoritative name list: [policy_of_string] and every CLI
   error message derive from it, so adding a policy here is enough to
   make it parseable and listed. *)
let policy_names = [ "uniform"; "storm"; "targeted"; "simultaneous"; "quiescent" ]

(* The one place settings are checked.  A zero burst would make every
   storm firing crash nobody without stepping anybody ([run] would spin
   forever), and a zero period has no windows. *)
let validate pol =
  let bad fmt = Printf.ksprintf Option.some fmt in
  let common ~crash_prob ~max_crashes =
    if not (crash_prob >= 0. && crash_prob <= 1.) then
      bad "crash_prob must be in [0, 1] (got %g)" crash_prob
    else if max_crashes < 0 then bad "max_crashes must be >= 0 (got %d)" max_crashes
    else None
  in
  let problem =
    match pol with
    | Uniform { crash_prob; max_crashes } | Targeted { crash_prob; max_crashes; _ } ->
        common ~crash_prob ~max_crashes
    | Storm { crash_prob; burst; max_crashes } ->
        if burst < 1 then bad "burst must be >= 1 (got %d)" burst
        else common ~crash_prob ~max_crashes
    | Quiescent { period; active; crash_prob; max_crashes } ->
        if period < 1 then bad "period must be >= 1 (got %d)" period
        else if active < 0 then bad "active must be >= 0 (got %d)" active
        else common ~crash_prob ~max_crashes
    | Simultaneous _ -> None
  in
  match problem with
  | None -> Ok pol
  | Some m -> Error (Printf.sprintf "%s adversary: %s" (policy_name pol) m)

let policy_of_string ?(crash_prob = 0.2) ?(max_crashes = 6) ?(burst = 2) ?crash_at
    ?(period = 12) ?(active = 4) name =
  match String.lowercase_ascii name with
  | "uniform" -> validate (Uniform { crash_prob; max_crashes })
  | "storm" -> validate (Storm { crash_prob; burst; max_crashes })
  | "targeted" ->
      (* By name the adversary targets process 0: a deterministic
         default that still exercises recovery. *)
      validate (Targeted { victims = [ 0 ]; crash_prob; max_crashes })
  | "simultaneous" ->
      validate (Simultaneous { crash_at = Option.value crash_at ~default:[ 5; 17 ] })
  | "quiescent" -> validate (Quiescent { period; active; crash_prob; max_crashes })
  | _ ->
      Error
        (Printf.sprintf "unknown adversary policy %S (valid: %s)" name
           (String.concat ", " policy_names))

(* A crash budget: crashes spent so far, and the [Simultaneous]
   thresholds not yet reached.  [run] spends a fresh one per call;
   [decide] spends the adversary's lifetime one. *)
type budget = { mutable used : int; mutable pending : int list }

let fresh_budget = function
  | Simultaneous { crash_at } -> { used = 0; pending = List.sort_uniq compare crash_at }
  | _ -> { used = 0; pending = [] }

type t = {
  pol : policy;
  rng : Random.State.t;
  life : budget; (* [used] = crashes delivered over the adversary's lifetime *)
}

let of_policy pol rng =
  match validate pol with
  | Ok pol -> { pol; rng; life = fresh_budget pol }
  | Error m -> invalid_arg ("Adversary: " ^ m)

let create ?(seed = 42) pol = of_policy pol (Random.State.make [| seed |])
let of_rng ~rng pol = of_policy pol rng
let crashes_injected a = a.life.used

let crashes_requested a =
  match a.pol with
  | Uniform { max_crashes; _ }
  | Storm { max_crashes; _ }
  | Targeted { max_crashes; _ }
  | Quiescent { max_crashes; _ } ->
      max_crashes
  | Simultaneous { crash_at } -> List.length (List.sort_uniq compare crash_at)

(* One firing of a probabilistic policy: the [float] is drawn only when
   a crash is possible, then up to [burst] distinct victims are drawn
   from [pool], one [int] each.  Top-level rather than local to
   [crash_opportunity] so the no-crash path allocates nothing. *)
let fire rng b ~crash_prob ~max_crashes ~burst ~window pool =
  if b.used >= max_crashes || pool = [] || not window then []
  else if Random.State.float rng 1.0 < crash_prob then begin
    let rec draw k pool acc =
      if k = 0 || pool = [] then List.rev acc
      else
        let v = List.nth pool (Random.State.int rng (List.length pool)) in
        draw (k - 1) (List.filter (fun i -> i <> v) pool) (v :: acc)
    in
    let victims = draw (min burst (max_crashes - b.used)) pool [] in
    b.used <- b.used + List.length victims;
    victims
  end
  else []

(* The one crash rule.  [eligible] lists the processes a firing may
   crash: started and unfinished ones, except that [run]'s crash-all
   passes every process.  Returns the victims in crash order, already
   charged to [b]. *)
let crash_opportunity a b ~eligible ~total_steps =
  match a.pol with
  | Uniform { crash_prob; max_crashes } ->
      fire a.rng b ~crash_prob ~max_crashes ~burst:1 ~window:true eligible
  | Storm { crash_prob; burst; max_crashes } ->
      fire a.rng b ~crash_prob ~max_crashes ~burst ~window:true eligible
  | Targeted { victims; crash_prob; max_crashes } ->
      fire a.rng b ~crash_prob ~max_crashes ~burst:1 ~window:true
        (List.filter (fun i -> List.mem i victims) eligible)
  | Quiescent { period; active; crash_prob; max_crashes } ->
      fire a.rng b ~crash_prob ~max_crashes ~burst:1
        ~window:(total_steps mod period < active)
        eligible
  | Simultaneous _ -> (
      match b.pending with
      | at :: rest when total_steps >= at ->
          b.pending <- rest;
          b.used <- b.used + List.length eligible;
          eligible
      | _ -> [])

let decide a ~eligible ~total_steps = crash_opportunity a a.life ~eligible ~total_steps

type outcome = { crashes : int; steps : int; schedule : Schedule.choice list }

let unfinished t =
  let n = Sim.num_procs t in
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (if Sim.finished t i then acc else i :: acc)
  in
  collect (n - 1) []

let run ?(max_steps = 1_000_000) ?(record = true) ?(on_crash = fun _ -> ()) a t =
  let b = fresh_budget a.pol in
  let n = Sim.num_procs t in
  let sched = ref [] in
  let note c = if record then sched := c :: !sched in
  let steps = ref 0 in
  let step i =
    if !steps >= max_steps then
      raise (Stuck (Printf.sprintf "%s: step budget exhausted" (policy_name a.pol)));
    incr steps;
    note (Schedule.Step_choice i);
    match Sim.step_proc t i with
    | (_ : bool) -> ()
    | exception e -> (
        match Schedule.body_failure e with Some m -> raise (Body_failure m) | None -> raise e)
  in
  (* [Simultaneous] steps round-robin with a persistent cursor and
     crashes everyone at once, calling [on_crash] for every victim
     before the crash-all; the other policies step a random unfinished
     process and crash victims one by one, each [on_crash] after its
     crash.  Callers that sample state in [on_crash] (the log's
     committed prefix under a lossy cache) see these orders, and the
     golden pins in [test/test_adversary.ml] fix them. *)
  let simultaneous = match a.pol with Simultaneous _ -> true | _ -> false in
  let everyone = if simultaneous then List.init n Fun.id else [] in
  let cursor = ref 0 in
  let round_robin_next () =
    while Sim.finished t !cursor do
      cursor := (!cursor + 1) mod n
    done;
    let i = !cursor in
    cursor := (i + 1) mod n;
    i
  in
  let crash victims =
    List.iter
      (fun i ->
        a.life.used <- a.life.used + 1;
        note (Schedule.Crash_choice i);
        if not simultaneous then Sim.crash t i;
        on_crash i)
      victims;
    if simultaneous && victims <> [] then Sim.crash_all t
  in
  while not (Sim.all_finished t) do
    let eligible =
      if simultaneous then everyone else List.filter (fun i -> Sim.started t i) (unfinished t)
    in
    let victims = crash_opportunity a b ~eligible ~total_steps:(Sim.total_steps t) in
    crash victims;
    (* Round-robin steps at every opportunity, so thresholds already
       passed fire one step apart; a random step happens only when
       nothing crashed. *)
    if simultaneous then step (round_robin_next ())
    else if victims = [] then begin
      let live = unfinished t in
      step (List.nth live (Random.State.int a.rng (List.length live)))
    end
  done;
  { crashes = b.used; steps = !steps; schedule = List.rev !sched }

let round_robin ?max_steps t =
  ignore (run ?max_steps ~record:false (create (Simultaneous { crash_at = [] })) t)
