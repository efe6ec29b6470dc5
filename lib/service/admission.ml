(* Bounded FIFO admission queue; see the interface. *)

type 'a t = {
  cap : int;
  q : 'a Queue.t;
  mutable admitted : int;
  mutable shed : int;
  mutable high_water : int;
}

let create ~cap =
  if cap < 1 then invalid_arg "Admission.create: cap must be >= 1";
  { cap; q = Queue.create (); admitted = 0; shed = 0; high_water = 0 }

let is_empty t = Queue.is_empty t.q

let try_enqueue t x =
  if Queue.length t.q >= t.cap then begin
    t.shed <- t.shed + 1;
    false
  end
  else begin
    Queue.add x t.q;
    t.admitted <- t.admitted + 1;
    if Queue.length t.q > t.high_water then t.high_water <- Queue.length t.q;
    true
  end

let pop_up_to t n =
  let rec go n acc =
    if n = 0 || Queue.is_empty t.q then List.rev acc else go (n - 1) (Queue.pop t.q :: acc)
  in
  go n []

let admitted t = t.admitted
let shed t = t.shed
let high_water t = t.high_water
