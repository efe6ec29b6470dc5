(* Truncated exponential backoff with full jitter; see the interface. *)

type policy = { base : int; cap : int; max_retries : int; deadline : int }

let default = { base = 2; cap = 64; max_retries = 8; deadline = 48 }

let delay p ~rng ~attempt =
  (* [lsl] overflows past 62 doublings; the cap kicks in long before,
     so clamp the exponent instead of the product. *)
  let bound = if attempt >= 30 then p.cap else min p.cap (p.base lsl max 0 attempt) in
  1 + Random.State.int rng (max 1 bound)
