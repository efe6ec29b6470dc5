(** Client-side retry policy: deadline-based timeouts with seeded
    truncated-exponential backoff and full jitter.

    A client that gets [Overloaded] (admission shed) or [Timeout]
    (deadline passed with the op still in flight) sleeps
    [delay ~attempt] ticks and retries, up to [max_retries] attempts;
    the jitter draws from the {e caller's} RNG so the whole soak stays a
    pure function of [(seed, policy, persist)].  Retries are keyed by
    idempotent op ids at the instance layer -- a retry of an in-flight
    op re-arms the deadline without re-submitting, so backoff never
    duplicates work. *)

type policy = {
  base : int;  (** first-retry backoff bound, in ticks (>= 1) *)
  cap : int;  (** truncation: no single delay exceeds [cap] ticks *)
  max_retries : int;  (** attempts after the first before giving up *)
  deadline : int;  (** per-attempt response deadline, in ticks *)
}

val default : policy
(** [{ base = 2; cap = 64; max_retries = 8; deadline = 48 }]. *)

val delay : policy -> rng:Random.State.t -> attempt:int -> int
(** Full-jitter truncated exponential backoff for the [attempt]-th retry
    (0-based): uniform in [[1, min cap (base * 2^attempt)]].  Consumes
    exactly one [int] draw from [rng]. *)
