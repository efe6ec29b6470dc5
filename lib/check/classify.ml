(* Classification of object types in the two hierarchies.

   For a deterministic readable type T, with respect to its declared
   operation universe:
   - cons(T) = max n such that T is n-discerning (Theorem 3, exact);
   - rcons(T) is k or k+1 where k = max n such that T is n-recording
     (Theorems 8 and 14).

   Both properties are downward closed (Observation 6 and its analogue for
   the discerning property: drop one process from a team of size >= 2), so
   the maxima are found by scanning n upwards until the first failure.  A
   type passing at [limit] is reported as [At_least limit]; no finite
   procedure can distinguish "large" from "infinite" for arbitrary types. *)

open Rcons_spec

type level = Finite of int | At_least of int

let pp_level ppf = function
  | Finite n -> Format.pp_print_int ppf n
  | At_least n -> Format.fprintf ppf ">=%d" n

let equal_level a b = a = b

(* Largest n in [2, limit] satisfying [prop], scanning upwards.  A type
   that is not even 2-recording/2-discerning sits at level 1: one process
   can always decide alone. *)
let max_level ~limit prop =
  if limit < 2 then invalid_arg "Classify.max_level: limit must be >= 2";
  let rec scan n = if n > limit then At_least limit else if prop n then scan (n + 1) else Finite (n - 1)
  in
  scan 2

(* Depth of the behavioural fingerprint used as the cache key: deep
   enough to pin every sequence the level-<=limit searches can explore,
   never shallower than the default so small-limit and default runs
   share keys whenever they can. *)
let cert_depth ~limit = max 8 limit

(* The one cache-or-compute level scan, for either property.  One
   memoized search instance per type ([P.Scan (T)]) lives across all
   levels, and the level-n witness seeds the level-(n+1) enumeration.
   With [certs], each level is first looked up in the persisted cache,
   which revalidates entries through the scan's own (warm) [check]
   before trusting them; every recomputed level is written back. *)
let scan (type p) (module P : Property.S with type packed = p) ?domains ?certs ~limit
    (Object_type.Pack (module T)) =
  let module Sc = P.Scan (T) in
  let module C = Cert_cache.Codec (P) in
  let key =
    Option.map
      (fun dir ->
        let depth = cert_depth ~limit in
        (dir, depth, Object_type.fingerprint ~depth (module T)))
      certs
  in
  let witness_at seed n =
    match key with
    | None -> Sc.witness_at ?domains ?seed n
    | Some (dir, depth, fingerprint) -> (
        match C.load (module T) ~check:Sc.check ~dir ~fingerprint ~n with
        | Cert_cache.Hit d -> Some d
        | Cert_cache.Negative -> None
        | Cert_cache.Miss ->
            let r = Sc.witness_at ?domains ?seed n in
            C.store (module T) ~dir ~fingerprint ~depth ~n r;
            r)
  in
  let seed = ref None in
  let level =
    max_level ~limit (fun n ->
        match witness_at !seed n with
        | Some d ->
            seed := Some d;
            true
        | None -> false)
  in
  (level, Option.map (P.pack (module T)) !seed)

let max_discerning ?domains ?(limit = 8) ?certs ot =
  fst (scan (module Discerning) ?domains ?certs ~limit ot)

let max_recording ?domains ?(limit = 8) ?certs ot =
  fst (scan (module Recording) ?domains ?certs ~limit ot)

(* Interval [lower, upper] with [upper = None] meaning "no finite upper
   bound established". *)
type bounds = { lower : int; upper : int option }

let pp_bounds ppf { lower; upper } =
  match upper with
  | Some u when u = lower -> Format.pp_print_int ppf lower
  | Some u -> Format.fprintf ppf "[%d,%d]" lower u
  | None -> Format.fprintf ppf ">=%d" lower

(* The characterizations tie the structural levels to consensus numbers
   only for readable types: Theorem 3 (cons) and Theorems 8/14 (rcons) all
   use the READ operation in at least one direction, except for the upper
   bound of Theorem 14 which holds unconditionally.  For non-readable types
   (the paper's stack and queue, test-and-set) the intervals below are
   therefore [None]; their rcons is settled by the valency analysis of
   Appendix H instead. *)
(* Pure derivations from already-computed levels, so that callers (and
   [classify] in particular) run each exhaustive scan exactly once. *)
let cons_bounds_of ~readable discerning =
  if not readable then None
  else
    match discerning with
    | Finite n -> Some { lower = n; upper = Some n }
    | At_least n -> Some { lower = n; upper = None }

let rcons_bounds_of ~readable ~discerning recording =
  if not readable then None
  else
    let cons_upper =
      match cons_bounds_of ~readable discerning with Some { upper; _ } -> upper | None -> None
    in
    match recording with
    | Finite k ->
        (* Theorem 8: a readable k-recording type has rcons >= k.
           Theorem 14: not (k+1)-recording => RC unsolvable for k+2, so
           rcons <= k+1.  Corollary 17: rcons <= cons. *)
        let upper =
          match cons_upper with Some c -> min (k + 1) c | None -> k + 1
        in
        Some { lower = max 1 k; upper = Some (max 1 upper) }
    | At_least k -> Some { lower = k; upper = None }

type report = {
  type_name : string;
  is_readable : bool;
  discerning : level;
  recording : level;
  cons : bounds option; (* None: characterization inapplicable (not readable) *)
  rcons : bounds option;
}

(* One discerning scan and one recording scan per report; the bounds are
   pure derivations of the levels. *)
let classify ?domains ?(limit = 8) ?certs ot =
  let readable = Object_type.readable ot in
  let discerning = max_discerning ?domains ~limit ?certs ot in
  let recording = max_recording ?domains ~limit ?certs ot in
  {
    type_name = Object_type.name ot;
    is_readable = readable;
    discerning;
    recording;
    cons = cons_bounds_of ~readable discerning;
    rcons = rcons_bounds_of ~readable ~discerning recording;
  }

let pp_bounds_option ppf = function
  | None -> Format.pp_print_string ppf "n/a"
  | Some b -> pp_bounds ppf b

let pp_report ppf r =
  let str pp v = Format.asprintf "%a" pp v in
  Format.fprintf ppf "%-20s readable=%-5b discerning=%-5s recording=%-5s cons=%-7s rcons=%s"
    r.type_name r.is_readable
    (str pp_level r.discerning)
    (str pp_level r.recording)
    (str pp_bounds_option r.cons)
    (str pp_bounds_option r.rcons)
