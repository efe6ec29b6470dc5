(** Enumeration helpers for the property-checker searches.

    Both Q_X (Definition 4) and R_{X,j} (Definition 2) depend only on the
    multiset of operations assigned to each team -- process indices enter
    the definitions only through "each process appears at most once" --
    so enumerating multisets instead of per-process vectors is an
    exponential symmetry reduction with the same answer (checked against
    brute-force vector enumeration in the test suite). *)

val multisets : int -> 'a list -> 'a list list
(** [multisets k universe]: all multisets of size [k] over [universe],
    each represented as a list; there are C(|universe| + k - 1, k). *)

val team_splits : int -> (int * int) list
(** [team_splits n]: the splits of [n] processes into two non-empty team
    sizes [(a, b)] with [a <= b].  Ordered splits with [a > b] are
    redundant because Definitions 2 and 4 are team-swap invariant. *)

val pairs : 'a list -> 'b list -> ('a * 'b) list
(** Cartesian product, in order. *)

val sym_pairs : 'a list -> ('a * 'a) list
(** [sym_pairs xs]: the pairs [(x_i, x_j)] with [i <= j], in row-major
    order.  Used for equal team splits, where Definitions 2 and 4 are
    invariant under exchanging the two teams' multisets: the mirror of
    any valid pair is valid, so a first-match search over this reduced
    enumeration returns the same witness as over the full square. *)

val candidate_count : initial_states:'s list -> ops:'o list -> int -> int
(** The size of the level-n candidate space, computed arithmetically
    (nothing is built): [count (view ...)] by the same layout.  The
    certificate cache validates negative entries against it. *)

type ('s, 'o) view
(** The canonical level-n candidate space [(q0, team-A multiset,
    team-B multiset)], addressable by index without materializing it.
    Shared by both decision procedures and by the certificate cache's
    negative-entry revalidation, which must agree with the procedures on
    the enumeration's shape.  It holds only the layout (team splits and
    their block offsets): {!nth} unranks the two multisets of the
    candidate it returns and builds nothing else. *)

val view : initial_states:'s list -> ops:'o list -> int -> ('s, 'o) view
(** [view ~initial_states ~ops n]: the level-n candidate space. *)

val count : ('s, 'o) view -> int
(** Number of candidates; equals {!candidate_count}. *)

val nth : ('s, 'o) view -> int -> 's * 'o list * 'o list
(** [nth v i]: the [i]-th candidate in enumeration order, in time
    logarithmic in the space and polynomial in the team sizes.  Pure,
    so safe to call from several domains at once.
    @raise Invalid_argument unless [0 <= i < count v]. *)

val candidates :
  initial_states:'s list -> ops:'o list -> int -> ('s * 'o list * 'o list) list
(** The same space materialized as a list, in the same order: the
    reference the tests pin [List.init (count v) (nth v)] against.  The
    searches go through {!view}. *)
