(** The type S_n of Proposition 21 (Figure 6 of the paper).

    S_n is n-recording and not (n+1)-discerning, so
    [rcons(S_n) = cons(S_n) = n]: every level of the recoverable
    consensus hierarchy is populated, and the two hierarchies agree on
    S_n.

    States are [(winner, row)] with [winner] in [{A, B}] and
    [0 <= row < n].  From the initial state [(B, 0)], [winner] records
    whether the first update was [op_A] and [row] counts [op_B]
    applications; a second [op_A] or an n-th [op_B] resets the object to
    [(B, 0)].  All operations return [Ack], so only the readable state
    carries information. *)

type state = { winner : Team.t; row : int }
type op = OpA | OpB
type resp = Ack

val make : int -> Object_type.t
(** [make n] builds S_n.
    @raise Invalid_argument if [n < 2]. *)
