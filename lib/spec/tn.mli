(** The separating type T_n of Proposition 19 (Figure 5 of the paper).

    T_n is n-discerning but not (n-1)-recording, so
    [cons(T_n) = n] while [rcons(T_n) < n] (Corollary 20): the witness
    that a type's recoverable-consensus number can be strictly below its
    consensus number.

    States are [(winner, row, col)] with [winner] in [{A, B}],
    [0 <= row < ceil(n/2)], [0 <= col < floor(n/2)], plus the forgetful
    initial state [(bot, 0, 0)].  [winner] records which of [op_A]/[op_B]
    came first; [col] counts subsequent [op_A] applications and [row]
    counts [op_B] applications; wrapping either counter resets the object
    to [(bot, 0, 0)] ("the object forgets"). *)

type winner = Bot | Won of Team.t
type state = { winner : winner; row : int; col : int }
type op = OpA | OpB
type resp = Team.t

val make : int -> Object_type.t
(** [make n] builds T_n.
    @raise Invalid_argument if [n < 2]. *)
