(** Lifting team consensus to full (recoverable) consensus: the
    tournament of Appendix B (Proposition 30).

    The k processes of a node split into parts A' and B' with
    [|A'| <= |A|] and [|B'| <= |B|] (the underlying instances' team
    capacities); each part recursively agrees, then the parts run team
    consensus.  A split exists whenever [k <= |A| + |B|], and instances
    tolerate subset participation.  All shared objects are created up
    front in non-volatile memory, so re-running [decide] after a crash
    re-enters the same instances: the construction is recoverable
    whenever its instances are. *)

type 'v decide = int -> 'v -> 'v
(** [decide pid v], run from inside simulated process [pid]. *)

type 'v team_instance = {
  decide_team : Rcons_spec.Team.t -> int -> 'v -> 'v;
  cap_a : int;
  cap_b : int;
}

val build : make_instance:(unit -> 'v team_instance) -> cap_a:int -> cap_b:int -> int list -> 'v decide
(** Recursive tournament over the given process ids.
    @raise Invalid_argument if more than [cap_a + cap_b] processes. *)

val recoverable_consensus :
  ?faithful:bool -> Rcons_check.Certificate.recording -> n:int -> 'v decide
(** n-process recoverable consensus from a recording certificate
    (Theorem 8 + Proposition 30), inputs stabilized by the
    input-register transformation ({!Stable_input}). *)

val standard_consensus : Rcons_check.Certificate.discerning -> n:int -> 'v decide
(** n-process standard consensus from a discerning certificate
    (Theorem 3); correct under halting failures only. *)
