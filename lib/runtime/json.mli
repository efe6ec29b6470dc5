(** Minimal JSON values, printer and parser.

    The repository has no external JSON dependency, and its artifacts --
    counterexample witnesses ([_counterexamples/*.json]), explorer
    checkpoints, bench output -- need only plain JSON: objects, arrays,
    strings, ints, floats, bools and null.  This module is that, nothing
    more.  Printing is deterministic (object fields keep their
    construction order), so artifacts are diffable and byte-stable across
    runs; [parse] accepts anything {!to_string} emits plus ordinary
    whitespace, and rejects trailing garbage. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render with [indent] spaces of nesting (default 2); a [~indent:0]
    rendering is single-line. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    offending offset.  Numbers without [.]/[e] parse as {!Int}. *)

val parse_exn : string -> t
(** @raise Invalid_argument on parse errors. *)

val save : file:string -> t -> unit
(** Write [to_string v ^ "\n"] to [file ^ ".tmp"], then rename it over
    [file], so a crash of the writer never leaves a truncated [file].
    @raise Sys_error if any step fails (including the final flush);
    the temporary file is removed first. *)

val load : file:string -> t
(** Read and {!parse_exn} a whole file; the channel is closed on every
    path.  @raise Sys_error if unreadable, [Invalid_argument] if not
    JSON. *)

(** {2 Accessors} -- all raise [Invalid_argument] with the field name on
    shape mismatches, so artifact loading fails with a useful message. *)

val member : string -> t -> t option
val field : string -> t -> t
val to_int : t -> int
val to_float : t -> float
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
