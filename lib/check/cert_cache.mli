(** Persisted certificate cache for the classification pipeline.

    One JSON file per (behavioural fingerprint, property, level) under a
    cache directory (conventionally [_certs/]), keyed by
    {!Rcons_spec.Object_type.fingerprint} so catalogue aliases share
    entries and any behavioural change to a type orphans its old files.

    Loaded entries are never trusted: positive entries are re-checked
    from scratch against Definition 2 / Definition 4 and their derived
    sets compared digest-for-digest (the caller receives the recomputed
    certificate data); negative entries are accepted only when the
    stored fingerprint and candidate-space size match the live module's
    (sound because the decision procedure is a deterministic function of
    the fingerprinted transition table).  Anything else is a [Miss] and
    the caller recomputes. *)

type 'a lookup =
  | Hit of 'a  (** revalidated positive entry (freshly recomputed data) *)
  | Negative  (** revalidated "no witness at this level" entry *)
  | Miss  (** no entry, or an entry that failed revalidation *)

val file_name : property:string -> fingerprint:string -> n:int -> string
(** Basename of the entry for a key, [<property>-<fingerprint>-n<n>.json];
    [property] is a {!Property.DEFINITION.name}. *)

(** The entry format of one property: the common header (format tag,
    property, type hint, fingerprint, depth, level), then either the
    exhausted candidate count or the property's
    {!Property.DEFINITION.witness_fields}. *)
module Codec (P : Property.DEFINITION) : sig
  val store :
    (module Rcons_spec.Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
    dir:string ->
    fingerprint:string ->
    depth:int ->
    n:int ->
    ('s, 'o, 'r) P.data option ->
    unit
  (** Write (atomically, creating [dir] if needed) the entry for a scan
      result; [None] records an exhausted candidate space.  [depth] is
      the fingerprint's BFS depth and must be [>= n] for the entry to be
      loadable.  A witness mentioning states/operations outside the
      declared universes is silently not cached. *)

  val load :
    (module Rcons_spec.Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
    check:(q0:'s -> ops_a:'o list -> ops_b:'o list -> ('s, 'o, 'r) P.data option) ->
    dir:string ->
    fingerprint:string ->
    n:int ->
    ('s, 'o, 'r) P.data lookup
  (** [~check] is the single-candidate decision procedure used to
      revalidate a positive entry: pass a warm {!Property.S.Scan}
      instance's [check] so the revalidation shares its memo tables. *)
end

(** {2 Maintenance — the [certs] CLI subcommand} *)

type info = {
  file : string;
  property : string;  (** a {!Property.DEFINITION.name} *)
  fingerprint : string;
  depth : int;
  n : int;
  positive : bool;
  type_hint : string;  (** informational type name recorded at store time *)
}

type status =
  | Valid
  | Stale_entry of string
      (** well-formed but failed revalidation against the live module *)
  | Corrupt of string  (** unparseable or shape-invalid *)

val info_of_file : string -> (info, string) result
(** Parse an entry's header; [Error] iff the file is corrupt. *)

val list_dir : string -> (string * (info, string) result) list
(** All [*.json] entries under a directory, sorted by name; missing
    directory is an empty cache. *)

val resolve : fingerprint:string -> depth:int -> Rcons_spec.Object_type.t option
(** A catalogue type (including small parametric S_n / T_n instances)
    whose behaviour matches the fingerprint at that depth. *)

val revalidate_file : string -> status
(** Full pipeline for one entry: parse, re-anchor by fingerprint via
    {!resolve}, then run the same revalidation as {!Codec.load}. *)

val gc : string -> (string * string) list
(** Delete every entry that is not [Valid]; returns the deleted files
    with reasons. *)
