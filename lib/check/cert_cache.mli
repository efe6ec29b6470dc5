(** Persisted certificate cache for the classification pipeline.

    One JSON file per (behavioural fingerprint, property, level) under a
    cache directory (conventionally [_certs/]), keyed by
    {!Rcons_spec.Object_type.fingerprint} at the one depth {!key_depth},
    so catalogue aliases share entries and any behavioural change to a
    type on sequences of at most {!key_depth} operations orphans its old
    files.

    Loaded entries are never trusted: positive entries, at any level,
    are re-checked from scratch against Definition 2 / Definition 4 and
    their derived sets compared digest-for-digest (the caller receives
    the recomputed certificate data); negative entries are accepted only
    when the stored fingerprint and candidate-space size match the live
    module's and, above level {!key_depth}, the entry's fingerprint at
    depth n does too (sound because the level-n decision procedure is a
    deterministic function of the transition table a depth->=n
    fingerprint pins).  Anything else is a [Miss] and the caller
    recomputes.

    Verdicts therefore never depend on the cache, nor do witnesses at
    levels up to {!key_depth}.  Above it a hit is a re-proved witness
    that can differ from a fresh scan's first one, and only when the
    cache holds an entry written for another type that agrees with this
    one on every sequence of at most {!key_depth} operations. *)

type 'a lookup =
  | Hit of 'a  (** revalidated positive entry (freshly recomputed data) *)
  | Negative  (** revalidated "no witness at this level" entry *)
  | Miss  (** no entry, or an entry that failed revalidation *)

val key_depth : int
(** The fingerprint depth of every entry's key: 8, whatever the scan
    limit. *)

val file_name : property:string -> fingerprint:string -> n:int -> string
(** Basename of the entry for a key, [<property>-<fingerprint>-n<n>.json];
    [property] is a {!Property.DEFINITION.name}. *)

(** The entry format of one property: the common header (format tag,
    property, type hint, fingerprint, depth, level), then either the
    exhausted candidate count (plus, above level {!key_depth}, the
    [pin]: the fingerprint at depth n) or the property's
    {!Property.DEFINITION.witness_fields}. *)
module Codec (P : Property.DEFINITION) : sig
  val store :
    (module Rcons_spec.Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
    dir:string ->
    n:int ->
    ('s, 'o, 'r) P.data option ->
    unit
  (** Write (atomically, creating [dir] if needed) the entry for a scan
      result under the type's {!key_depth} fingerprint; [None] records an
      exhausted candidate space.  A witness mentioning states/operations
      outside the declared universes is silently not cached. *)

  val load :
    (module Rcons_spec.Object_type.S with type state = 's and type op = 'o and type resp = 'r) ->
    check:(q0:'s -> ops_a:'o list -> ops_b:'o list -> ('s, 'o, 'r) P.data option) ->
    dir:string ->
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

val resolve : type_hint:string -> fingerprint:string -> Rcons_spec.Object_type.t option
(** A type whose {!key_depth} fingerprint is [fingerprint]: the one
    {!Rcons_spec.Catalogue.of_name} makes of [type_hint] (any S_n or T_n
    included) if its key agrees, else the first catalogue type or small
    S_n / T_n instance whose key does. *)

val revalidate_file : string -> status
(** Full pipeline for one entry: parse, re-anchor by type hint and
    fingerprint via {!resolve}, then run the same revalidation as
    {!Codec.load}.  An entry keyed at another depth than {!key_depth}
    (written before the key depth was fixed) is stale. *)

val gc : string -> (string * string) list
(** Delete every entry that is not [Valid]; returns the deleted files
    with reasons. *)
