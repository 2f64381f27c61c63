(** Process-level sharding of the experiment pipeline.

    A shard spec [I/N] names one of [N] deterministic partitions of a
    work list: item [j] belongs to shard [j mod N].  The partition is a
    pure function of the list (never of domain count or environment),
    so every item lands in exactly one shard, shard outputs are
    byte-stable, and separate processes — or separate CI jobs — can
    each run one shard and recombine the JSON documents afterwards with
    {!merge} (the [oqsc merge] subcommand).

    Shard documents are ordinary result documents plus a gated [shard]
    envelope field ([{"index": I, "of": N}], see docs/SCHEMA.md); the
    merged document drops it, making merged bytes identical to an
    unsharded run. *)

type spec = { index : int; count : int }
(** Shard [index] of [count] total shards; [0 <= index < count]. *)

val parse_spec : string -> (spec, string) result
(** Parses ["I/N"].  Rejects — with a message spelling out the expected
    format — anything non-numeric, [N = 0] (or negative), and indices
    outside [0 <= I < N]. *)

val to_string : spec -> string
(** ["I/N"], the form {!parse_spec} accepts. *)

val keeps : spec -> int -> bool
(** [keeps spec j]: does position [j] (0-based) belong to this shard? *)

val assign : spec -> 'a list -> 'a list
(** The sublist of items at positions kept by the spec, in order.
    [assign {index = i; count = n}] over [i = 0..n-1] partitions any
    list: every element appears in exactly one shard. *)

val json_field : spec -> string * Json.t
(** [("shard", {"index": I, "of": N})] — the envelope field a sharded
    document carries. *)

val merge : (string * Json.t) list -> (Json.t, string) result
(** [merge [(label, doc); ...]] recombines a complete set of shard
    documents (labels are used in error messages; pass file names).
    Validates that every input carries a [shard] field, that kind,
    schema version, seed, and quick agree everywhere, that the shard
    indices are exactly [0..N-1] with no duplicates, and that payload
    entries (experiment ids / audit [k] values) are disjoint across
    shards.  Supported kinds: [oqsc-experiments] (reassembled in
    catalogue order) and [oqsc-space-audit] (rows by ascending [k], fit
    and verdict recomputed over the merged rows).  The merged document
    has no [shard] field, and its bytes equal an unsharded run's. *)
