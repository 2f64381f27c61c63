(** Experiment registry: id -> structured runner, shared by the CLI and
    the bench harness.  Ids match the per-experiment index in DESIGN.md.

    Every experiment yields a typed {!Report.t} (tables of named cells,
    notes, metrics, plus seed and wall-clock metadata); the text tables
    and the JSON document are renderers over that record.  Results are a
    pure function of (id, quick, seed) — wall-clock telemetry aside — so
    parallel and sequential execution produce identical output. *)

val ids : string list
(** ["e1"; ...; "e15"], in order. *)

val description : string -> string
(** One-line description of an experiment id.  @raise Not_found. *)

val validate_only : string list -> (unit, string) result
(** [Ok ()] when every id is in the catalogue; otherwise an error
    message naming the unknown id(s) and listing the valid ones — what
    the CLI prints before exiting non-zero on a bad [--only]/[--shard]
    selection. *)

val result : ?quick:bool -> ?seed:int -> string -> Report.t
(** Runs one experiment to its structured result.  Default seed 2006
    (the paper's year), quick = false.  @raise Not_found for unknown
    ids. *)

val results :
  ?quick:bool ->
  ?seed:int ->
  ?domains:int ->
  ?only:string list ->
  unit ->
  Report.t list
(** Runs a selection of experiments (default: all of them) across
    domains via {!Mathx.Parallel.map_chunks} and returns the results in
    catalogue order.  [only] filters by id (catalogue order is
    preserved; @raise Not_found on an unknown id before any work
    starts).  [domains] defaults to
    {!Mathx.Parallel.recommended_domains}; [domains = 1] runs them one
    after another. *)

val document : ?quick:bool -> ?seed:int -> string -> Json.t
(** [document id] is the [oqsc-experiments] JSON document for exactly
    one experiment — byte-for-byte what
    [run-all --only id --json -] emits at the same [(quick, seed)].
    This is the single-id entry point the [lib/serve] request engine
    answers [run] requests with, so a served payload is checkable
    against the one-shot CLI with [cmp].  Defaults match [run-all]:
    seed 2006, quick = false.  @raise Not_found for unknown ids. *)

