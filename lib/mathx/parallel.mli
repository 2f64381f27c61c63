(** Embarrassingly parallel helpers over OCaml 5 domains.

    The Monte-Carlo experiments run thousands of independent recognizer
    passes; this module spreads them over the machine's cores.  The
    central contract is {e seed determinism}: the caller's PRNG is split
    sequentially into one independent stream per chunk {e before} any
    domain is spawned, so every result is a pure function of ([chunks],
    [rng]) and is bit-identical for any [domains] value — parallelism
    changes wall-clock time only, never output.

    The same contract covers resource tracing: when the caller has an
    ambient [Obs] sink installed, each chunk records into a private sink
    (whichever domain it runs on) and the private sinks are merged back
    into the caller's in chunk order after the join, so measured
    resource totals are also independent of [domains].

    Timeline tracing rides along without joining the contract: when an
    [Obs.Trace] session is live, every chunk brackets itself with a
    timed span ([parallel.map_chunk], with the chunk index as an
    argument) on whichever domain runs it, and each spawned domain wraps
    its stealing loop in a [parallel.worker] span.
    Tracing reads clocks and is exempt from determinism; it never
    touches the chunk sinks, the PRNG streams, or the results. *)

val recommended_domains : unit -> int
(** [max 1 (cores - 1)], capped at 8.  One level schedules: the
    registry spreads experiments, and a server its distinct misses,
    while an experiment's own trials run on its chunk's domain
    ([~domains:1]), so at most 8 domains are live at once on any host,
    well within the runtime's limit of 128. *)

val map_chunks :
  ?domains:int -> chunks:int -> (chunk:int -> rng:Rng.t -> 'a) -> rng:Rng.t -> 'a list
(** [map_chunks ~chunks f ~rng] evaluates [f ~chunk:i ~rng:rng_i] for
    i = 0..chunks-1 across domains, where [rng_i] is the i-th split of
    [rng] (split sequentially up front, advancing [rng], so the work
    split is independent of the domain count).  Results are returned in
    chunk order.

    Edge cases:
    - [chunks = 0] returns [[]] and consumes no randomness;
    - [chunks < 0] raises [Invalid_argument];
    - [domains <= 1] (including [0] and negative values) runs entirely
      on the calling domain; omitting it uses [recommended_domains ()];
    - a single item also runs on the calling domain; otherwise workers
      steal one item at a time. *)
