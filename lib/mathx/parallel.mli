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
    timed span ([parallel.map_chunk] / [parallel.range_chunk], with the
    chunk index as an argument) on whichever domain runs it, and each
    spawned domain wraps its stealing loop in a [parallel.worker] span.
    Tracing reads clocks and is exempt from determinism; it never
    touches the chunk sinks, the PRNG streams, or the results. *)

val recommended_domains : unit -> int
(** [max 1 (cores - 1)], capped at 8 so nested parallel sections cannot
    oversubscribe the machine. *)

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

(** {1 Range kernels}

    Data-parallel loops over integer ranges, used by the state-vector
    backend's amplitude kernels.  The range is cut into chunks whose
    boundaries depend {e only} on the range length — never on [domains]
    — so results are bit-identical however the chunks are scheduled.
    The callbacks run on spawned domains: they must not touch the
    ambient [Obs] sink (record on the calling domain before or after
    the loop instead) and must only perform write-disjoint work. *)

val iter_range : int -> (int -> int -> unit) -> unit
(** [iter_range n f] covers [0, n) with calls [f lo hi] over half-open
    chunks of about 2048 elements, possibly concurrently on
    {!recommended_domains} domains.  [f]'s writes must be disjoint
    across chunks.  [n = 0] is a no-op; [n < 0] raises
    [Invalid_argument]. *)

val sum_range : ?domains:int -> int -> (int -> int -> float) -> float
(** [sum_range n f] sums [f lo hi] over the same deterministic chunk
    decomposition, combining partials in chunk order — the float result
    is a pure function of [n] and [f].  Ranges of at most 16384
    elements reduce in a single chunk, i.e. exactly [f 0 n]. *)

val count_successes :
  ?domains:int -> trials:int -> (Rng.t -> bool) -> rng:Rng.t -> int
(** Runs [trials] independent boolean trials (one PRNG split each) in
    parallel and counts the [true]s — the Monte-Carlo kernel.  Agrees
    with the sequential fold that splits [rng] once per trial in order.
    [trials = 0] returns [0]; [trials < 0] raises [Invalid_argument]. *)
