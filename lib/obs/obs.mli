(** Resource tracing: the observability layer behind the [resources]
    section of the experiment JSON.

    The theorems this repository reproduces are resource bounds —
    [O(log n)] quantum space (Theorem 3.4), [Omega(n^{1/3})] classical
    space (Theorem 3.6), [O(sqrt n log n)] communication (Theorem 3.1) —
    so the resources themselves are first-class measured quantities.  A
    sink ({!t}) holds three kinds of instrument:

    - {e monotonic counters} ([rng.draws], [quantum.gates],
      [comm.classical_bits], ...): non-negative increments only;
    - {e peak gauges} ([workspace.classical_bits], [quantum.qubits],
      ...): a current level moved by positive and negative deltas, with
      the high-water mark tracked — the paper's "space used" is always a
      peak, never a final level;
    - {e phase-scoped spans}: named dynamic extents ([def23.stage1],
      ...) counted per entry, with peak nesting depth recorded under the
      [span.depth] gauge.

    The sink is {e deterministic by construction}: recording touches no
    clock, performs no I/O, and draws no randomness, so instrumented and
    uninstrumented runs of a seeded experiment produce identical results
    (a property the test suite checks byte-for-byte on the JSON
    documents).  {!snapshot} returns a sorted association list, making
    serialized resource sections reproducible.

    {2 Threading}

    Instrumented modules do not take a sink argument; they report
    through the ambient {!Scope}, a per-domain slot that is empty by
    default (every probe is then a no-op).  [Scope.with_sink] installs a
    sink for a dynamic extent on the current domain only;
    [Mathx.Parallel] bridges domains by giving each chunk a fresh sink
    and merging them into the caller's sink in chunk order, so totals
    are independent of the domain count and of scheduling. *)

type t
(** A mutable sink.  Not thread-safe: one sink belongs to one domain at
    a time (the [Mathx.Parallel] bridge enforces this for forked work). *)

val create : unit -> t
(** A fresh sink with no counters, gauges, or spans. *)

(** {1 Counters} *)

val add : t -> string -> int -> unit
(** [add t name by] increments counter [name] by [by].
    @raise Invalid_argument if [by < 0] — counters are monotonic. *)

val incr : t -> string -> unit
(** [incr t name] is [add t name 1]. *)

val count : t -> string -> int
(** Current value of a counter (0 if it was never incremented). *)

(** {1 Peak gauges} *)

val gauge_add : t -> string -> int -> unit
(** [gauge_add t name d] moves gauge [name]'s level by [d] (negative to
    release) and raises its peak if the new level exceeds it.  Levels
    may go negative (releases observed without the matching alloc, e.g.
    when a sink is installed mid-computation); peaks start at 0. *)

val gauge_observe : t -> string -> int -> unit
(** [gauge_observe t name v] raises gauge [name]'s peak to at least [v]
    without moving its level — for externally metered peaks (a
    [Machine.Optm] run reports its own tape high-water mark). *)

val gauge_level : t -> string -> int
val gauge_peak : t -> string -> int

(** {1 Spans} *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span: counter
    [span.<name>] is incremented on entry and the nesting depth is
    tracked on the [span.depth] gauge.  Exception-safe: the depth is
    restored however [f] exits. *)

val span_depth : t -> int
(** Current nesting depth of open spans. *)

(** {1 Snapshot and merge} *)

val snapshot : t -> (string * int) list
(** All recorded values as a sorted association list: counters under
    their own name, gauges under [<name>.peak] (levels are transient
    bookkeeping and are not serialized).  This is the [resources]
    section of the experiment JSON. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into]: counters add, gauge
    levels add, gauge peaks combine by [max].  Used by
    [Mathx.Parallel] to fold per-chunk sinks back into the caller's
    sink; all three operations are commutative and associative, so the
    merged totals do not depend on scheduling. *)

(** {1 Timeline tracing}

    The opt-in timed layer next to the deterministic sink.  Where the
    sink records {e how much} was spent (and is part of the gated
    determinism contract), {!Trace} records {e when and where}: named
    begin/end spans, instant events, and counter samples, each stamped
    with a monotonic clock and the recording domain, buffered per
    domain and exported as a Chrome trace-event document (see
    [Experiments.Chrome_trace] and the [oqsc-trace] kind in
    [docs/SCHEMA.md]).

    Tracing is explicitly {e exempt} from the determinism contract —
    it reads clocks — and is therefore kept strictly write-only with
    respect to the rest of the system: no sink, counter, metric, or
    seeded computation can observe whether tracing is on.  A traced
    run must produce byte-identical gated JSON to an untraced one
    (CI checks this). *)

module Trace : sig
  type value = Int of int | Float of float | Str of string
  (** Argument payloads attached to events (rendered into the Chrome
      [args] object). *)

  type kind = Begin | End | Instant | Counter | Flow_start | Flow_end
  (** Chrome trace-event phases: [Begin]/[End] bracket a named span on
      one domain, [Instant] is a point event, [Counter] carries sampled
      numeric series, and [Flow_start]/[Flow_end] are the two ends of a
      cross-thread flow arrow (Chrome [ph:"s"]/[ph:"f"]) correlated by
      {!event.flow}. *)

  type event = {
    kind : kind;
    name : string;
    ts_ns : int64;  (** monotonic clock, nanoseconds *)
    domain : int;  (** id of the domain that recorded the event *)
    args : (string * value) list;
    flow : int;
        (** flow-correlation id for [Flow_start]/[Flow_end] events;
            [0] (unused) for every other kind *)
  }

  type dump = {
    t0_ns : int64;  (** clock value at {!start}; export subtracts it *)
    events : event list;
        (** all surviving events, stably sorted by timestamp (each
            domain's own order is preserved) *)
    dropped : int;  (** events discarded because a buffer filled up *)
  }

  val enabled : unit -> bool
  (** Whether a trace session is currently recording. *)

  val now_ns : unit -> int64
  (** The monotonic clock every trace event is stamped with, in
      nanoseconds from an arbitrary origin.  Exposed so latency
      accounting outside this module (the [lib/serve] request engine's
      per-request [wall_ms]) reads the same clock as the timeline;
      reading it never records anything and works with tracing off. *)

  val start : ?capacity:int -> unit -> unit
  (** Begin a trace session: clears any previous session's buffers and
      enables recording on every domain.  [capacity] bounds the event
      count {e per domain} (default 65536); once a domain's buffer is
      full its further events are counted in [dropped] rather than
      recorded, so the retained prefix keeps its span pairing.
      @raise Invalid_argument if [capacity < 1]. *)

  val stop : unit -> dump
  (** Disable recording and return everything recorded since {!start}.
      Call only when no spawned domain is still running traced work
      (the [Mathx.Parallel] helpers join their domains before
      returning, so call sites after a parallel section are safe). *)

  val with_span : ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
  (** [with_span name f] brackets [f] with begin/end events on the
      calling domain when tracing is enabled, and is exactly [f ()]
      when it is not.  Exception-safe: the end event is emitted however
      [f] exits. *)

  val instant : ?args:(string * value) list -> string -> unit
  (** Record a point event (no-op when tracing is off). *)

  val counter : string -> (string * float) list -> unit
  (** [counter name series] records sampled values for one or more
      named series under a counter track (no-op when tracing is off). *)

  val flow_start : ?args:(string * value) list -> id:int -> string -> unit
  (** Record the starting end of a flow arrow (no-op when tracing is
      off).  A flow ties two points on different threads/domains into
      one arrow in the Perfetto view — the serve engine uses one per
      request to connect the admission span on the connection thread to
      the dispatch span on the worker domain.  [id] correlates the two
      ends and must be unique per flow within a session. *)

  val flow_end : ?args:(string * value) list -> id:int -> string -> unit
  (** Record the finishing end of the flow [id] (no-op when tracing is
      off).  Use the same [name] as the matching {!flow_start}. *)

  val dropped : unit -> int
  (** Events dropped by full ring buffers {e so far} in the current
      session — the live counterpart of {!dump}'s [dropped] field,
      readable without stopping the session (a long-lived server
      surfaces it in its [stats] reply).  [0] when tracing never
      started. *)
end

(** {1 Operational metrics}

    The third observability layer, built for long-lived processes
    ([oqsc serve]): typed, process-wide, thread-safe metric registries
    holding monotonic counters, gauges, and fixed-boundary
    log₂-bucketed histograms.  Like {!Trace} — and unlike the
    deterministic sink — metrics sit entirely outside the gated
    determinism contract: feeding them never changes a payload byte,
    and nothing gated ever reads them.

    Rendering is deterministic by construction: snapshots sort by
    metric name, bucket boundaries are fixed powers of two, and the
    text renderers use one fixed float format — two registries fed the
    same samples in the same order render byte-identically (the test
    suite pins this).  {!to_prometheus} emits Prometheus text
    exposition; the JSON snapshot document (kind [oqsc-metrics]) is
    rendered by [Experiments.Metrics_doc], which shares the canonical
    emitter's float/escape conventions. *)

module Metrics : sig
  type registry
  (** A set of named metrics behind one mutex.  All recording functions
      take an optional [?registry] defaulting to {!default}, the
      process-wide registry that a server feeds and its scrape
      endpoints render. *)

  val create_registry : unit -> registry
  (** A fresh, empty registry (tests and merges use private ones). *)

  val default : registry
  (** The process-wide registry. *)

  val counter_add : ?registry:registry -> string -> int -> unit
  (** [counter_add name by] increments monotonic counter [name].
      Metric names must match [[A-Za-z_][A-Za-z0-9_:]*] — they double
      as Prometheus names and JSON keys.
      @raise Invalid_argument if [by < 0], the name is invalid, or
      [name] is already registered as a different metric type. *)

  val counter_incr : ?registry:registry -> string -> unit
  (** [counter_add name 1]. *)

  val gauge_set : ?registry:registry -> string -> int -> unit
  (** Set gauge [name] to an absolute level. *)

  val gauge_add : ?registry:registry -> string -> int -> unit
  (** Move gauge [name] by a (possibly negative) delta. *)

  val observe : ?registry:registry -> string -> float -> unit
  (** Record one sample into histogram [name]: the sample lands in
      exactly one of the {!bucket_count} fixed log₂ buckets (chosen by
      {!bucket_index}) and, when finite, accumulates into the
      histogram's sum. *)

  val bucket_count : int
  (** Number of histogram buckets: 32.  Bucket [i < 31] has inclusive
      upper bound [2^i] (so bucket 0 holds samples [<= 1], including
      non-finite and negative ones); bucket 31 is the +Inf overflow. *)

  val bucket_index : float -> int
  (** The single bucket a sample lands in: total over all floats,
      always in [[0, bucket_count)]. *)

  val bucket_upper : int -> float
  (** Inclusive upper bound of bucket [i] ([infinity] for the last).
      @raise Invalid_argument outside [[0, bucket_count)]. *)

  type data =
    | Counter of int
    | Gauge of int
    | Histogram of { counts : int array; total : int; sum : float }
        (** [counts] has {!bucket_count} per-bucket (non-cumulative)
            entries summing to [total]; [sum] totals the finite
            samples. *)

  type snapshot = (string * data) list
  (** A registry's contents, sorted by metric name. *)

  val snapshot : ?registry:registry -> unit -> snapshot
  (** Atomic copy of the registry, deterministically ordered. *)

  val merge : into:registry -> registry -> unit
  (** Fold [src] into [into]: counters and gauge levels add, histograms
      add bucket-wise (counts, totals, sums).  Merging the registries
      of two sample streams equals the registry of the concatenated
      streams — the law the qcheck suite checks. *)

  val float_repr : float -> string
  (** The one float text of every renderer, here and in the canonical
      JSON emitter: [%.12g], with ".0" appended when that spells an
      integer, so that a value one ulp off an integer prints as the
      exact integer does ([%.1f] below 1e15) and both parse back as a
      float. *)

  val to_prometheus : snapshot -> string
  (** Prometheus text exposition: a [# TYPE] line per metric, counters
      and gauges as single samples, histograms as cumulative
      [_bucket{le="..."}] series (integral powers of two, then [+Inf])
      with [_sum] and [_count].  Deterministic for a given snapshot. *)
end

(** {1 Ambient scope}

    The per-domain slot instrumented code reports through.  All
    operations are no-ops when no sink is installed on the calling
    domain, so un-instrumented use of the library costs one
    domain-local read per probe. *)

module Scope : sig
  val current : unit -> t option
  (** The sink installed on the calling domain, if any. *)

  val with_sink : t -> (unit -> 'a) -> 'a
  (** [with_sink sink f] installs [sink] on the calling domain for the
      dynamic extent of [f], restoring the previous sink (or absence)
      afterwards, exceptions included. *)

  val add : string -> int -> unit
  val incr : string -> unit
  val gauge_add : string -> int -> unit
  val gauge_observe : string -> int -> unit

  val with_span : string -> (unit -> 'a) -> 'a
  (** Like the top-level [with_span] on the current sink; just runs
      the function when no sink is installed.  Additionally emits a
      {!Trace} span of the same [name] when tracing is enabled, so the
      gated [span.<name>] counters and the timeline slices always
      agree. *)
end
