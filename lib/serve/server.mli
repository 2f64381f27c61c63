(** The long-lived request/reply engine behind [oqsc serve].

    One {!t} owns a bounded admission queue ({!Queue}), latency
    accounting, and the dispatch path onto the experiment registry.
    The engine itself is transport-free and thread-safe: a single
    mutex guards the queue, the counters, and the latency ring, and
    every admitted request carries the {e reply sink} of whoever
    submitted it, so a flush forced by one connection routes each
    reply back to the connection that owns it.  The two wire
    transports ({!serve_channels} for newline-delimited JSON on
    stdin/stdout, {!serve_socket} for length-prefixed frames on a
    Unix-domain socket with one thread per client) are thin loops over
    it, as are the in-process replay of [bench-serve] and the test
    suite.

    {2 Batching semantics (normative: docs/PROTOCOL.md)}

    [run] and [sweep] requests are {e admitted}, not answered: they
    enter the queue and their replies appear at the next {e flush},
    which happens when the queue reaches the batch size, when a control
    request ([ping]/[stats]/[shutdown] — barriers) arrives on {e any}
    connection, or at end of input.  A flush executes the whole batch
    across domains via [Mathx.Parallel.map_chunks] — one request per
    chunk, exactly the one-shot CLI's scheduling — and emits the
    replies in admission order, each to its own connection.  Flushes
    are serialized by the engine lock, so replies on one connection
    are totally ordered even under concurrent clients.  Admission to a
    full queue is answered immediately with a [queue_full] error
    reply: backpressure is explicit and never blocks the connection.

    {2 Determinism}

    A [run] reply's payload is [Experiments.Registry.document], a pure
    function of (exp, quick, seed) — byte-identical to
    [run-all --only exp] output; a [sweep] payload likewise matches
    [space-audit --shard].  Batching, queue capacity, domain counts,
    client counts, and request interleaving affect only latency
    envelopes ([wall_ms]), never a payload byte.

    {2 Telemetry}

    Per-request [Obs.Trace] spans ([serve.admit] on the connection
    thread, [serve.request] on the dispatching domain, tied together by
    a flow arrow per request; [serve.flush] around each batch) feed the
    latency accounting that [stats] replies serve as p50/p99 over a
    bounded window of the most recent {!stats_window} completed
    requests.  The engine also feeds an [Obs.Metrics] registry
    (counters [serve_requests_total], [serve_replies_ok_total],
    [serve_replies_error_total], [serve_rejected_total],
    [serve_dropped_total], [serve_flushes_total]; gauges
    [serve_queue_depth], [serve_queue_peak],
    [serve_connections_active], [trace_dropped_events]; latency/batch
    histograms) and, when [create] is given a {!Reqlog.t}, writes one
    structured log event per request lifecycle transition.  All of it
    is write-only with respect to the gated JSON outputs, and the
    accounting identity [requests_total = replies_ok + replies_error +
    rejected + dropped] holds at every [metrics] reply because a
    request is counted and bucketed in one locked step. *)

type t

val default_capacity : int
(** Admission-queue capacity when [create] is not told otherwise: 64. *)

val default_batch : int
(** Flush threshold when [create] is not told otherwise: 8. *)

val default_stats_window : int
(** Latency-ring size when [create] is not told otherwise: 1024.  The
    ring bounds the engine's per-request memory: a server that has
    completed millions of requests still holds exactly this many
    latencies. *)

val default_max_clients : int
(** Concurrent-connection cap when {!serve_socket} is not told
    otherwise: 16. *)

val create :
  ?capacity:int ->
  ?batch:int ->
  ?stats_window:int ->
  ?domains:int ->
  ?registry:Obs.Metrics.registry ->
  ?log:Reqlog.t ->
  unit ->
  t
(** A fresh engine.  [capacity] bounds the admission queue ([>= 1]);
    [batch] ([>= 1]) is the queue length that triggers a flush;
    [stats_window] ([>= 1]) bounds the latency ring behind p50/p99;
    [domains] caps the parallel runner (default:
    [Mathx.Parallel.recommended_domains]); [registry] receives the
    engine's metrics (default [Obs.Metrics.default] — every serve
    counter and gauge is pre-registered at zero so scrapes see the
    full name set before any traffic); [log], when given, receives one
    {!Reqlog} event per request lifecycle transition.  A [batch]
    larger than [capacity] disables threshold flushes — control
    barriers and end of input become the only flush points, which is
    the configuration under which [queue_full] backpressure is
    observable (and how the test suite exercises it).
    @raise Invalid_argument if [capacity < 1], [batch < 1], or
    [stats_window < 1]. *)

type outcome = {
  replies : Protocol.reply list;
      (** Every reply this submission forced out, in emission order:
          flushed batch replies first (admission order), then the
          control reply when the submission was a control request.
          Empty when the request was only admitted. *)
  stop : bool;  (** [true] exactly once: after a [shutdown] reply. *)
}

(** {2 Routed interface (concurrent transports)}

    Each submission names the reply sink of its connection; replies
    appear on whichever sink owns the request that produced them, under
    the engine lock, so per-connection reply order is exactly admission
    order.  Because delivery holds the engine lock, sinks must never
    block — the socket transport's sinks only enqueue the encoded
    frame into a bounded per-connection outbox that a dedicated writer
    thread drains outside the lock.  A sink that raises is treated as
    a dead connection: its reply is dropped and the rest of the flush
    proceeds. *)

val submit_routed :
  t -> ?conn:int -> reply:(Protocol.reply -> unit) -> Protocol.request -> bool
(** Feed one decoded request through admission/batching/dispatch,
    routing every forced-out reply to its owner.  [conn] (default 0)
    is the connection id stamped on this request's log events.
    Returns [true] exactly when the request was a [shutdown] (after
    its reply was delivered). *)

val submit_line_routed :
  t -> ?conn:int -> reply:(Protocol.reply -> unit) -> string -> bool
(** {!submit_routed} over [Protocol.parse_line]; a rejected line draws
    the matching error reply on [reply] and never stops the server. *)

val flush_routed : t -> unit
(** End of one connection's input: flush whatever is queued, routing
    each reply to the connection that owns it (a dead connection's own
    replies are dropped by its sink — and counted, see
    [serve_dropped_total]). *)

val reply_transport_error :
  t -> ?conn:int -> reply:(Protocol.reply -> unit) -> string -> unit
(** Answer a transport-level violation (socket framing): deliver a
    [frame_error] reply on [reply] and account for it exactly like any
    other rejected input — one [errors] stat, one [requests_total],
    one [rejected] log event. *)

(** {2 Sequential interface (stdin/stdout, in-process replay)} *)

val submit : t -> Protocol.request -> outcome
(** Feed one decoded request through admission/batching/dispatch and
    collect every forced-out reply as the outcome. *)

val submit_line : t -> string -> outcome
(** {!submit} over [Protocol.parse_line]; a rejected line yields the
    matching error reply (and never stops the server). *)

val finish : t -> Protocol.reply list
(** End of input: flush whatever is still queued and return those
    replies, in admission order. *)

(** {2 Stats} *)

val stats_payload : t -> Experiments.Json.t
(** The [stats] reply payload, documented key by key in
    docs/PROTOCOL.md: completed/errors/rejected counts, p50/p99
    latency over the stats window, queue capacity and high-water mark,
    trace-ring drop count, uptime. *)

val metrics_payload : t -> Experiments.Json.t
(** The [metrics] reply payload: the engine registry's snapshot as the
    [oqsc-metrics] document ([Experiments.Metrics_doc.document]), with
    the state gauges (queue depth/peak, trace drops) refreshed under
    the engine lock so the scrape is self-consistent. *)

val metrics_text : t -> string
(** The same snapshot as {!metrics_payload}, rendered in Prometheus
    text exposition format ([Obs.Metrics.to_prometheus]) — what
    [oqsc serve --metrics-file] writes. *)

val stats_window : t -> int
(** The engine's latency-ring size. *)

val recorded_latencies : t -> int
(** How many latencies the ring currently holds:
    [min completed (stats_window t)].  Regression hook for the bounded-
    memory contract — this value never exceeds {!stats_window}
    however many requests the server has completed. *)

(** {2 Transports} *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** The NDJSON transport: read one request per line, write one reply
    per line (compact JSON, LF-terminated, flushed per submission).
    Blank lines are ignored.  Returns after a [shutdown] reply or at
    EOF (which flushes the queue first). *)

val serve_socket : ?max_clients:int -> t -> string -> unit
(** The Unix-domain transport: bind [path] (unlinking a stale socket
    file first) and serve up to [max_clients] concurrent connections
    (default {!default_max_clients}), one thread per client, all
    feeding the shared engine; when every slot is taken, further
    connections wait in the listen backlog until a slot frees.  Each
    frame body (4-byte big-endian length + body; see
    {!Protocol.read_frame}) is one request envelope; each reply is one
    frame, written to the connection that owns the request.  Accepted
    descriptors are close-on-exec and the accept loop retries on
    [EINTR], so a stray signal never kills the server; [SIGPIPE] is
    ignored for the process, so a peer that vanishes with replies in
    flight surfaces as an I/O error on its own writer thread, never as
    a process-killing signal.

    Reply frames are written by a per-connection writer thread fed
    from a bounded outbox (256 frames), so socket writes never happen
    under the engine lock and a client that stops reading cannot stall
    the engine, another connection, or shutdown.  A connection whose
    outbox overflows, whose socket write fails, or whose peer accepts
    no bytes for 10 seconds is treated as disconnected: its remaining
    replies are dropped and its socket is shut down.

    A client disconnect flushes the queue (that client's own replies
    are dropped; other clients' replies are delivered normally) and
    frees its slot.  A [shutdown] request answers the requesting
    client, stops the accept loop, drains every live connection (each
    observes EOF after its remaining replies), and removes the socket
    file.  An oversized declared frame length draws a [frame_error]
    reply after which the connection is closed.
    @raise Invalid_argument if [max_clients < 1]. *)
