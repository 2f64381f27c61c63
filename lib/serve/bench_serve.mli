(** Request-mix replay behind [oqsc bench-serve]: the load generator
    that measures a served deployment.

    A {e mix} is a file of newline-delimited request envelopes — the
    NDJSON transport's input, committed under [examples/serve_mix.ndjson]
    — replayed either against an in-process {!Server.t} (default; no
    sockets, fully deterministic payloads) or over the length-prefixed
    Unix-domain transport of a running [oqsc serve --socket] process,
    optionally fanned across several concurrent connections
    ([~clients]).

    Every reply is strictly re-decoded through {!Protocol.reply_of_json}
    before it counts, so a reply carrying an undocumented envelope key,
    error code, or type fails the replay — this is the mechanical check
    behind docs/PROTOCOL.md's "no undocumented reply key" guarantee,
    and CI runs it on every push.  Socket replays additionally verify
    the per-connection ordering guarantee: each connection's ok replies
    must arrive in the order their requests were sent (immediate error
    replies may overtake; see PROTOCOL.md).

    After the mix (all repeats), the replayer issues its own [stats]
    request and a v2 [metrics] request — so every replay also exercises
    version negotiation — and reports the server-side p50/p99 latency
    over completed [run]/[sweep] requests next to the client-side
    throughput.  The scraped metrics payload must be a well-formed
    [oqsc-metrics] v1 document or the replay fails.  Ids beginning with
    ["bench."] are reserved for these internal requests (stats/metrics
    capture, shutdown, per-connection sync barriers); a mix must not
    use them, and must not contain [shutdown] (pass [~shutdown:true] to
    stop the server after the replay instead). *)

type report = {
  requests : int;  (** mix envelopes sent, across all repeats *)
  replies : int;  (** mix replies received (internal bench.* excluded) *)
  ok : int;
  errors : int;
  wall_ms : float;  (** client-side wall clock for the whole replay *)
  throughput_rps : float;  (** [requests / wall] in requests per second *)
  stats : Experiments.Json.t;
      (** the server's [stats] payload after the replay — p50/p99 live
          here (docs/PROTOCOL.md, "stats") *)
  metrics : Experiments.Json.t;
      (** the server's [oqsc-metrics] snapshot scraped right after
          [stats] — the end-of-run counter/gauge/histogram state CI's
          accounting gates read *)
}

val check_metrics_doc : Experiments.Json.t -> (unit, string) result
(** [Ok ()] iff the value is an [oqsc-metrics] v1 document whose every
    metric has exactly its type's keys: [name], [type] and [value] for
    a counter or gauge; [name], [type], [count], [sum] and [buckets]
    for a histogram, each bucket being exactly [{count, le}].  An
    [Error] names the offending path. *)

val load_mix : string -> (string list, string) result
(** Read a mix file into its non-blank lines.  [Error] on I/O failure
    or an empty mix. *)

val replay_in_process :
  ?payload_dir:string ->
  ?repeat:int ->
  ?capacity:int ->
  ?batch:int ->
  ?domains:int ->
  string list ->
  (report, string) result
(** Replay the lines against a fresh in-process engine ([capacity],
    [batch], [domains] as {!Server.create}).  [repeat] (default 1)
    replays the whole mix that many times back to back — the sustained-
    throughput knob.  [payload_dir] writes every completed [run]/[sweep]
    payload as canonical pretty JSON to [DIR/<request-id>.json]
    (creating [DIR]), which is what CI [cmp]s against one-shot CLI
    output. *)

val replay_socket :
  ?payload_dir:string ->
  ?repeat:int ->
  ?shutdown:bool ->
  ?clients:int ->
  socket:string ->
  string list ->
  (report, string) result
(** Replay over a live [oqsc serve --socket] server.  With [clients]
    = 1 (default): one connection, one frame per envelope, written from
    a sender thread while the main thread drains reply frames (so a
    large [repeat] cannot deadlock on socket buffers).  With [clients]
    > 1: the mix is partitioned round-robin across that many concurrent
    connections, each replaying its slice [repeat] times and closing
    with a reserved sync barrier so the shared queue always drains;
    every connection's replies are strictly validated and checked for
    per-connection ordering, and the aggregate report sums all
    connections.  [shutdown] (default false) sends a final [shutdown]
    request (on the control connection when [clients] > 1) and waits
    for its reply — the clean way for CI to stop the background server
    it started. *)

val to_json : report -> Experiments.Json.t
(** The report as a JSON object ([kind] "oqsc-bench-serve", version 2):
    the counters and client-side timings above plus the server's
    [stats] and [metrics] payloads verbatim.  Telemetry, not a gated
    document — wall clocks vary run to run; CI gates [stats.p99_ms]
    against a committed baseline with a deliberately loose factor, and
    the [metrics] counters for monotonicity and the accounting
    identity. *)

val print : Format.formatter -> report -> unit
(** Render a report: sent/reply counts, client-side wall clock and
    throughput, and the server-side p50/p99 from {!report.stats}. *)
