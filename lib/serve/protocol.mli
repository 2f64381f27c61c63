(** The serve wire protocol, versions 1 and 2 — codec layer.

    This module is the executable half of [docs/PROTOCOL.md], the
    normative specification of every byte [oqsc serve] reads or writes:
    the request/reply envelopes, the error codes, the compact one-line
    JSON rendering used by the NDJSON transport, and the length-prefixed
    frame codec used by the Unix-domain-socket transport.  The JSON
    values themselves are [Experiments.Json.t], so payloads inherit the
    repository's canonical emitter (sorted keys, fixed float
    formatting) and a served payload re-serializes to the same bytes
    the one-shot CLI writes.

    Negotiation is per-request: a request's [v] selects the op table it
    decodes against — version 2 is version 1 plus the [metrics] op,
    with byte-identical envelopes otherwise — and every reply echoes
    the [v] of the request it answers, so v1 clients keep receiving
    exactly the version-1 bytes they always did.

    Decoding is {e strict} in both directions: an envelope carrying a
    key this version does not define is rejected, which is how CI
    enforces that no undocumented reply key ever reaches the wire. *)

val version : int
(** The baseline protocol version: [1].  Every op except [metrics] is
    defined at this version, and it is the [v] error replies fall back
    to when the rejected envelope's own version is unusable. *)

val metrics_version : int
(** The version that introduces the [metrics] op: [2]. *)

val versions : int list
(** Every version this codec accepts, ascending: [[1; 2]].  A request
    [v] outside this list draws [`Unsupported_version]. *)

val max_frame : int
(** Upper bound, in bytes, on the body of one length-prefixed frame
    (16 MiB).  A declared length beyond this is a framing violation:
    the server replies [`Frame_error] and closes the connection. *)

(** {1 Requests} *)

type op =
  | Run of { exp : string; quick : bool; seed : int }
      (** Run one registry experiment; the reply payload is the
          [oqsc-experiments] document [run-all --only exp] would emit
          at the same (quick, seed).  Defaults: quick = false,
          seed = 2006. *)
  | Sweep of { index : int; count : int; quick : bool; seed : int }
      (** Measure shard [index]/[count] of the space-audit k sweep; the
          reply payload is the [oqsc-space-audit] shard document
          [space-audit --shard index/count] would emit. *)
  | Ping  (** Liveness probe; replies [{"pong": true}]. *)
  | Stats  (** Latency/throughput accounting since server start. *)
  | Metrics
      (** v2 barrier: drain the queue, then reply with the process-wide
          [oqsc-metrics] snapshot document.  Only decodable when the
          request carries [v >= metrics_version]. *)
  | Shutdown  (** Drain the queue, reply, then stop the server. *)

type request = { v : int; id : string; op : op }
(** One admitted request.  [v] is the protocol version the envelope was
    decoded against (an element of {!versions}); [id] is the
    client-chosen correlation token (matching [[A-Za-z0-9._-]{1,64}]).
    Every reply echoes both the version and the id of the request it
    answers. *)

(** {1 Replies} *)

type error_code =
  | Parse_error  (** the line/frame body is not valid JSON *)
  | Bad_request  (** envelope shape: missing/ill-typed/unknown fields, bad id *)
  | Unsupported_version  (** [v] is an int but not in {!versions} *)
  | Unknown_op  (** [op] is a string the request's version does not define *)
  | Unknown_experiment  (** [run] named an id outside the registry *)
  | Bad_shard  (** [sweep] indices violate [0 <= index < count] *)
  | Queue_full  (** backpressure: admission queue at capacity *)
  | Frame_error  (** length-prefixed transport: oversized frame *)
  | Internal_error  (** the dispatched work raised; message carries the exception *)

type reply =
  | Ok_reply of {
      v : int;
      id : string;
      op : string;
      payload : Experiments.Json.t;
      wall_ms : float;
    }
      (** Success envelope: [v] echoes the request's version, [op] names
          the request's operation, [payload] carries the operation's
          document, [wall_ms] is the server-side wall clock spent
          answering (telemetry — never part of the payload byte-identity
          contract). *)
  | Error_reply of { v : int; id : string option; code : error_code; message : string }
      (** Failure envelope.  [v] echoes the rejected request's version
          when one could be recovered ({!version} otherwise); [id] is
          [None] exactly when the request was too malformed to recover
          one (it serializes as JSON [null]). *)

val code_to_string : error_code -> string
(** The wire name of a code, e.g. [Queue_full] -> ["queue_full"]. *)

val op_name : op -> string
(** The wire name of an operation: ["run"], ["sweep"], ["ping"],
    ["stats"], ["metrics"], or ["shutdown"] — what an {!Ok_reply}'s
    [op] field echoes. *)

type decode_error = {
  v : int;
  id : string option;
  code : error_code;
  message : string;
}
(** A rejected request, ready to answer: [code]/[message] say why, [v]
    is the version the error reply should carry (the envelope's own [v]
    when it was a well-formed supported version, {!version} otherwise),
    and [id] is the correlation token when one could still be recovered
    from the malformed envelope ([None] otherwise — the reply's [id]
    is then JSON [null]). *)

(** {1 Envelope codec} *)

val request_to_json : request -> Experiments.Json.t

val reply_to_json : reply -> Experiments.Json.t
val reply_of_json : Experiments.Json.t -> (reply, string) result
(** Strict decode of a reply envelope — the client-side validator
    [bench-serve] runs on every reply, so an undocumented key or code
    on the wire fails the replay rather than passing silently. *)

(** {1 Framing} *)

val to_line : Experiments.Json.t -> string
(** [Experiments.Json.to_line]: the canonical emitter's compact
    single-line form (no newline), the NDJSON transport's line body.
    [payload] objects re-serialize to the pretty form byte-identically
    after a round trip. *)

val parse_line : string -> (request, decode_error) result
(** Strict decode of one NDJSON request line.  The error carries the
    code the server must reply with — [Parse_error] for a JSON syntax
    error (with no recoverable id), otherwise [Bad_request],
    [Unsupported_version], [Unknown_op], [Unknown_experiment], or
    [Bad_shard] — and a human-readable message.  A [Bad_request]
    message names the JSON path at fault (["exp: expected a string, got
    number"], ["unknown key \"extra\""]); a key given twice is a
    [Bad_request] naming it. *)

val write_frame : out_channel -> string -> unit
(** Write one length-prefixed frame: a 4-byte big-endian body length
    followed by the body.  @raise Invalid_argument if the body exceeds
    {!max_frame}. *)

val read_frame : in_channel -> (string option, string) result
(** Read one frame: [Ok None] on clean EOF at a frame boundary,
    [Ok (Some body)] otherwise.  [Error _] on a framing violation — a
    declared length that is negative or beyond {!max_frame}, or EOF in
    the middle of a frame — after which the stream is unusable. *)
