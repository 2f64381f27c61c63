(* The serve engine: bounded admission, batched dispatch, latency
   accounting, and the two wire transports.  Protocol semantics live in
   docs/PROTOCOL.md; payload determinism is inherited wholesale from
   Registry.document / Space_audit.shard_to_json, so this module never
   constructs a gated byte itself.

   Concurrency model: one engine is shared by every transport
   connection.  All engine state — the admission queue, the latency
   ring, the counters — is guarded by a single mutex, and every queued
   request carries the reply sink of the connection that admitted it,
   so a flush triggered by one connection delivers each reply to the
   connection that owns it.  Dispatch itself (the parallel batch) runs
   under the engine lock: flushes are serialized, which is exactly what
   keeps admission order, the batching barriers, and the byte-identity
   contract intact under arbitrary client interleaving.  The payload
   cache is engine state like the rest: only a flush touches it, under
   the same lock, so it needs no lock of its own.

   Telemetry discipline: the metrics registry, the request log, and the
   trace spans below are all write-only with respect to the gated JSON
   outputs — with them on or off, payload bytes are identical.  The
   metrics accounting identity (requests_total = replies_ok +
   replies_error + rejected + dropped) holds at every instant because a
   request's requests_total increment and its outcome increment happen
   together under the engine lock, in [count_outcome]. *)

module Json = Experiments.Json

let default_capacity = 64
let default_batch = 8
let default_stats_window = 1024

(* How many completed run/sweep payloads an engine keeps.  A payload is
   a pure function of its decoded op (the byte-identity contract), so a
   stored one answers a repeat exactly; FIFO eviction bounds the memory
   however many distinct requests a long-lived server sees. *)
let cache_entries = 256

type sink = Protocol.reply -> unit

(* One admitted request, with everything its telemetry needs: the
   connection that owns the reply, the admission timestamp the latency
   histogram measures from, and the flow id tying the admission span to
   the dispatch span in the trace. *)
type pending = {
  preq : Protocol.request;
  psink : sink;
  pconn : int;
  admitted_ns : int64;
  flow : int;
}

type t = {
  queue : pending Queue.t;
  batch : int;
  domains : int option;
  started_ns : int64;
  lock : Mutex.t;
  window : int;
  lat : float array;  (* ring of the last [window] completed latencies *)
  registry : Obs.Metrics.registry;
  log : Reqlog.t option;
  cache : (Protocol.op, Json.t) Hashtbl.t;
  cache_order : Protocol.op Stdlib.Queue.t;  (* cached keys, oldest first *)
  mutable lat_count : int;  (* completed run/sweep total, monotone *)
  mutable completed : int;
  mutable errors : int;  (* non-backpressure error replies *)
  mutable rejected : int;  (* queue_full error replies *)
  mutable flow_seq : int;  (* trace flow-id source, engine-lock guarded *)
  mutable seq_out : Protocol.reply list;  (* sequential-transport sink *)
}

let counter_names =
  [
    "serve_requests_total";
    "serve_replies_ok_total";
    "serve_replies_error_total";
    "serve_rejected_total";
    "serve_dropped_total";
    "serve_flushes_total";
    "serve_cache_hits_total";
  ]

let gauge_names =
  [
    "serve_queue_depth";
    "serve_queue_peak";
    "serve_connections_active";
    "trace_dropped_events";
  ]

let create ?(capacity = default_capacity) ?(batch = default_batch)
    ?(stats_window = default_stats_window) ?domains
    ?(registry = Obs.Metrics.default) ?log () =
  if batch < 1 then invalid_arg "Serve.Server.create: batch < 1";
  if stats_window < 1 then invalid_arg "Serve.Server.create: stats_window < 1";
  (* Pre-register every counter and gauge so a scrape sees the full
     name set from the first reply, zeros included — CI greps for
     specific names and must not depend on traffic having happened. *)
  List.iter (fun n -> Obs.Metrics.counter_add ~registry n 0) counter_names;
  List.iter (fun n -> Obs.Metrics.gauge_add ~registry n 0) gauge_names;
  (* The observe hook runs at every admit/drain, under the engine lock,
     so the depth gauge tracks the queue exactly, not at sample points. *)
  let peak = ref 0 in
  let observe len =
    Obs.Metrics.gauge_set ~registry "serve_queue_depth" len;
    if len > !peak then begin
      peak := len;
      Obs.Metrics.gauge_set ~registry "serve_queue_peak" len
    end
  in
  {
    queue = Queue.create ~capacity ~observe ();
    batch;
    domains;
    started_ns = Obs.Trace.now_ns ();
    lock = Mutex.create ();
    window = stats_window;
    lat = Array.make stats_window 0.0;
    registry;
    log;
    cache = Hashtbl.create cache_entries;
    cache_order = Stdlib.Queue.create ();
    lat_count = 0;
    completed = 0;
    errors = 0;
    rejected = 0;
    flow_seq = 0;
    seq_out = [];
  }

type outcome = { replies : Protocol.reply list; stop : bool }

(* --------------------------------------------------------- telemetry *)

let ms_since t0 = Int64.to_float (Int64.sub (Obs.Trace.now_ns ()) t0) /. 1e6

let log_event t ~event ?code ~conn ~id ~op ~latency_ms () =
  match t.log with
  | None -> ()
  | Some l ->
      Reqlog.event l ~event ?code ~conn ~id ~op
        ~queue_depth:(Queue.length t.queue) ~latency_ms ()

(* A sink that raises (a connection torn down mid-write, an overflowed
   outbox) must not abort the flush: the remaining requests in the
   batch still own replies.  The boolean is whether delivery landed. *)
let deliver (sink : sink) reply = try sink reply; true with _ -> false

(* The one place the accounting counters move: a request enters
   requests_total at the same locked instant its outcome bucket
   increments, so the identity requests_total = replies_ok +
   replies_error + rejected + dropped never has a window where it is
   violated — a metrics barrier (which flushes first) always snapshots
   it exact.  [rejection] routes queue_full refusals to the rejected
   bucket regardless of whether the refusal reply itself landed. *)
let count_outcome t ?(rejection = false) ~delivered reply =
  let bump name = Obs.Metrics.counter_incr ~registry:t.registry name in
  bump "serve_requests_total";
  if rejection then bump "serve_rejected_total"
  else if not delivered then bump "serve_dropped_total"
  else
    match reply with
    | Protocol.Ok_reply _ -> bump "serve_replies_ok_total"
    | Protocol.Error_reply _ -> bump "serve_replies_error_total"

(* ---------------------------------------------------------- dispatch *)

(* The document a run/sweep op names: exactly what the one-shot CLI
   emits at the same arguments. *)
let document = function
  | Protocol.Run { exp; quick; seed } ->
      Experiments.Registry.document ~quick ~seed exp
  | Protocol.Sweep { index; count; quick; seed } ->
      let rows =
        Experiments.Space_audit.rows ~quick ~shard:(index, count) ~seed ()
      in
      Experiments.Space_audit.shard_to_json ~shard:(index, count) ~seed ~quick
        rows
  | Protocol.Ping | Protocol.Stats | Protocol.Metrics | Protocol.Shutdown ->
      (* Control ops never enter the queue (see [submit]). *)
      assert false

(* One queued request to its reply, on whichever domain runs it.
   [produce] is the request's work: the document computation for a
   miss, the lookup for a repeat; [wall_ms] times exactly that.  The
   trace span mirrors the registry's experiment.<id> spans: opt-in,
   wall-clock, write-only w.r.t. everything gated.  The flow_end inside
   the span is the arrowhead of the admission-to-dispatch flow arrow
   started in [submit_locked], so every admitted request gets one,
   however it was answered. *)
let answer t (p : pending) produce : Protocol.reply =
  let req = p.preq in
  let t0 = Obs.Trace.now_ns () in
  match
    Obs.Trace.with_span "serve.request"
      ~args:
        [
          ("id", Obs.Trace.Str req.Protocol.id);
          ("op", Obs.Trace.Str (Protocol.op_name req.Protocol.op));
        ]
      (fun () ->
        Obs.Trace.flow_end ~id:p.flow "serve.request";
        produce ())
  with
  | payload ->
      let wall_ms = ms_since t0 in
      let hist =
        match req.Protocol.op with
        | Protocol.Run _ -> "serve_run_latency_ms"
        | _ -> "serve_sweep_latency_ms"
      in
      Obs.Metrics.observe ~registry:t.registry hist wall_ms;
      Protocol.Ok_reply
        {
          v = req.Protocol.v;
          id = req.Protocol.id;
          op = Protocol.op_name req.Protocol.op;
          payload;
          wall_ms;
        }
  | exception e ->
      Protocol.Error_reply
        {
          v = req.Protocol.v;
          id = Some req.Protocol.id;
          code = Protocol.Internal_error;
          message = Printexc.to_string e;
        }

let store t op payload =
  if Hashtbl.length t.cache >= cache_entries then
    Hashtbl.remove t.cache (Stdlib.Queue.pop t.cache_order);
  Hashtbl.replace t.cache op payload;
  Stdlib.Queue.push op t.cache_order

(* The request answered from a stored payload, or [None] on a miss. *)
let from_cache t (p : pending) =
  let op = p.preq.Protocol.op in
  if Hashtbl.mem t.cache op then begin
    Obs.Metrics.counter_incr ~registry:t.registry "serve_cache_hits_total";
    Some (answer t p (fun () -> Hashtbl.find t.cache op))
  end
  else None

(* A drained batch to one reply per request, in admission order.  On
   the calling domain, repeats of stored payloads are answered from the
   cache, and only the first occurrence of each missed op is kept.
   Those distinct misses run across domains — one per chunk, exactly
   the one-shot CLI's scheduling; the chunk PRNGs are unused, since
   every payload derives its randomness from the request's own seed —
   and their payloads are stored (an internal_error never is).  The
   later occurrences of a missed op are then ordinary hits; if its
   first occurrence failed, they are computed in turn. *)
let resolve t (batch : pending array) =
  let replies = Array.map (from_cache t) batch in
  let misses = ref [] in
  Array.iteri
    (fun i reply ->
      let op = batch.(i).preq.Protocol.op in
      if
        Option.is_none reply
        && not (List.exists (fun j -> batch.(j).preq.Protocol.op = op) !misses)
      then misses := i :: !misses)
    replies;
  let misses = Array.of_list (List.rev !misses) in
  if Array.length misses > 0 then
    Mathx.Parallel.map_chunks ?domains:t.domains ~chunks:(Array.length misses)
      (fun ~chunk ~rng:_ ->
        let p = batch.(misses.(chunk)) in
        answer t p (fun () -> document p.preq.Protocol.op))
      ~rng:(Mathx.Rng.create 0)
    |> List.iteri (fun j reply ->
           let i = misses.(j) in
           replies.(i) <- Some reply;
           match reply with
           | Protocol.Ok_reply { payload; _ } ->
               store t batch.(i).preq.Protocol.op payload
           | Protocol.Error_reply _ -> ());
  Array.mapi
    (fun i reply ->
      match reply with
      | Some reply -> reply
      | None -> (
          let p = batch.(i) in
          match from_cache t p with
          | Some reply -> reply
          | None -> answer t p (fun () -> document p.preq.Protocol.op)))
    replies

(* The engine lock is held at every [record]/[deliver] site below, so
   the counters, the ring, and per-connection reply order are all
   updated atomically with respect to other connections. *)

let record t = function
  | Protocol.Ok_reply { wall_ms; _ } ->
      t.completed <- t.completed + 1;
      t.lat.(t.lat_count mod t.window) <- wall_ms;
      t.lat_count <- t.lat_count + 1
  | Protocol.Error_reply _ -> t.errors <- t.errors + 1

(* Flush the queue as one batch ([resolve]), then deliver each reply to
   its request's own connection, in admission order. *)
let flush_locked t =
  match Queue.drain t.queue with
  | [] -> ()
  | batch ->
      let arr = Array.of_list batch in
      let n = Array.length arr in
      let t0 = Obs.Trace.now_ns () in
      Obs.Metrics.counter_incr ~registry:t.registry "serve_flushes_total";
      Obs.Metrics.observe ~registry:t.registry "serve_flush_batch"
        (float_of_int n);
      let replies =
        Obs.Trace.with_span "serve.flush"
          ~args:[ ("batch", Obs.Trace.Int n) ]
          (fun () -> resolve t arr)
      in
      Obs.Metrics.observe ~registry:t.registry "serve_flush_ms" (ms_since t0);
      Array.iteri
        (fun i reply ->
          let p = arr.(i) in
          let id = Some p.preq.Protocol.id in
          let op = Some (Protocol.op_name p.preq.Protocol.op) in
          let lat () = ms_since p.admitted_ns in
          Obs.Metrics.observe ~registry:t.registry "serve_request_latency_ms"
            (lat ());
          log_event t ~event:"flushed" ~conn:p.pconn ~id ~op
            ~latency_ms:(lat ()) ();
          record t reply;
          let delivered = deliver p.psink reply in
          count_outcome t ~delivered reply;
          log_event t
            ~event:(if delivered then "replied" else "dropped")
            ~conn:p.pconn ~id ~op ~latency_ms:(lat ()) ())
        replies

(* ------------------------------------------------------------- stats *)

(* Nearest-rank percentile over the completed-request latencies. *)
let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))

let stats_window t = t.window
let recorded_latencies t = min t.lat_count t.window
let cached_payloads t = Mutex.protect t.lock (fun () -> Hashtbl.length t.cache)

let stats_locked t =
  let sorted = Array.sub t.lat 0 (recorded_latencies t) in
  Array.sort Float.compare sorted;
  Json.Obj
    [
      ("completed", Json.Int t.completed);
      ("errors", Json.Int t.errors);
      ("rejected", Json.Int t.rejected);
      ("p50_ms", Json.Float (percentile sorted 50.0));
      ("p99_ms", Json.Float (percentile sorted 99.0));
      ("queue_capacity", Json.Int (Queue.capacity t.queue));
      ("queue_peak", Json.Int (Queue.peak t.queue));
      ("trace_dropped", Json.Int (Obs.Trace.dropped ()));
      ("uptime_ms", Json.Float (ms_since t.started_ns));
    ]

let stats_payload t = Mutex.protect t.lock (fun () -> stats_locked t)

(* ----------------------------------------------------------- metrics *)

(* Gauges that track state rather than events are refreshed at the
   snapshot, under the engine lock, so every scrape is self-consistent
   with the queue it describes. *)
let metrics_snapshot_locked t =
  Obs.Metrics.gauge_set ~registry:t.registry "serve_queue_depth"
    (Queue.length t.queue);
  Obs.Metrics.gauge_set ~registry:t.registry "serve_queue_peak"
    (Queue.peak t.queue);
  Obs.Metrics.gauge_set ~registry:t.registry "trace_dropped_events"
    (Obs.Trace.dropped ());
  Obs.Metrics.snapshot ~registry:t.registry ()

let metrics_text t =
  Mutex.protect t.lock (fun () ->
      Obs.Metrics.to_prometheus (metrics_snapshot_locked t))

(* ---------------------------------------------------------- admission *)

let control_reply (req : Protocol.request) payload t0 =
  Protocol.Ok_reply
    {
      v = req.Protocol.v;
      id = req.Protocol.id;
      op = Protocol.op_name req.Protocol.op;
      payload;
      wall_ms = ms_since t0;
    }

(* Control requests are barriers: the pending batch flushes first, so a
   ping also bounds the staleness of queued work — and a metrics
   snapshot never has admitted-but-undispatched requests outside the
   accounting identity. *)
let control t ~conn ~(reply : sink) (req : Protocol.request) payload_fn =
  flush_locked t;
  let t0 = Obs.Trace.now_ns () in
  let r = control_reply req (payload_fn ()) t0 in
  let delivered = deliver reply r in
  count_outcome t ~delivered r;
  log_event t
    ~event:(if delivered then "replied" else "dropped")
    ~conn ~id:(Some req.Protocol.id)
    ~op:(Some (Protocol.op_name req.Protocol.op))
    ~latency_ms:(ms_since t0) ()

let submit_locked t ~conn ~(reply : sink) (req : Protocol.request) : bool =
  match req.Protocol.op with
  | Protocol.Run _ | Protocol.Sweep _ ->
      let opn = Protocol.op_name req.Protocol.op in
      t.flow_seq <- t.flow_seq + 1;
      let p =
        {
          preq = req;
          psink = reply;
          pconn = conn;
          admitted_ns = Obs.Trace.now_ns ();
          flow = t.flow_seq;
        }
      in
      if Queue.admit t.queue p then begin
        (* The admission half of the flow arrow, on the connection's
           own thread; [dispatch] emits the arrowhead on whichever
           domain runs the request. *)
        Obs.Trace.with_span "serve.admit"
          ~args:
            [ ("id", Obs.Trace.Str req.Protocol.id); ("op", Obs.Trace.Str opn) ]
          (fun () -> Obs.Trace.flow_start ~id:p.flow "serve.request");
        log_event t ~event:"admitted" ~conn ~id:(Some req.Protocol.id)
          ~op:(Some opn) ~latency_ms:0.0 ();
        if Queue.length t.queue >= t.batch then flush_locked t;
        false
      end
      else begin
        t.rejected <- t.rejected + 1;
        let r =
          Protocol.Error_reply
            {
              v = req.Protocol.v;
              id = Some req.Protocol.id;
              code = Protocol.Queue_full;
              message =
                Printf.sprintf
                  "admission queue is full (capacity %d); retry after \
                   draining replies"
                  (Queue.capacity t.queue);
            }
        in
        let delivered = deliver reply r in
        count_outcome t ~rejection:true ~delivered r;
        log_event t ~event:"rejected"
          ~code:(Protocol.code_to_string Protocol.Queue_full)
          ~conn ~id:(Some req.Protocol.id) ~op:(Some opn) ~latency_ms:0.0 ();
        false
      end
  | Protocol.Ping ->
      control t ~conn ~reply req (fun () ->
          Json.Obj [ ("pong", Json.Bool true) ]);
      false
  | Protocol.Stats ->
      control t ~conn ~reply req (fun () -> stats_locked t);
      false
  | Protocol.Metrics ->
      control t ~conn ~reply req (fun () ->
          Experiments.Metrics_doc.document (metrics_snapshot_locked t));
      false
  | Protocol.Shutdown ->
      control t ~conn ~reply req (fun () ->
          Json.Obj [ ("stopping", Json.Bool true) ]);
      true

let submit_routed t ?(conn = 0) ~reply req =
  Mutex.protect t.lock (fun () -> submit_locked t ~conn ~reply req)

(* A rejected line never reached [submit_locked]: account for it here,
   with the same paired counting ([count_outcome]) every other outcome
   gets, and a [rejected] log event carrying the protocol code. *)
let reject_line_locked t ~conn ~delivered ~code ~id reply =
  t.errors <- t.errors + 1;
  count_outcome t ~delivered reply;
  log_event t ~event:"rejected" ~code:(Protocol.code_to_string code) ~conn ~id
    ~op:None ~latency_ms:0.0 ()

let submit_line_routed t ?(conn = 0) ~(reply : sink) line =
  match Protocol.parse_line line with
  | Ok req -> submit_routed t ~conn ~reply req
  | Error { Protocol.v; id; code; message } ->
      Mutex.protect t.lock (fun () ->
          let r = Protocol.Error_reply { v; id; code; message } in
          let delivered = deliver reply r in
          reject_line_locked t ~conn ~delivered ~code ~id r);
      false

let flush_routed t = Mutex.protect t.lock (fun () -> flush_locked t)

(* Transport-level violations (socket framing) look like any other
   rejected input to the telemetry: an error reply, a rejected event,
   one requests_total. *)
let reply_transport_error t ?(conn = 0) ~(reply : sink) message =
  Mutex.protect t.lock (fun () ->
      let r =
        Protocol.Error_reply
          {
            v = Protocol.version;
            id = None;
            code = Protocol.Frame_error;
            message;
          }
      in
      let delivered = deliver reply r in
      reject_line_locked t ~conn ~delivered ~code:Protocol.Frame_error ~id:None
        r)

(* The sequential transports (stdin/stdout, in-process replay) want the
   replies a submission forces out as a return value.  They run the
   routed path with a sink that accumulates into [t.seq_out]: entries
   queued by earlier submissions carry the same accumulator, so a later
   barrier's outcome picks their replies up in admission order, exactly
   the pre-concurrency behaviour. *)

let seq_sink t reply = t.seq_out <- reply :: t.seq_out

let submit t (req : Protocol.request) : outcome =
  Mutex.protect t.lock (fun () ->
      t.seq_out <- [];
      let stop = submit_locked t ~conn:0 ~reply:(seq_sink t) req in
      { replies = List.rev t.seq_out; stop })

let submit_line t line =
  match Protocol.parse_line line with
  | Ok req -> submit t req
  | Error { Protocol.v; id; code; message } ->
      Mutex.protect t.lock (fun () ->
          let r = Protocol.Error_reply { v; id; code; message } in
          reject_line_locked t ~conn:0 ~delivered:true ~code ~id r;
          { replies = [ r ]; stop = false })

let finish t =
  Mutex.protect t.lock (fun () ->
      t.seq_out <- [];
      flush_locked t;
      List.rev t.seq_out)

(* -------------------------------------------------------- transports *)

let serve_channels t ic oc =
  let write_reply reply =
    output_string oc (Protocol.to_line (Protocol.reply_to_json reply));
    output_char oc '\n'
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file ->
        List.iter write_reply (finish t);
        flush oc
    | line when String.trim line = "" -> loop ()
    | line ->
        let { replies; stop } = submit_line t line in
        List.iter write_reply replies;
        flush oc;
        if not stop then loop ()
  in
  loop ()

(* Socket transport: one reader thread per accepted connection plus a
   per-connection writer thread, all feeding the shared engine.  A
   flush on any thread may deliver to any connection, and delivery
   happens under the engine lock — so a connection's sink must never
   perform socket I/O.  It only enqueues the encoded frame into that
   connection's bounded outbox (constant-time, non-blocking); the
   writer thread drains the outbox and writes outside every lock.  A
   client that stops reading lets its outbox overflow, which marks the
   connection dead: its remaining replies are dropped and the socket
   is shut down.  One slow or vanished client therefore never stalls
   the engine, another connection, or shutdown. *)

let default_max_clients = 16

(* Undelivered replies a connection may hold before it is declared
   dead.  Normative: docs/PROTOCOL.md § Concurrency, slow readers. *)
let outbox_capacity = 256

(* Upper bound on one blocked write to a peer that accepts no bytes
   (SO_SNDTIMEO), so a dead client cannot pin its writer thread — and
   with it the shutdown drain — forever. *)
let send_timeout_s = 10.0

type conn_state = {
  reg : Mutex.t;  (* guards everything below *)
  wake : Condition.t;  (* slot freed, or shutdown began *)
  mutable stopping : bool;
  mutable conn_fds : Unix.file_descr list;  (* live connections *)
  mutable conn_threads : Thread.t list;
  mutable live : int;
  mutable next_conn : int;  (* connection-id source, 1-based *)
}

let serve_socket ?(max_clients = default_max_clients) t path =
  if max_clients < 1 then
    invalid_arg "Serve.Server.serve_socket: max_clients < 1";
  (* A peer that disconnects with replies in flight turns the writer's
     next write into EPIPE.  Under the default disposition that is a
     fatal SIGPIPE killing the whole process — every connection, not
     just the broken one — before any exception handler runs.  Ignore
     it so broken pipes surface as Sys_error on the writing thread,
     where they are handled as a dead connection. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "serve: %s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec listener;
  let st =
    {
      reg = Mutex.create ();
      wake = Condition.create ();
      stopping = false;
      conn_fds = [];
      conn_threads = [];
      live = 0;
      next_conn = 0;
    }
  in
  (* A shutdown request stops the accept loop and drains the other live
     connections: shutting down their read side lands each connection
     loop on its normal end-of-input path (flush, close), so every
     client observes the end of service as EOF after its own replies. *)
  let begin_shutdown () =
    Mutex.protect st.reg (fun () ->
        if not st.stopping then begin
          st.stopping <- true;
          List.iter
            (fun fd ->
              try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
              with Unix.Unix_error _ -> ())
            st.conn_fds;
          Condition.broadcast st.wake
        end)
  in
  let deregister fd =
    Mutex.protect st.reg (fun () ->
        st.conn_fds <- List.filter (fun fd' -> fd' != fd) st.conn_fds;
        st.live <- st.live - 1;
        Obs.Metrics.gauge_add ~registry:t.registry "serve_connections_active"
          (-1);
        Condition.broadcast st.wake)
  in
  let serve_connection (fd, conn) =
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s
     with Unix.Unix_error _ -> ());
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let olock = Mutex.create () in
    let osig = Condition.create () in
    let obuf = Queue.create ~capacity:outbox_capacity () in
    let oclosed = ref false in
    (* reader finished: writer drains, then exits *)
    let odead = ref false in
    (* unwritable or overflowed: drop replies, stop reading *)
    let mark_dead_locked () =
      if not !odead then begin
        odead := true;
        (* SHUTDOWN_ALL: the read side so the reader loop lands on its
           EOF path, the write side so a writer blocked in write(2) on
           this socket is woken with an error instead of waiting out
           the send timeout. *)
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        Condition.signal osig
      end
    in
    (* The engine calls this under its lock: enqueue only, never block.
       An outbox at capacity means the client is not draining replies;
       that is a disconnect, not a reason to wait.  A reply that cannot
       be enqueued raises, which is the signal the engine's delivery
       wrapper counts as a drop — a dead connection's losses are
       observable in the metrics, not silent. *)
    let sink reply =
      let frame = Protocol.to_line (Protocol.reply_to_json reply) in
      Mutex.protect olock (fun () ->
          if !odead || !oclosed then raise Exit
          else if Queue.admit obuf frame then Condition.signal osig
          else begin
            mark_dead_locked ();
            raise Exit
          end)
    in
    let writer () =
      let rec go () =
        let frames, stop =
          Mutex.protect olock (fun () ->
              while Queue.is_empty obuf && not !oclosed && not !odead do
                Condition.wait osig olock
              done;
              let frames = Queue.drain obuf in
              ((if !odead then [] else frames), !oclosed || !odead))
        in
        (match frames with
        | [] -> ()
        | frames -> (
            try List.iter (Protocol.write_frame oc) frames
            with Sys_error _ | Unix.Unix_error _ ->
              Mutex.protect olock (fun () -> mark_dead_locked ())));
        if not stop then go ()
      in
      go ()
    in
    let wth = Thread.create writer () in
    let rec loop () =
      match Protocol.read_frame ic with
      | exception (Sys_error _ | Unix.Unix_error _) ->
          (* A hard I/O error mid-read is a disconnect, not a server
             fault: drain like EOF. *)
          flush_routed t
      | Ok None ->
          (* Client went away (or shutdown drained us) at a frame
             boundary: flush so queued work is not silently abandoned.
             Replies for other connections route to their owners; our
             own have no reader and are dropped by the dead sink. *)
          flush_routed t
      | Error msg ->
          reply_transport_error t ~conn ~reply:sink msg;
          flush_routed t
      | Ok (Some body) ->
          if submit_line_routed t ~conn ~reply:sink body then begin_shutdown ()
          else loop ()
    in
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect olock (fun () ->
            oclosed := true;
            Condition.signal osig);
        (* The writer drains what the final flush enqueued before the
           channel closes, so a well-behaved client sees every reply it
           is owed, then EOF. *)
        Thread.join wth;
        (* Deregister before closing: the kernel may hand the accept
           loop this fd number again immediately, and the registry must
           never drop a successor connection's entry. *)
        deregister fd;
        try close_out oc with Sys_error _ -> ())
      loop
  in
  (* Block until a client slot is free; [false] once shutdown began. *)
  let slot_free () =
    Mutex.protect st.reg (fun () ->
        while st.live >= max_clients && not st.stopping do
          Condition.wait st.wake st.reg
        done;
        not st.stopping)
  in
  let rec accept_loop () =
    if slot_free () then begin
      (* Poll the listener so a shutdown raised on another thread is
         noticed within the timeout even with no connection pending. *)
      (match Unix.select [ listener ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listener with
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              (* A stray signal must not kill the server: retry. *)
              ()
          | fd, _ ->
              Unix.set_close_on_exec fd;
              Mutex.protect st.reg (fun () ->
                  if st.stopping then (
                    try Unix.close fd with Unix.Unix_error _ -> ())
                  else begin
                    st.conn_fds <- fd :: st.conn_fds;
                    st.live <- st.live + 1;
                    st.next_conn <- st.next_conn + 1;
                    Obs.Metrics.gauge_add ~registry:t.registry
                      "serve_connections_active" 1;
                    st.conn_threads <-
                      Thread.create serve_connection (fd, st.next_conn)
                      :: st.conn_threads
                  end)));
      accept_loop ()
    end
  in
  let cleanup () =
    (try Unix.close listener with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 64;
      accept_loop ();
      (* Drain: every live connection loop ends (its read side was shut
         down by [begin_shutdown]) before the socket file disappears. *)
      let threads = Mutex.protect st.reg (fun () -> st.conn_threads) in
      List.iter Thread.join threads)
