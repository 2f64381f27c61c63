(* Mix replay: the measuring half of the serve subsystem.  Both modes
   funnel every wire reply through the same strict validator, so the
   replay doubles as a protocol-conformance check of whatever produced
   the replies (the in-process engine or a remote oqsc serve).  The
   socket mode can fan the mix across several concurrent connections
   (--clients), which additionally checks the server's per-connection
   reply-ordering guarantee under real interleaving. *)

module Json = Experiments.Json

type report = {
  requests : int;
  replies : int;
  ok : int;
  errors : int;
  wall_ms : float;
  throughput_rps : float;
  stats : Json.t;
  metrics : Json.t;
}

let stats_id = "bench.stats"
let metrics_id = "bench.metrics"
let shutdown_id = "bench.shutdown"
let sync_id client = Printf.sprintf "bench.sync.%d" client
let reserved id = String.length id >= 6 && String.sub id 0 6 = "bench."

let load_mix path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | raw -> (
      let lines =
        String.split_on_char '\n' raw
        |> List.map String.trim
        |> List.filter (fun l -> l <> "")
      in
      match lines with
      | [] -> Error (Printf.sprintf "%s: empty request mix" path)
      | lines -> Ok lines)

(* ------------------------------------------------------- accounting *)

let ensure_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" dir (Unix.error_message e))

let write_payload dir id payload =
  let path = Filename.concat dir (id ^ ".json") in
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Json.to_string payload))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

(* One validated wire reply folded into the running tally.  [line] is
   the reply exactly as it crossed (or would cross) the wire; strict
   decoding here is the "no undocumented reply key" gate.  Internal
   bench.* replies (stats capture, shutdown ack, sync barriers) never
   count as mix replies. *)
type tally = {
  mutable seen : int;  (* mix replies *)
  mutable ok_count : int;
  mutable err_count : int;
  mutable ok_ids : string list;  (* mix ok-reply ids, newest first *)
  mutable stats : Json.t option;
  mutable metrics : Json.t option;
  mutable stopped : bool;
}

(* The scraped metrics payload is validated beyond the envelope: it
   must be the oqsc-metrics v1 document, down to each metric's exact
   key set (docs/SCHEMA.md), or the replay fails — the same strictness
   the stats/mix replies get from the protocol decoder. *)
let check_metrics_doc payload =
  let open Json.Decode in
  let bucket o =
    ignore (req o "count" int);
    ignore (req o "le" (nullable number));
    close o
  in
  let metric o =
    ignore (req o "name" str);
    (match req o "type" str with
    | "counter" | "gauge" -> ignore (req o "value" int)
    | "histogram" ->
        ignore (req o "count" int);
        ignore (req o "sum" number);
        ignore (req o "buckets" (list (obj bucket)))
    | other -> fail (Key (o.at, "type")) "unknown metric type %S" other);
    close o
  in
  let document o =
    let kind = req o "kind" str in
    let version = req o "version" int in
    ignore (req o "metrics" (list (obj metric)));
    close o;
    if kind <> "oqsc-metrics" || version <> 1 then
      fail o.at "not an oqsc-metrics v1 document"
  in
  run ~label:"metrics reply payload" (obj document) payload

let absorb ?payload_dir tally line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "reply is not valid JSON: %s" msg)
  | Ok json -> (
      match Protocol.reply_of_json json with
      | Error msg -> Error (Printf.sprintf "protocol violation in reply: %s" msg)
      | Ok (Protocol.Ok_reply { id; op; payload; _ }) -> (
          if reserved id then begin
            if String.equal id stats_id then begin
              tally.stats <- Some payload;
              Ok ()
            end
            else if String.equal id metrics_id then (
              match check_metrics_doc payload with
              | Ok () ->
                  tally.metrics <- Some payload;
                  Ok ()
              | Error msg -> Error msg)
            else begin
              if String.equal id shutdown_id then tally.stopped <- true;
              Ok ()
            end
          end
          else if String.equal op "shutdown" then
            Error "request mix must not contain shutdown; use --shutdown instead"
          else begin
            tally.seen <- tally.seen + 1;
            tally.ok_count <- tally.ok_count + 1;
            tally.ok_ids <- id :: tally.ok_ids;
            match payload_dir with
            | Some dir when String.equal op "run" || String.equal op "sweep" ->
                write_payload dir id payload
            | _ -> Ok ()
          end)
      | Ok (Protocol.Error_reply _) ->
          tally.seen <- tally.seen + 1;
          tally.err_count <- tally.err_count + 1;
          Ok ())

let fresh_tally () =
  {
    seen = 0;
    ok_count = 0;
    err_count = 0;
    ok_ids = [];
    stats = None;
    metrics = None;
    stopped = false;
  }

let merge_tally into from =
  into.seen <- into.seen + from.seen;
  into.ok_count <- into.ok_count + from.ok_count;
  into.err_count <- into.err_count + from.err_count;
  (match from.stats with Some s -> into.stats <- Some s | None -> ());
  (match from.metrics with Some m -> into.metrics <- Some m | None -> ());
  if from.stopped then into.stopped <- true

let check_mix lines =
  let bad =
    List.filter_map
      (fun line ->
        match Protocol.parse_line line with
        | Ok { Protocol.id; _ } when reserved id -> Some id
        | _ -> None)
      lines
  in
  match bad with
  | [] -> Ok ()
  | id :: _ ->
      Error (Printf.sprintf "mix uses reserved id %S (bench.* is reserved)" id)

(* Per-connection ordering guarantee (docs/PROTOCOL.md): ok replies
   arrive in the order their requests were sent on that connection —
   only immediate error replies (queue_full, rejected envelopes) may
   overtake.  So a connection's ok-reply id sequence must be a
   subsequence of its sent id sequence. *)
let sent_ids lines =
  List.filter_map
    (fun line ->
      match Protocol.parse_line line with
      | Ok { Protocol.id; _ } -> Some id
      | Error _ -> None)
    lines

let rec is_subsequence sub full =
  match (sub, full) with
  | [], _ -> true
  | _, [] -> false
  | s :: sub', f :: full' ->
      if String.equal s f then is_subsequence sub' full'
      else is_subsequence sub full'

let check_order ~sent tally =
  if is_subsequence (List.rev tally.ok_ids) sent then Ok ()
  else
    Error
      "per-connection ordering violation: ok replies arrived out of send order"

let build_report ~requests ~wall_ms tally =
  {
    requests;
    replies = tally.seen;
    ok = tally.ok_count;
    errors = tally.err_count;
    wall_ms;
    throughput_rps =
      (if wall_ms > 0.0 then float_of_int requests /. (wall_ms /. 1000.0)
       else 0.0);
    stats = (match tally.stats with Some s -> s | None -> Json.Obj []);
    metrics = (match tally.metrics with Some m -> m | None -> Json.Obj []);
  }

let to_json r =
  Json.Obj
    [
      ("kind", Json.Str "oqsc-bench-serve");
      ("version", Json.Int 2);
      ("requests", Json.Int r.requests);
      ("replies", Json.Int r.replies);
      ("ok", Json.Int r.ok);
      ("errors", Json.Int r.errors);
      ("wall_ms", Json.Float r.wall_ms);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("stats", r.stats);
      ("metrics", r.metrics);
    ]

(* ------------------------------------------------------- in-process *)

let stats_line =
  Protocol.to_line
    (Protocol.request_to_json
       { Protocol.v = Protocol.version; id = stats_id; op = Protocol.Stats })

(* The metrics scrape is the one v2 request the bench sends: the
   version-negotiation path gets exercised on every replay. *)
let metrics_line =
  Protocol.to_line
    (Protocol.request_to_json
       {
         Protocol.v = Protocol.metrics_version;
         id = metrics_id;
         op = Protocol.Metrics;
       })

let replay_in_process ?payload_dir ?(repeat = 1) ?capacity ?batch ?domains lines
    =
  let ( let* ) = Result.bind in
  let* () = if repeat >= 1 then Ok () else Error "repeat must be >= 1" in
  let* () = check_mix lines in
  let* () = match payload_dir with None -> Ok () | Some d -> ensure_dir d in
  let server = Server.create ?capacity ?batch ?domains () in
  let tally = fresh_tally () in
  let t0 = Obs.Trace.now_ns () in
  (* Replies take the full wire round trip — encode to a line, strict
     re-decode — so in-process replay validates the same bytes a socket
     client would see. *)
  let absorb_replies replies =
    List.fold_left
      (fun acc reply ->
        let* () = acc in
        absorb ?payload_dir tally
          (Protocol.to_line (Protocol.reply_to_json reply)))
      (Ok ()) replies
  in
  let* () =
    List.fold_left
      (fun acc line ->
        let* () = acc in
        if tally.stopped then Ok ()
        else
          let { Server.replies; stop } = Server.submit_line server line in
          let* () = absorb_replies replies in
          if stop then
            Error "request mix must not contain shutdown; use --shutdown instead"
          else Ok ())
      (Ok ())
      (List.concat (List.init repeat (fun _ -> lines)))
  in
  let* () =
    let { Server.replies; _ } = Server.submit_line server stats_line in
    absorb_replies replies
  in
  let* () =
    let { Server.replies; _ } = Server.submit_line server metrics_line in
    absorb_replies replies
  in
  let wall_ms =
    Int64.to_float (Int64.sub (Obs.Trace.now_ns ()) t0) /. 1e6
  in
  Ok (build_report ~requests:(repeat * List.length lines) ~wall_ms tally)

(* ----------------------------------------------------------- socket *)

let shutdown_line =
  Protocol.to_line
    (Protocol.request_to_json
       {
         Protocol.v = Protocol.version;
         id = shutdown_id;
         op = Protocol.Shutdown;
       })

let connect socket =
  (* A server that dies mid-replay turns our next write into EPIPE;
     keep that a Sys_error on the sender thread (reported as a replay
     failure) rather than a fatal SIGPIPE killing the CLI. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect %s: %s" socket (Unix.error_message e))
  | () -> Ok fd

(* One connection's replay: write [to_send] from a sender thread while
   the main thread drains exactly [expected] reply frames (so a replay
   larger than the socket buffers cannot deadlock), strictly validating
   each, then check the per-connection ordering guarantee. *)
let run_connection ?payload_dir ~tally ~to_send fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let sender =
    Thread.create
      (fun () ->
        try List.iter (fun line -> Protocol.write_frame oc line) to_send
        with Sys_error _ -> ())
      ()
  in
  let ( let* ) = Result.bind in
  let expected = List.length to_send in
  let rec read_loop received =
    if received >= expected then Ok ()
    else
      match Protocol.read_frame ic with
      | Ok None ->
          Error
            (Printf.sprintf
               "server closed the connection after %d of %d replies" received
               expected)
      | Error msg -> Error (Printf.sprintf "framing violation: %s" msg)
      | Ok (Some body) ->
          let* () = absorb ?payload_dir tally body in
          read_loop (received + 1)
  in
  let result = read_loop 0 in
  Thread.join sender;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let* () = result in
  check_order ~sent:(sent_ids to_send) tally

(* Round-robin partition of the mix across [clients] connections; each
   slice is replayed [repeat] times and closed with a reserved sync
   ping so the last barrier always flushes the shared queue — no
   client can be left waiting on a below-threshold batch. *)
let partition ~clients lines =
  let slices = Array.make clients [] in
  List.iteri
    (fun i line -> slices.(i mod clients) <- line :: slices.(i mod clients))
    lines;
  Array.map List.rev slices

let replay_socket ?payload_dir ?(repeat = 1) ?(shutdown = false) ?(clients = 1)
    ~socket lines =
  let ( let* ) = Result.bind in
  let* () = if repeat >= 1 then Ok () else Error "repeat must be >= 1" in
  let* () = if clients >= 1 then Ok () else Error "clients must be >= 1" in
  let* () = check_mix lines in
  let* () = match payload_dir with None -> Ok () | Some d -> ensure_dir d in
  let t0 = Obs.Trace.now_ns () in
  let requests = repeat * List.length lines in
  let finish_ms () =
    Int64.to_float (Int64.sub (Obs.Trace.now_ns ()) t0) /. 1e6
  in
  if clients = 1 then begin
    (* Single connection: mix, stats, optional shutdown, all in-line. *)
    let* fd = connect socket in
    let to_send =
      List.concat (List.init repeat (fun _ -> lines))
      @ [ stats_line; metrics_line ]
      @ (if shutdown then [ shutdown_line ] else [])
    in
    let tally = fresh_tally () in
    let* () = run_connection ?payload_dir ~tally ~to_send fd in
    Ok (build_report ~requests ~wall_ms:(finish_ms ()) tally)
  end
  else begin
    (* Fan the mix across [clients] concurrent connections, then fetch
       stats (and optionally shut the server down) over one final
       control connection once every client has fully drained. *)
    let slices = partition ~clients lines in
    let fds = Array.make clients None in
    let rec connect_all i =
      if i >= clients then Ok ()
      else
        let* fd = connect socket in
        fds.(i) <- Some fd;
        connect_all (i + 1)
    in
    match connect_all 0 with
    | Error msg ->
        Array.iter
          (function
            | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
            | None -> ())
          fds;
        Error msg
    | Ok () ->
        let tallies = Array.init clients (fun _ -> fresh_tally ()) in
        let results = Array.make clients (Ok ()) in
        let worker i fd =
          let to_send =
            List.concat (List.init repeat (fun _ -> slices.(i)))
            @ [
                Protocol.to_line
                  (Protocol.request_to_json
                     {
                       Protocol.v = Protocol.version;
                       id = sync_id i;
                       op = Protocol.Ping;
                     });
              ]
          in
          results.(i) <-
            run_connection ?payload_dir ~tally:tallies.(i) ~to_send fd
        in
        let threads =
          Array.mapi
            (fun i fd ->
              match fd with
              | Some fd -> Some (Thread.create (fun () -> worker i fd) ())
              | None -> None)
            fds
        in
        Array.iter (function Some th -> Thread.join th | None -> ()) threads;
        let* () =
          Array.fold_left
            (fun acc r ->
              let* () = acc in
              r)
            (Ok ()) results
        in
        let tally = fresh_tally () in
        Array.iter (fun client -> merge_tally tally client) tallies;
        let* fd = connect socket in
        let* () =
          run_connection ~tally
            ~to_send:
              ([ stats_line; metrics_line ]
              @ if shutdown then [ shutdown_line ] else [])
            fd
        in
        Ok (build_report ~requests ~wall_ms:(finish_ms ()) tally)
  end

(* ------------------------------------------------------------ print *)

let stat_float stats key =
  match Json.Decode.(run (obj (fun o -> opt o key number)) stats) with
  | Ok (Some f) -> f
  | _ -> 0.0

let print fmt r =
  Format.fprintf fmt "bench-serve: %d request(s) sent, %d replied (%d ok, %d error)@."
    r.requests r.replies r.ok r.errors;
  Format.fprintf fmt "wall %.1f ms  throughput %.1f req/s@." r.wall_ms
    r.throughput_rps;
  Format.fprintf fmt
    "latency p50 %.1f ms  p99 %.1f ms  (server-side, %d completed run/sweep)@."
    (stat_float r.stats "p50_ms")
    (stat_float r.stats "p99_ms")
    (int_of_float (stat_float r.stats "completed"))
