(* Structured request logging: one NDJSON event per request lifecycle
   transition, written by the serve engine when [--log FILE] is given.
   The schema is normative in docs/SCHEMA.md ("Request-log events");
   [lint] below is its executable half, run by [oqsc log-lint] and CI.

   The log is telemetry in the same sense as oqsc-trace: it reads
   clocks, so two runs never produce identical bytes, and it is
   write-only with respect to every gated JSON output.  What IS
   guaranteed is structure: [seq] counts from 0 with no gaps in file
   order, and [ts_ms] is nondecreasing in file order, because both are
   assigned under the writer mutex that also orders the writes. *)

module Json = Experiments.Json

type t = {
  oc : out_channel;
  lock : Mutex.t;
  start_ns : int64;
  mutable seq : int;
}

let open_log path =
  {
    oc = Out_channel.open_text path;
    lock = Mutex.create ();
    start_ns = Obs.Trace.now_ns ();
    seq = 0;
  }

let close t = Mutex.protect t.lock (fun () -> close_out t.oc)

let opt_str = function None -> Json.Null | Some s -> Json.Str s

let event t ~event:name ?code ~conn ~id ~op ~queue_depth ~latency_ms () =
  Mutex.protect t.lock (fun () ->
      (* Clock read under the lock: file order = ts order, by fiat. *)
      let ts_ms =
        Int64.to_float (Int64.sub (Obs.Trace.now_ns ()) t.start_ns) /. 1e6
      in
      let fields =
        [
          ("conn", Json.Int conn);
          ("event", Json.Str name);
          ("id", opt_str id);
          ("latency_ms", Json.Float latency_ms);
          ("op", opt_str op);
          ("queue_depth", Json.Int queue_depth);
          ("seq", Json.Int t.seq);
          ("ts_ms", Json.Float ts_ms);
        ]
      in
      let fields =
        match code with
        | None -> fields
        | Some c -> ("code", Json.Str c) :: fields
      in
      t.seq <- t.seq + 1;
      output_string t.oc (Protocol.to_line (Json.Obj fields));
      output_char t.oc '\n';
      (* Flushed per event so a crash loses at most the event being
         written, and log-lint can run against a live server's file. *)
      flush t.oc)

(* --------------------------------------------------------------- lint *)

type counts = {
  lines : int;
  admitted : int;
  rejected : int;
  flushed : int;
  replied : int;
  dropped : int;
}

let known_events = [ "admitted"; "rejected"; "flushed"; "replied"; "dropped" ]

module D = Json.Decode

(* Every finding is reported, not only a line's first: each key is
   decoded on its own, and [close] names whatever the schema lacks. *)
let lint lines =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let found f = try Some (f ()) with D.Error m -> errors := m :: !errors; None in
  let counts =
    ref { lines = 0; admitted = 0; rejected = 0; flushed = 0; replied = 0; dropped = 0 }
  in
  let last_ts = ref neg_infinity in
  let int_number path json = float_of_int (D.int path json) in
  let event i label o =
    let key k conv = found (fun () -> D.req o k conv) in
    counts := { !counts with lines = !counts.lines + 1 };
    let kind = key "event" D.str in
    (match kind with
    | Some k when not (List.mem k known_events) -> err "%s: unknown event %S" label k
    | _ -> ());
    (* Only a rejection carries its error code. *)
    if kind = Some "rejected" then ignore (key "code" D.str);
    (match key "seq" D.int with
    | Some s when s <> i -> err "%s: seq is %d, want %d (no gaps, file order)" label s i
    | _ -> ());
    (match key "ts_ms" D.number with
    | Some ts ->
        if ts < !last_ts then
          err "%s: ts_ms %g decreases (previous %g)" label ts !last_ts;
        last_ts := ts
    | None -> ());
    List.iter
      (fun (k, conv) ->
        match key k conv with
        | Some v when v < 0.0 -> err "%s: %s %g is negative" label k v
        | _ -> ())
      [ ("conn", int_number); ("queue_depth", int_number); ("latency_ms", D.number) ];
    ignore (key "id" (D.nullable D.str));
    ignore (key "op" (D.nullable D.str));
    ignore (found (fun () -> D.close o));
    match kind with
    | Some "admitted" -> counts := { !counts with admitted = !counts.admitted + 1 }
    | Some "rejected" -> counts := { !counts with rejected = !counts.rejected + 1 }
    | Some "flushed" -> counts := { !counts with flushed = !counts.flushed + 1 }
    | Some "replied" -> counts := { !counts with replied = !counts.replied + 1 }
    | Some "dropped" -> counts := { !counts with dropped = !counts.dropped + 1 }
    | _ -> ()
  in
  List.iteri
    (fun i line ->
      let label = Printf.sprintf "line %d" (i + 1) in
      match Json.parse line with
      | Error msg -> err "%s: not valid JSON: %s" label msg
      | Ok json -> ignore (found (fun () -> D.obj (event i label) (D.Root label) json)))
    lines;
  match List.rev !errors with [] -> Ok !counts | es -> Error es
