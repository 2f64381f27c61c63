(* Serve subsystem coverage: the strict protocol codec (qcheck round
   trips plus every documented rejection), the length-prefixed frame
   codec, the bounded admission queue, the batching/backpressure engine,
   and the central contract — a served run/sweep payload survives the
   full wire round trip byte-identical to the one-shot CLI document. *)

module Json = Experiments.Json
module Protocol = Serve.Protocol
module Server = Serve.Server

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let encode_request req = Protocol.to_line (Protocol.request_to_json req)
let encode_reply reply = Protocol.to_line (Protocol.reply_to_json reply)

let decode_reply line =
  match Json.parse line with
  | Error msg -> Alcotest.failf "reply line is not JSON: %s" msg
  | Ok json -> (
      match Protocol.reply_of_json json with
      | Error msg -> Alcotest.failf "reply rejected: %s" msg
      | Ok reply -> reply)

let expect_decode_error ~code line =
  match Protocol.parse_line line with
  | Ok _ -> Alcotest.failf "accepted %S (wanted %s)" line (Protocol.code_to_string code)
  | Error err ->
      check_str
        (Printf.sprintf "%S rejected with" line)
        (Protocol.code_to_string code)
        (Protocol.code_to_string err.Protocol.code);
      err

(* ---------------------------------------------------- request codec *)

let id_gen =
  let chars =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
  in
  QCheck.Gen.(
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 1 16)
         (map (fun i -> chars.[i]) (int_bound (String.length chars - 1)))))

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun exp quick seed -> Protocol.Run { exp; quick; seed })
            (oneofl Experiments.Registry.ids)
            bool (int_bound 100_000) );
        ( 3,
          map3
            (fun (index, count) quick seed ->
              Protocol.Sweep { index; count; quick; seed })
            (map
               (fun (count, i) -> (i mod count, count))
               (pair (int_range 1 9) (int_bound 100)))
            bool (int_bound 100_000) );
        (1, return Protocol.Ping);
        (1, return Protocol.Stats);
        (1, return Protocol.Metrics);
        (1, return Protocol.Shutdown);
      ])

(* [metrics] only decodes at v2, so force its version up; every other
   op round-trips at either supported version. *)
let request_gen =
  QCheck.Gen.(
    map3
      (fun id op v ->
        let v =
          match op with Protocol.Metrics -> Protocol.metrics_version | _ -> v
        in
        { Protocol.v; id; op })
      id_gen op_gen
      (oneofl Protocol.versions))

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request codec: decode (encode r) = r" ~count:300
    (QCheck.make request_gen) (fun req ->
      match Protocol.parse_line (encode_request req) with
      | Ok req' ->
          req' = req
          ||
          QCheck.Test.fail_reportf "round trip changed the request: %s"
            (encode_request req')
      | Error { Protocol.message; _ } ->
          QCheck.Test.fail_reportf "own encoding rejected: %s" message)

let code_gen =
  QCheck.Gen.oneofl
    [
      Protocol.Parse_error;
      Protocol.Bad_request;
      Protocol.Unsupported_version;
      Protocol.Unknown_op;
      Protocol.Unknown_experiment;
      Protocol.Bad_shard;
      Protocol.Queue_full;
      Protocol.Frame_error;
      Protocol.Internal_error;
    ]

(* wall_ms from n/8 is exactly representable, so the float survives the
   emitter round trip bit-for-bit. *)
let reply_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun id n (op, v) ->
              Protocol.Ok_reply
                {
                  v;
                  id;
                  op;
                  payload =
                    Json.Obj [ ("n", Json.Int n); ("s", Json.Str "x\"\\y") ];
                  wall_ms = float_of_int n /. 8.0;
                } )
            id_gen (int_bound 10_000)
            (pair
               (oneofl [ "run"; "sweep"; "ping"; "stats"; "metrics"; "shutdown" ])
               (oneofl Protocol.versions)) );
        ( 2,
          map3
            (fun id (code, v) msg ->
              Protocol.Error_reply { v; id; code; message = msg })
            (opt id_gen)
            (pair code_gen (oneofl Protocol.versions))
            (oneofl [ "boom"; "queue is full"; "k\ne\ty" ]) );
      ])

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"reply codec: wire bytes are a fixed point" ~count:300
    (QCheck.make reply_gen) (fun reply ->
      let line = encode_reply reply in
      let reply' = decode_reply line in
      reply' = reply
      && String.equal (encode_reply reply') line
      ||
      QCheck.Test.fail_reportf "round trip drifted: %s vs %s" line
        (encode_reply reply'))

(* ------------------------------------------------- strict rejections *)

let test_rejects_malformed () =
  let err = expect_decode_error ~code:Protocol.Parse_error "{nope" in
  check "no id recovered from garbage" true (err.Protocol.id = None)

let test_rejects_deep_nesting () =
  (* A 16 MiB frame can nest millions deep; the decoder must refuse it
     at the depth bound instead of descending the whole line. *)
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  let rejected_at_bound line =
    let err = expect_decode_error ~code:Protocol.Parse_error line in
    check_str "the message names the bound and the offset"
      (Printf.sprintf "nesting deeper than %d levels at offset %d"
         Json.max_depth Json.max_depth)
      err.Protocol.message
  in
  let t0 = Unix.gettimeofday () in
  rejected_at_bound (nested 1_000_000);
  let elapsed = Unix.gettimeofday () -. t0 in
  check (Printf.sprintf "rejected quickly (%.3f s)" elapsed) true (elapsed < 0.5);
  rejected_at_bound (nested (Json.max_depth + 1));
  (* At the bound the line is valid JSON: it gets past the parser and
     fails only as a request. *)
  ignore (expect_decode_error ~code:Protocol.Bad_request (nested Json.max_depth))

let test_rejects_unknown_version () =
  let err =
    expect_decode_error ~code:Protocol.Unsupported_version
      {|{"v":9,"id":"q","op":"ping"}|}
  in
  check "id recovered for the reply" true (err.Protocol.id = Some "q");
  check "unusable version answers at the baseline" true
    (err.Protocol.v = Protocol.version)

let test_rejects_unknown_op () =
  ignore
    (expect_decode_error ~code:Protocol.Unknown_op
       {|{"v":1,"id":"q","op":"dance"}|})

let test_rejects_unknown_experiment () =
  ignore
    (expect_decode_error ~code:Protocol.Unknown_experiment
       {|{"v":1,"id":"q","op":"run","exp":"e99"}|})

let test_rejects_bad_shard () =
  ignore
    (expect_decode_error ~code:Protocol.Bad_shard
       {|{"v":1,"id":"q","op":"sweep","index":5,"of":5}|});
  ignore
    (expect_decode_error ~code:Protocol.Bad_shard
       {|{"v":1,"id":"q","op":"sweep","index":0,"of":0}|})

let test_rejects_undocumented_request_key () =
  ignore
    (expect_decode_error ~code:Protocol.Bad_request
       {|{"v":1,"id":"q","op":"ping","extra":true}|});
  (* A key given twice is ambiguous: rejected before the first copy's
     value is acted on. *)
  let err =
    expect_decode_error ~code:Protocol.Bad_request
      {|{"v":1,"id":"q","op":"run","exp":"e99","exp":"e2"}|}
  in
  check_str "the message names the key" "exp: duplicate key" err.Protocol.message

let test_rejects_bad_id () =
  ignore
    (expect_decode_error ~code:Protocol.Bad_request
       {|{"v":1,"id":"spa ce","op":"ping"}|});
  ignore
    (expect_decode_error ~code:Protocol.Bad_request {|{"v":1,"id":"","op":"ping"}|})

let expect_reply_rejected ?(naming = "") line =
  match Json.parse line with
  | Error msg -> Alcotest.failf "fixture is not JSON: %s" msg
  | Ok json -> (
      match Protocol.reply_of_json json with
      | Ok _ -> Alcotest.failf "reply %S should be rejected" line
      | Error msg ->
          let n = String.length naming in
          check
            (Printf.sprintf "%S starts with %S" msg naming)
            true
            (String.length msg >= n && String.sub msg 0 n = naming))

let test_rejects_undocumented_reply_key () =
  expect_reply_rejected
    {|{"id":"a","ok":true,"op":"ping","payload":{},"v":1,"wall_ms":1.0,"zzz":1}|};
  expect_reply_rejected
    {|{"error":{"code":"queue_full","message":"m","hint":"h"},"id":"a","ok":false,"v":1}|};
  expect_reply_rejected
    {|{"error":{"code":"not_a_code","message":"m"},"id":"a","ok":false,"v":1}|};
  expect_reply_rejected
    {|{"id":"a","ok":true,"op":"ping","payload":{},"v":9,"wall_ms":1.0}|};
  expect_reply_rejected ~naming:"error.code: expected a string"
    {|{"error":{"code":7,"message":"m"},"id":"a","ok":false,"v":1}|}

(* ------------------------------------------------------------ frames *)

let with_frame_file bodies read =
  let path = Filename.temp_file "oqsc_serve" ".frames" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (Protocol.write_frame oc) bodies);
      In_channel.with_open_bin path read)

let test_frame_roundtrip () =
  let bodies = [ ""; "x"; String.make 4096 'q'; "{\"v\":1}" ] in
  with_frame_file bodies (fun ic ->
      List.iter
        (fun body ->
          match Protocol.read_frame ic with
          | Ok (Some b) -> check_str "frame body" body b
          | Ok None -> Alcotest.fail "premature EOF"
          | Error msg -> Alcotest.failf "framing error: %s" msg)
        bodies;
      match Protocol.read_frame ic with
      | Ok None -> ()
      | _ -> Alcotest.fail "clean EOF should be Ok None")

let test_frame_violations () =
  (* Oversized declared length. *)
  let path = Filename.temp_file "oqsc_serve" ".frames" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          let header = Bytes.create 4 in
          Bytes.set_int32_be header 0 0x7fff_ffffl;
          output_bytes oc header);
      In_channel.with_open_bin path (fun ic ->
          match Protocol.read_frame ic with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "oversized frame should be an error"));
  (* EOF in the middle of a declared body. *)
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          let header = Bytes.create 4 in
          Bytes.set_int32_be header 0 10l;
          output_bytes oc header;
          output_string oc "abc");
      In_channel.with_open_bin path (fun ic ->
          match Protocol.read_frame ic with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "truncated frame should be an error"));
  match
    with_frame_file [] (fun _ ->
        Protocol.write_frame stderr (String.make (Protocol.max_frame + 1) 'x'))
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlong body should raise Invalid_argument"

(* ------------------------------------------------------------- queue *)

let test_queue_fifo () =
  let q = Serve.Queue.create ~capacity:3 () in
  check_int "capacity" 3 (Serve.Queue.capacity q);
  check "empty" true (Serve.Queue.is_empty q);
  check "admit 1" true (Serve.Queue.admit q 1);
  check "admit 2" true (Serve.Queue.admit q 2);
  check "admit 3" true (Serve.Queue.admit q 3);
  check "full" false (Serve.Queue.admit q 4);
  check_int "peak at capacity" 3 (Serve.Queue.peak q);
  Alcotest.(check (list int)) "FIFO drain" [ 1; 2; 3 ] (Serve.Queue.drain q);
  check "empty after drain" true (Serve.Queue.is_empty q);
  check "admit after drain" true (Serve.Queue.admit q 5);
  Alcotest.(check (list int)) "second drain" [ 5 ] (Serve.Queue.drain q);
  check_int "peak survives drains" 3 (Serve.Queue.peak q);
  match Serve.Queue.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 should raise"

let test_queue_observe_hook () =
  let seen = ref [] in
  let q = Serve.Queue.create ~capacity:3 ~observe:(fun n -> seen := n :: !seen) () in
  ignore (Serve.Queue.admit q 1);
  ignore (Serve.Queue.admit q 2);
  ignore (Serve.Queue.admit q 3);
  check "full admit is not observed" false (Serve.Queue.admit q 4);
  ignore (Serve.Queue.drain q);
  ignore (Serve.Queue.drain q);
  Alcotest.(check (list int))
    "observed lengths: each admit, one nonempty drain" [ 1; 2; 3; 0 ]
    (List.rev !seen)

(* ------------------------------------------------------------ engine *)

let submit_line t line = Server.submit_line t line

let reply_id = function
  | Protocol.Ok_reply { id; _ } -> id
  | Protocol.Error_reply { id; _ } -> Option.value ~default:"<null>" id

let run_line ?(seed = 2006) id exp =
  Printf.sprintf {|{"v":1,"id":"%s","op":"run","exp":"%s","quick":true,"seed":%d}|}
    id exp seed

let test_batch_flush_order () =
  let t = Server.create ~capacity:8 ~batch:3 ~domains:2 () in
  let o1 = submit_line t (run_line "r1" "e2") in
  let o2 = submit_line t (run_line "r2" "e13") in
  check "admission is silent" true (o1.Server.replies = [] && o2.Server.replies = []);
  let o3 = submit_line t (run_line "r3" "e2") in
  Alcotest.(check (list string))
    "flush replies in admission order" [ "r1"; "r2"; "r3" ]
    (List.map reply_id o3.Server.replies);
  check "no stop" false o3.Server.stop

let test_control_barrier () =
  let t = Server.create ~capacity:8 ~batch:8 () in
  ignore (submit_line t (run_line "r1" "e2"));
  let o = submit_line t {|{"v":1,"id":"p","op":"ping"}|} in
  Alcotest.(check (list string))
    "barrier flushes then answers" [ "r1"; "p" ]
    (List.map reply_id o.Server.replies)

let test_queue_full_backpressure () =
  (* batch > capacity: threshold flushes disabled, so the second
     admission must draw an immediate queue_full error reply. *)
  let t = Server.create ~capacity:1 ~batch:4 () in
  ignore (submit_line t (run_line "r1" "e2"));
  let o = submit_line t (run_line "r2" "e13") in
  (match o.Server.replies with
  | [ Protocol.Error_reply { id = Some "r2"; code = Protocol.Queue_full; _ } ] -> ()
  | _ -> Alcotest.fail "wanted a queue_full error reply for r2");
  let o' = submit_line t {|{"v":1,"id":"s","op":"stats"}|} in
  Alcotest.(check (list string))
    "r1 still flushes at the barrier" [ "r1"; "s" ]
    (List.map reply_id o'.Server.replies);
  match List.rev o'.Server.replies with
  | Protocol.Ok_reply { payload = Json.Obj fields; _ } :: _ ->
      check "stats counts the rejection" true
        (List.assoc_opt "rejected" fields = Some (Json.Int 1))
  | _ -> Alcotest.fail "stats reply missing"

let test_error_reply_for_bad_line () =
  let t = Server.create () in
  let o = submit_line t {|{"v":1,"id":"q","op":"run","exp":"e99"}|} in
  match o.Server.replies with
  | [ Protocol.Error_reply { code = Protocol.Unknown_experiment; id = Some "q"; _ } ]
    ->
      check "bad line never stops the server" false o.Server.stop
  | _ -> Alcotest.fail "wanted unknown_experiment"

let test_stats_payload_keys () =
  let t = Server.create () in
  match Server.stats_payload t with
  | Json.Obj fields ->
      Alcotest.(check (list string))
        "exactly the documented stats keys"
        [
          "completed";
          "errors";
          "p50_ms";
          "p99_ms";
          "queue_capacity";
          "queue_peak";
          "rejected";
          "trace_dropped";
          "uptime_ms";
        ]
        (List.sort compare (List.map fst fields))
  | _ -> Alcotest.fail "stats payload must be an object"

let test_shutdown_stops () =
  let t = Server.create () in
  ignore (submit_line t (run_line "r1" "e2"));
  let o = submit_line t {|{"v":1,"id":"z","op":"shutdown"}|} in
  check "stop" true o.Server.stop;
  Alcotest.(check (list string))
    "drains before stopping" [ "r1"; "z" ]
    (List.map reply_id o.Server.replies)

(* ------------------------------------------------- protocol v2: metrics *)

let test_metrics_gated_by_version () =
  (* The op exists only at v2: a v1 request naming it draws unknown_op
     (not unsupported_version — v1 itself is fine). *)
  ignore
    (expect_decode_error ~code:Protocol.Unknown_op
       {|{"v":1,"id":"m","op":"metrics"}|});
  match Protocol.parse_line {|{"v":2,"id":"m","op":"metrics"}|} with
  | Ok { Protocol.v; id = "m"; op = Protocol.Metrics } ->
      check_int "decoded at v2" Protocol.metrics_version v
  | Ok _ -> Alcotest.fail "decoded to the wrong request"
  | Error { Protocol.message; _ } ->
      Alcotest.failf "v2 metrics rejected: %s" message

let test_reply_echoes_request_version () =
  let t = Server.create ~registry:(Obs.Metrics.create_registry ()) () in
  let o1 = submit_line t {|{"v":2,"id":"p","op":"ping"}|} in
  (match o1.Server.replies with
  | [ Protocol.Ok_reply { v = 2; id = "p"; _ } ] -> ()
  | _ -> Alcotest.fail "v2 ping must be answered at v2");
  let o2 = submit_line t {|{"v":1,"id":"q","op":"ping"}|} in
  match o2.Server.replies with
  | [ Protocol.Ok_reply { v = 1; id = "q"; _ } ] -> ()
  | _ -> Alcotest.fail "v1 ping must be answered at v1"

let metric_value payload name =
  match payload with
  | Json.Obj fields -> (
      match List.assoc_opt "metrics" fields with
      | Some (Json.List metrics) ->
          List.find_map
            (function
              | Json.Obj m when List.assoc_opt "name" m = Some (Json.Str name)
                ->
                  List.assoc_opt "value" m
              | _ -> None)
            metrics
      | _ -> None)
  | _ -> None

let test_metrics_doc_exact_keys () =
  let registry = Obs.Metrics.create_registry () in
  Obs.Metrics.counter_add ~registry "c" 3;
  Obs.Metrics.gauge_set ~registry "g" 2;
  Obs.Metrics.observe ~registry "h" 0.5;
  Obs.Metrics.observe ~registry "h" 1e9;
  let real = Experiments.Metrics_doc.document (Obs.Metrics.snapshot ~registry ()) in
  check "the emitted document passes" true
    (Serve.Bench_serve.check_metrics_doc real = Ok ());
  let doc metrics =
    Json.Obj
      [
        ("kind", Json.Str "oqsc-metrics");
        ("version", Json.Int 1);
        ("metrics", Json.List metrics);
      ]
  in
  let counter extra =
    Json.Obj
      ([ ("name", Json.Str "c"); ("type", Json.Str "counter"); ("value", Json.Int 1) ]
      @ extra)
  in
  let histogram bucket =
    Json.Obj
      [
        ("name", Json.Str "h");
        ("type", Json.Str "histogram");
        ("count", Json.Int 1);
        ("sum", Json.Float 0.5);
        ("buckets", Json.List [ Json.Obj bucket ]);
      ]
  in
  let bucket = [ ("count", Json.Int 1); ("le", Json.Float 1.0) ] in
  check "hand-built document passes" true
    (Serve.Bench_serve.check_metrics_doc (doc [ counter []; histogram bucket ])
    = Ok ());
  let contains hay needle =
    let n = String.length needle in
    let rec at i =
      i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun (what, metrics, path, key) ->
      match Serve.Bench_serve.check_metrics_doc (doc metrics) with
      | Ok () -> Alcotest.failf "%s accepted" what
      | Error msg ->
          check (what ^ " names its path: " ^ msg) true
            (contains msg (path ^ ": ") && contains msg key))
    [
      ( "an extra key",
        [ counter [ ("extra", Json.Int 0) ] ],
        "metrics[0]",
        "\"extra\"" );
      ( "a counter carrying buckets",
        [ histogram bucket; counter [ ("buckets", Json.List []) ] ],
        "metrics[1]",
        "\"buckets\"" );
      ( "a bucket with an extra key",
        [ histogram (bucket @ [ ("sum", Json.Int 0) ]) ],
        "metrics[0].buckets[0]",
        "\"sum\"" );
      ( "a histogram without sum",
        [
          counter [];
          Json.Obj
            [
              ("name", Json.Str "h");
              ("type", Json.Str "histogram");
              ("count", Json.Int 0);
              ("buckets", Json.List []);
            ];
        ],
        "metrics[1].sum",
        "missing" );
    ]

let test_metrics_barrier_and_accounting () =
  (* A fresh registry per test: the metrics op is a barrier (flushes
     the queued run first), its payload is the oqsc-metrics document,
     and the accounting identity holds in the snapshot it serves. *)
  let registry = Obs.Metrics.create_registry () in
  let t = Server.create ~capacity:8 ~batch:8 ~registry () in
  ignore (submit_line t (run_line "r1" "e2"));
  ignore (submit_line t "{nope");
  let o = submit_line t {|{"v":2,"id":"m","op":"metrics"}|} in
  Alcotest.(check (list string))
    "metrics is a barrier" [ "r1"; "m" ]
    (List.map reply_id o.Server.replies);
  match List.rev o.Server.replies with
  | Protocol.Ok_reply { v = 2; op = "metrics"; payload; _ } :: _ ->
      (match payload with
      | Json.Obj fields ->
          check "kind" true
            (List.assoc_opt "kind" fields = Some (Json.Str "oqsc-metrics"))
      | _ -> Alcotest.fail "metrics payload must be an object");
      let v name =
        match metric_value payload name with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "metric %s missing from the snapshot" name
      in
      check_int "requests: the run and the malformed line" 2
        (v "serve_requests_total");
      check_int "accounting identity" (v "serve_requests_total")
        (v "serve_replies_ok_total"
        + v "serve_replies_error_total"
        + v "serve_rejected_total"
        + v "serve_dropped_total")
  | _ -> Alcotest.fail "wanted a v2 metrics ok reply"

let test_metrics_counts_drops_and_rejections () =
  let registry = Obs.Metrics.create_registry () in
  let t = Server.create ~capacity:1 ~batch:99 ~registry () in
  (* One admitted run whose sink dies, one queue_full rejection, then a
     barrier from a live sink: the snapshot must file one drop and one
     rejection and still balance. *)
  ignore
    (Server.submit_line_routed t
       ~reply:(fun _ -> failwith "gone")
       (run_line "d1" "e2"));
  ignore
    (Server.submit_line_routed t ~reply:(fun _ -> ()) (run_line "d2" "e2"));
  let got = ref None in
  ignore
    (Server.submit_line_routed t
       ~reply:(fun r -> got := Some r)
       {|{"v":2,"id":"m","op":"metrics"}|});
  match !got with
  | Some (Protocol.Ok_reply { payload; _ }) ->
      let v name =
        match metric_value payload name with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "metric %s missing" name
      in
      check_int "one dead-sink drop" 1 (v "serve_dropped_total");
      check_int "one queue_full rejection" 1 (v "serve_rejected_total");
      check_int "identity under drops" (v "serve_requests_total")
        (v "serve_replies_ok_total"
        + v "serve_replies_error_total"
        + v "serve_rejected_total"
        + v "serve_dropped_total")
  | _ -> Alcotest.fail "metrics reply missing"

(* ------------------------------------------------------- request log *)

let with_reqlog f =
  let path = Filename.temp_file "oqsc_reqlog" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let log = Serve.Reqlog.open_log path in
      let t =
        Server.create ~capacity:8 ~batch:8
          ~registry:(Obs.Metrics.create_registry ())
          ~log ()
      in
      f t;
      Serve.Reqlog.close log;
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> ""))

let test_reqlog_lifecycle_events () =
  let lines =
    with_reqlog (fun t ->
        ignore (submit_line t (run_line "r1" "e2"));
        ignore (submit_line t "{nope");
        ignore (submit_line t {|{"v":1,"id":"p","op":"ping"}|}))
  in
  match Serve.Reqlog.lint lines with
  | Error problems ->
      Alcotest.failf "engine-written log failed lint: %s"
        (String.concat "; " problems)
  | Ok { Serve.Reqlog.lines = n; admitted; rejected; flushed; replied; dropped }
    ->
      check_int "every line counted" (List.length lines) n;
      check_int "one admission" 1 admitted;
      check_int "one rejection (the malformed line)" 1 rejected;
      check_int "one flush event" 1 flushed;
      check_int "run + ping replied" 2 replied;
      check_int "no drops" 0 dropped

let test_reqlog_lint_catches_violations () =
  (* Hand-corrupted logs: a seq gap, and an undocumented key. *)
  let ok =
    {|{"conn":0,"event":"admitted","id":"a","latency_ms":0.0,"op":"run","queue_depth":1,"seq":0,"ts_ms":1.0}|}
  in
  let gap =
    {|{"conn":0,"event":"replied","id":"a","latency_ms":2.0,"op":"run","queue_depth":0,"seq":5,"ts_ms":2.0}|}
  in
  let extra =
    {|{"conn":0,"event":"replied","extra":1,"id":"a","latency_ms":2.0,"op":"run","queue_depth":0,"seq":1,"ts_ms":2.0}|}
  in
  (match Serve.Reqlog.lint [ ok; gap ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "seq gap must fail lint");
  (match Serve.Reqlog.lint [ ok; extra ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undocumented key must fail lint");
  match Serve.Reqlog.lint [ ok ] with
  | Ok { Serve.Reqlog.admitted = 1; _ } -> ()
  | _ -> Alcotest.fail "well-formed line must pass lint"

(* ----------------------------------------------- golden byte-identity *)

(* The contract CI re-checks against the real binaries: a served payload,
   after the full wire round trip (compact encode, strict decode),
   pretty-prints to the exact bytes of the one-shot CLI document. *)
let served_payload t line =
  let { Server.replies; _ } = submit_line t line in
  let o = submit_line t {|{"v":1,"id":"flush","op":"ping"}|} in
  match
    List.find_map
      (function
        | Protocol.Ok_reply { op = ("run" | "sweep"); _ } as r -> Some r
        | _ -> None)
      (replies @ o.Server.replies)
  with
  | None -> Alcotest.fail "no run/sweep reply"
  | Some reply -> (
      match decode_reply (encode_reply reply) with
      | Protocol.Ok_reply { payload; _ } -> Json.to_string payload
      | Protocol.Error_reply _ -> Alcotest.fail "round trip demoted the reply")

let test_run_payload_matches_oneshot () =
  let t = Server.create () in
  List.iter
    (fun (exp, seed) ->
      check_str
        (Printf.sprintf "served %s seed %d = run-all --only %s" exp seed exp)
        (Json.to_string (Experiments.Registry.document ~quick:true ~seed exp))
        (served_payload t (run_line ~seed "g" exp)))
    [ ("e2", 2006); ("e13", 7) ]

let test_sweep_payload_matches_oneshot () =
  let t = Server.create () in
  let shard = (0, 5) and seed = 2006 in
  let rows = Experiments.Space_audit.rows ~quick:true ~shard ~seed () in
  check_str "served sweep = space-audit --shard 0/5"
    (Json.to_string
       (Experiments.Space_audit.shard_to_json ~shard ~seed ~quick:true rows))
    (served_payload t {|{"v":1,"id":"g","op":"sweep","index":0,"of":5,"quick":true}|})

(* ----------------------------------------------------- payload cache *)

let sweep_line ?(seed = 2006) id index =
  Printf.sprintf
    {|{"v":1,"id":"%s","op":"sweep","index":%d,"of":5,"quick":true,"seed":%d}|}
    id index seed

let oneshot_sweep ~seed index =
  let shard = (index, 5) in
  Json.to_string
    (Experiments.Space_audit.shard_to_json ~shard ~seed ~quick:true
       (Experiments.Space_audit.rows ~quick:true ~shard ~seed ()))

(* One metrics barrier; the counters it read, by name.  The barrier is
   itself a request, so read every value of one check from one scrape. *)
let scrape t =
  match List.rev (submit_line t {|{"v":2,"id":"m","op":"metrics"}|}).Server.replies with
  | Protocol.Ok_reply { payload; _ } :: _ -> (
      fun name ->
        match metric_value payload name with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "metric %s missing from the snapshot" name)
  | _ -> Alcotest.fail "wanted a metrics ok reply"

let test_cache_repeats_across_flushes () =
  (* Each request is flushed on its own (served_payload sends a ping
     barrier), so every repeat finds the first answer stored: three
     keys, three rounds, six hits — and every served payload is still
     the one-shot document byte for byte. *)
  let t = Server.create ~registry:(Obs.Metrics.create_registry ()) () in
  let keys =
    [
      ( run_line ~seed:2006 "g" "e2",
        Json.to_string (Experiments.Registry.document ~quick:true ~seed:2006 "e2") );
      ( run_line ~seed:7 "g" "e13",
        Json.to_string (Experiments.Registry.document ~quick:true ~seed:7 "e13") );
      (sweep_line ~seed:2006 "g" 0, oneshot_sweep ~seed:2006 0);
    ]
  in
  for round = 1 to 3 do
    List.iter
      (fun (line, expected) ->
        check_str
          (Printf.sprintf "round %d: served = one-shot" round)
          expected (served_payload t line))
      keys
  done;
  check_int "one stored payload per key" 3 (Server.cached_payloads t);
  let v = scrape t in
  check_int "every repeat is a hit" 6 (v "serve_cache_hits_total");
  check_int "hits are ok replies: the identity still holds"
    (v "serve_requests_total")
    (v "serve_replies_ok_total"
    + v "serve_replies_error_total"
    + v "serve_rejected_total"
    + v "serve_dropped_total")

let experiment_begins name (d : Obs.Trace.dump) =
  List.length
    (List.filter
       (fun (e : Obs.Trace.event) ->
         e.Obs.Trace.kind = Obs.Trace.Begin && String.equal e.Obs.Trace.name name)
       d.Obs.Trace.events)

let with_trace f =
  Obs.Trace.start ();
  Fun.protect
    ~finally:(fun () -> if Obs.Trace.enabled () then ignore (Obs.Trace.stop ()))
    f

let test_cache_collapses_batch () =
  (* Two identical requests in one batch: one computation, two replies
     carrying the same one-shot bytes, one hit. *)
  let t =
    Server.create ~capacity:8 ~batch:8 ~domains:2
      ~registry:(Obs.Metrics.create_registry ())
      ()
  in
  let replies, dump =
    with_trace (fun () ->
        ignore (submit_line t (run_line ~seed:5 "a" "e12"));
        ignore (submit_line t (run_line ~seed:5 "b" "e12"));
        let o = submit_line t {|{"v":1,"id":"p","op":"ping"}|} in
        (o.Server.replies, Obs.Trace.stop ()))
  in
  check_int "computed once" 1 (experiment_begins "experiment.e12" dump);
  check_int "every request still opens its serve.request span" 2
    (experiment_begins "serve.request" dump);
  let expected =
    Json.to_string (Experiments.Registry.document ~quick:true ~seed:5 "e12")
  in
  Alcotest.(check (list string))
    "both answered, in admission order" [ "a"; "b"; "p" ]
    (List.map reply_id replies);
  List.iter
    (function
      | Protocol.Ok_reply { op = "run"; payload; _ } ->
          check_str "collapsed payload = one-shot" expected
            (Json.to_string payload)
      | _ -> ())
    replies;
  check_int "the collapsed repeat is a hit" 1
    (scrape t "serve_cache_hits_total")

let test_cache_bounded () =
  (* More distinct keys than the cache holds: every reply is still the
     one-shot document, the cache stops at 256 payloads, and a key
     evicted first-in-first-out is recomputed, not served stale. *)
  let t = Server.create ~registry:(Obs.Metrics.create_registry ()) () in
  let payloads = Hashtbl.create 300 in
  let collect { Server.replies; _ } =
    List.iter
      (function
        | Protocol.Ok_reply { op = "run"; id; payload; _ } ->
            Hashtbl.replace payloads id (Json.to_string payload)
        | _ -> ())
      replies
  in
  let seeds = List.init 300 (fun i -> i + 1) in
  List.iter
    (fun seed ->
      collect (submit_line t (run_line ~seed (Printf.sprintf "s%d" seed) "e12")))
    seeds;
  collect { Server.replies = Server.finish t; stop = false };
  check_int "the cache fills to its bound" 256 (Server.cached_payloads t);
  check_int "no repeats, no hits" 0 (scrape t "serve_cache_hits_total");
  (* Seed 1 went in first, so it is gone; seed 300 went in last. *)
  List.iter
    (fun seed ->
      collect (submit_line t (run_line ~seed (Printf.sprintf "again%d" seed) "e12")))
    [ 1; 300 ];
  collect { Server.replies = Server.finish t; stop = false };
  check_int "the evicted key missed, the newest hit" 1
    (scrape t "serve_cache_hits_total");
  check "still bounded" true (Server.cached_payloads t <= 256);
  let expect id seed =
    check_str
      (Printf.sprintf "%s = one-shot e12 seed %d" id seed)
      (Json.to_string (Experiments.Registry.document ~quick:true ~seed "e12"))
      (match Hashtbl.find_opt payloads id with
      | Some p -> p
      | None -> Alcotest.failf "no reply for %s" id)
  in
  List.iter (fun seed -> expect (Printf.sprintf "s%d" seed) seed) seeds;
  expect "again1" 1;
  expect "again300" 300

(* ------------------------------------------------------- bench-serve *)

let mix =
  [
    {|{"v":1,"id":"a","op":"ping"}|};
    run_line "b" "e2";
    {|{"v":1,"id":"c","op":"sweep","index":0,"of":5,"quick":true}|};
    {|{"v":1,"id":"d","op":"run","exp":"e99"}|};
  ]

let test_bench_replay_counts () =
  match Serve.Bench_serve.replay_in_process ~repeat:2 ~capacity:8 ~batch:2 mix with
  | Error msg -> Alcotest.failf "replay failed: %s" msg
  | Ok r ->
      check_int "requests" 8 r.Serve.Bench_serve.requests;
      check_int "replies" 8 r.Serve.Bench_serve.replies;
      check_int "ok" 6 r.Serve.Bench_serve.ok;
      check_int "errors" 2 r.Serve.Bench_serve.errors;
      check "stats payload captured" true
        (match r.Serve.Bench_serve.stats with
        | Json.Obj fields -> List.mem_assoc "p99_ms" fields
        | _ -> false)

let test_bench_rejects_shutdown_in_mix () =
  match
    Serve.Bench_serve.replay_in_process [ {|{"v":1,"id":"z","op":"shutdown"}|} ]
  with
  | Error msg ->
      check "message points at --shutdown" true
        (String.length msg > 0
        &&
        let nh = String.length msg and sub = "shutdown" in
        let nn = String.length sub in
        let rec at i = i + nn <= nh && (String.sub msg i nn = sub || at (i + 1)) in
        at 0)
  | Ok _ -> Alcotest.fail "mixes containing shutdown must be rejected"

let test_bench_rejects_reserved_ids () =
  match
    Serve.Bench_serve.replay_in_process [ {|{"v":1,"id":"bench.x","op":"ping"}|} ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bench.* ids are reserved"

let test_cache_hits_trace_lints () =
  (* A traced replay where most run/sweep requests are hits: every flow
     arrow started at admission still ends in a serve.request span, so
     the exported timeline lints clean, flow pairing included. *)
  let dump =
    with_trace (fun () ->
        (match
           Serve.Bench_serve.replay_in_process ~repeat:4 ~capacity:8 ~batch:2
             mix
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "replay failed: %s" msg);
        Obs.Trace.stop ())
  in
  check "the replay hit the cache: 8 run/sweep requests, 2 computations" true
    (experiment_begins "serve.request" dump = 8
    && experiment_begins "experiment.e2" dump = 1);
  let doc =
    match
      Json.parse (Json.to_string (Experiments.Chrome_trace.document dump))
    with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "trace does not re-parse: %s" msg
  in
  match Experiments.Chrome_trace.lint doc with
  | Ok _ -> ()
  | Error problems ->
      Alcotest.failf "trace with cache hits failed lint: %s"
        (String.concat "; " problems)

(* ----------------------------------------------- stats regressions *)

let stats_field t key =
  match Server.stats_payload t with
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> Alcotest.fail "stats payload must be an object"

let test_percentile_degenerate () =
  (* Regression for the polymorphic-compare sort: percentiles over the
     empty and single-element latency sets must be exact, not whatever
     Stdlib.compare makes of a float array. *)
  let t = Server.create () in
  check "empty p50 = 0" true (stats_field t "p50_ms" = Some (Json.Float 0.0));
  check "empty p99 = 0" true (stats_field t "p99_ms" = Some (Json.Float 0.0));
  ignore (submit_line t (run_line "one" "e2"));
  ignore (submit_line t {|{"v":1,"id":"p","op":"ping"}|});
  check_int "one latency recorded" 1 (Server.recorded_latencies t);
  let f key =
    match stats_field t key with Some (Json.Float v) -> v | _ -> Float.nan
  in
  let p50 = f "p50_ms" and p99 = f "p99_ms" in
  check "single-element p50 = p99" true (Float.equal p50 p99);
  check "single-element percentile is the sample" true
    (Float.is_finite p50 && p50 >= 0.0)

let test_stats_window_bounded () =
  (* Drive the engine 10x past its latency window: the ring must stay
     at exactly [stats_window] entries while [completed] keeps
     counting.  This is the bounded-memory contract behind long-lived
     servers. *)
  let t = Server.create ~capacity:64 ~batch:4 ~stats_window:4 ~domains:2 () in
  check_int "window as configured" 4 (Server.stats_window t);
  for i = 1 to 40 do
    ignore (submit_line t (run_line (Printf.sprintf "m%d" i) "e2"))
  done;
  ignore (submit_line t {|{"v":1,"id":"p","op":"ping"}|});
  check_int "ring never grows past the window" 4 (Server.recorded_latencies t);
  check "completed counts all 40" true
    (stats_field t "completed" = Some (Json.Int 40));
  (match Server.create ~stats_window:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stats_window 0 should raise")

let test_rejected_errors_disjoint () =
  (* queue_full is backpressure, not an error: it must bump [rejected]
     only, while [errors] counts only non-backpressure error replies. *)
  let t = Server.create ~capacity:1 ~batch:4 () in
  ignore (submit_line t (run_line "r1" "e2"));
  ignore (submit_line t (run_line "r2" "e2"));
  ignore (submit_line t "{nope");
  ignore (submit_line t {|{"v":1,"id":"p","op":"ping"}|});
  check "rejected counts only backpressure" true
    (stats_field t "rejected" = Some (Json.Int 1));
  check "errors counts only the parse failure" true
    (stats_field t "errors" = Some (Json.Int 1))

(* ------------------------------------------------- routed interface *)

let test_routed_reply_ownership () =
  (* Two virtual connections share one engine; a barrier on B flushes
     A's queued run, and the run reply must land on A's sink. *)
  let t = Server.create ~capacity:8 ~batch:8 ~domains:2 () in
  let a = ref [] and b = ref [] in
  let sink cell reply = cell := reply :: !cell in
  check "run admitted silently" false
    (Server.submit_line_routed t ~reply:(sink a) (run_line "a1" "e2"));
  check "barrier does not stop" false
    (Server.submit_line_routed t ~reply:(sink b) {|{"v":1,"id":"b1","op":"ping"}|});
  Alcotest.(check (list string))
    "A got exactly its own run reply" [ "a1" ]
    (List.rev_map reply_id !a);
  Alcotest.(check (list string))
    "B got exactly its own barrier reply" [ "b1" ]
    (List.rev_map reply_id !b);
  check "shutdown stops" true
    (Server.submit_line_routed t ~reply:(sink b) {|{"v":1,"id":"z","op":"shutdown"}|})

let test_routed_dead_sink_dropped () =
  (* A sink that raises is a dead connection: its replies are dropped
     and the flush still delivers everyone else's. *)
  let t = Server.create ~capacity:8 ~batch:8 ~domains:2 () in
  let live = ref [] in
  ignore (Server.submit_line_routed t ~reply:(fun _ -> failwith "gone") (run_line "d1" "e2"));
  ignore (Server.submit_line_routed t ~reply:(fun r -> live := r :: !live) (run_line "l1" "e13"));
  Server.flush_routed t;
  Alcotest.(check (list string))
    "live sink still served" [ "l1" ]
    (List.rev_map reply_id !live);
  check "both runs completed" true (stats_field t "completed" = Some (Json.Int 2))

let cheap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun seed -> Protocol.Run { exp = "e2"; quick = true; seed }) (int_bound 4));
        (2, map (fun seed -> Protocol.Run { exp = "e13"; quick = true; seed }) (int_bound 2));
        (1, return (Protocol.Sweep { index = 0; count = 5; quick = true; seed = 2006 }));
      ])

let interleaving_gen =
  QCheck.Gen.(list_size (int_range 1 6) (pair (int_bound 2) cheap_op_gen))

let prop_interleaving_multiset =
  (* Any interleaving of admitted requests across connections yields
     the same multiset of (id, payload bytes) as a sequential replay,
     and each connection's sink receives exactly its own ids. *)
  QCheck.Test.make ~count:12
    ~name:"routed interleavings: sequential payload multiset, own-sink routing"
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (fun (c, op) ->
                Printf.sprintf "c%d:%s" c
                  (match op with
                  | Protocol.Run { exp; seed; _ } -> Printf.sprintf "run %s/%d" exp seed
                  | Protocol.Sweep { index; count; _ } ->
                      Printf.sprintf "sweep %d/%d" index count
                  | _ -> "ctl"))
              ops))
       interleaving_gen)
    (fun ops ->
      let reqs =
        List.mapi
          (fun i (client, op) ->
            ( client,
              { Protocol.v = Protocol.version;
                id = Printf.sprintf "q%d" i;
                op;
              } ))
          ops
      in
      let seq_engine = Server.create ~capacity:16 ~batch:3 ~domains:2 () in
      (* bind before appending: [@] evaluates right-to-left, which would
         run [finish] before the submissions *)
      let flushed =
        List.concat_map (fun (_, req) -> (Server.submit seq_engine req).Server.replies) reqs
      in
      let seq_replies = flushed @ Server.finish seq_engine in
      let routed = Server.create ~capacity:16 ~batch:3 ~domains:2 () in
      let sinks = Array.make 3 [] in
      List.iter
        (fun (client, req) ->
          ignore
            (Server.submit_routed routed
               ~reply:(fun r -> sinks.(client) <- r :: sinks.(client))
               req))
        reqs;
      Server.flush_routed routed;
      let key = function
        | Protocol.Ok_reply { id; payload; _ } -> id ^ "|" ^ Json.to_string payload
        | Protocol.Error_reply { id; code; _ } ->
            Option.value ~default:"<null>" id ^ "|err:" ^ Protocol.code_to_string code
      in
      let multiset rs = List.sort compare (List.map key rs) in
      let routed_replies = Array.to_list sinks |> List.concat_map List.rev in
      let ids_of client =
        List.filter_map
          (fun (c, (req : Protocol.request)) ->
            if c = client then Some req.Protocol.id else None)
          reqs
        |> List.sort compare
      in
      let routing_ok =
        List.for_all
          (fun client ->
            List.sort compare (List.map reply_id sinks.(client)) = ids_of client)
          [ 0; 1; 2 ]
      in
      multiset seq_replies = multiset routed_replies && routing_ok)

(* ------------------------------------------- concurrent socket serving *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let send c line = Protocol.write_frame c.oc line

let recv c =
  match Protocol.read_frame c.ic with
  | Ok (Some body) -> decode_reply body
  | Ok None -> Alcotest.fail "unexpected EOF from server"
  | Error msg -> Alcotest.failf "framing violation: %s" msg

let expect_eof c =
  match Protocol.read_frame c.ic with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "wanted EOF, got a frame"
  | Error msg -> Alcotest.failf "wanted EOF, got framing error: %s" msg

let drain_to_eof c =
  let rec go () =
    match Protocol.read_frame c.ic with
    | Ok (Some _) -> go ()
    | Ok None | Error _ -> ()
    | exception _ -> ()
  in
  go ()

(* Run [f] against a live socket server on a fresh path.  [f] receives
   a client factory; every client it makes is closed on the way out,
   and a server the test failed to stop is shut down here, so a failing
   assertion cannot hang the suite on [Thread.join]. *)
let with_server ?(capacity = 32) ?(batch = 64) ?max_clients f =
  let t = Server.create ~capacity ~batch ~domains:2 () in
  let path = Filename.temp_file "oqsc_serve_test" ".sock" in
  Sys.remove path;
  let th = Thread.create (fun () -> Server.serve_socket ?max_clients t path) () in
  let rec wait n =
    if n <= 0 then Alcotest.fail "server socket never appeared"
    else if Sys.file_exists path then ()
    else (
      Thread.delay 0.02;
      wait (n - 1))
  in
  wait 250;
  let clients = ref [] in
  let mk_client () =
    let c = connect path in
    clients := c :: !clients;
    c
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_client !clients;
      (if Sys.file_exists path then
         try
           let c = connect path in
           send c {|{"v":1,"id":"bench.cleanup","op":"shutdown"}|};
           drain_to_eof c;
           close_client c
         with Unix.Unix_error _ | Sys_error _ -> ());
      Thread.join th)
    (fun () -> f t mk_client path)

let test_socket_concurrent_ordering () =
  (* Three clients interleave runs and barriers on one engine; each
     connection's replies must arrive in exactly its own send order,
     and a shutdown from one client ends service for all of them. *)
  let path =
    with_server (fun _t mk_client path ->
        let clients = Array.init 3 (fun _ -> mk_client ()) in
        Array.iteri
          (fun i c ->
            send c (run_line (Printf.sprintf "c%d.r1" i) "e2");
            send c (run_line (Printf.sprintf "c%d.r2" i) "e13");
            send c (Printf.sprintf {|{"v":1,"id":"c%d.p","op":"ping"}|} i))
          clients;
        Array.iteri
          (fun i c ->
            let got = List.init 3 (fun _ -> reply_id (recv c)) in
            Alcotest.(check (list string))
              (Printf.sprintf "client %d 's replies in its send order" i)
              [
                Printf.sprintf "c%d.r1" i;
                Printf.sprintf "c%d.r2" i;
                Printf.sprintf "c%d.p" i;
              ]
              got)
          clients;
        send clients.(0) {|{"v":1,"id":"z","op":"shutdown"}|};
        check_str "shutdown answered" "z" (reply_id (recv clients.(0)));
        Array.iter expect_eof clients;
        Array.iter close_client clients;
        path)
  in
  check "socket file removed after shutdown" false (Sys.file_exists path)

let test_socket_overload_queue_full () =
  (* capacity 1, batch > capacity: only barriers drain the queue, so
     two clients racing three runs each must see explicit queue_full
     backpressure — and the stats must file it under [rejected], never
     [errors]. *)
  with_server ~capacity:1 ~batch:99 (fun _t mk_client _path ->
      let clients = Array.init 2 (fun _ -> mk_client ()) in
      Array.iteri
        (fun i c ->
          for j = 1 to 3 do
            send c (run_line (Printf.sprintf "c%d.r%d" i j) "e2")
          done;
          send c (Printf.sprintf {|{"v":1,"id":"c%d.p","op":"ping"}|} i))
        clients;
      let ok = ref 0 and rejected = ref 0 in
      Array.iter
        (fun c ->
          for _ = 1 to 4 do
            match recv c with
            | Protocol.Ok_reply { op = "ping"; _ } -> ()
            | Protocol.Ok_reply { op = "run"; _ } -> incr ok
            | Protocol.Ok_reply { op; _ } -> Alcotest.failf "unexpected ok op %s" op
            | Protocol.Error_reply { code = Protocol.Queue_full; _ } -> incr rejected
            | Protocol.Error_reply { message; _ } ->
                Alcotest.failf "unexpected error reply: %s" message
          done)
        clients;
      check_int "every run answered exactly once" 6 (!ok + !rejected);
      check "overload rejected most runs" true (!rejected >= 3);
      check "at least one run admitted" true (!ok >= 1);
      let c = clients.(0) in
      send c {|{"v":1,"id":"s","op":"stats"}|};
      (match recv c with
      | Protocol.Ok_reply { op = "stats"; payload = Json.Obj fields; _ } ->
          check "wire stats: rejected = observed backpressure" true
            (List.assoc_opt "rejected" fields = Some (Json.Int !rejected));
          check "wire stats: queue_full never counts as an error" true
            (List.assoc_opt "errors" fields = Some (Json.Int 0))
      | _ -> Alcotest.fail "wanted a stats reply");
      send c {|{"v":1,"id":"z","op":"shutdown"}|};
      check_str "shutdown answered" "z" (reply_id (recv c));
      Array.iter expect_eof clients;
      Array.iter close_client clients)

let test_socket_max_clients_slot_wait () =
  (* With one slot, a second connection sits in the listen backlog:
     its frames draw no reply until the first client disconnects. *)
  with_server ~max_clients:1 (fun _t mk_client _path ->
      let c1 = mk_client () in
      send c1 {|{"v":1,"id":"p1","op":"ping"}|};
      check_str "slot holder served" "p1" (reply_id (recv c1));
      let c2 = mk_client () in
      send c2 {|{"v":1,"id":"p2","op":"ping"}|};
      let readable, _, _ = Unix.select [ c2.fd ] [] [] 0.3 in
      check "no reply while the slot is taken" true (readable = []);
      close_client c1;
      check_str "served once the slot frees" "p2" (reply_id (recv c2));
      send c2 {|{"v":1,"id":"z","op":"shutdown"}|};
      check_str "shutdown answered" "z" (reply_id (recv c2));
      expect_eof c2;
      close_client c2)

let test_socket_ghost_disconnect_survives () =
  (* A client that queues work and vanishes without reading a single
     reply makes the server's writer hit a broken pipe when the EOF
     flush tries to deliver.  The process must survive — SIGPIPE is
     ignored and EPIPE is handled as a dead connection — and every
     other client must keep being served.  (Under the default signal
     disposition this test kills the whole test runner.) *)
  with_server (fun _t mk_client _path ->
      let ghost = mk_client () in
      send ghost (run_line "g1" "e2");
      send ghost (run_line "g2" "e13");
      close_client ghost;
      (* Give the ghost's reader its EOF flush so the writer's doomed
         delivery actually happens before we probe the server. *)
      Thread.delay 0.2;
      let c = mk_client () in
      send c {|{"v":1,"id":"p","op":"ping"}|};
      check_str "server alive after ghost disconnect" "p" (reply_id (recv c));
      send c {|{"v":1,"id":"z","op":"shutdown"}|};
      check_str "shutdown answered" "z" (reply_id (recv c));
      expect_eof c;
      close_client c)

let test_bench_socket_concurrent_clients () =
  (* End-to-end: a live socket server under the bench replayer's
     concurrent mode, strict decoding and per-connection ordering
     included. *)
  with_server ~capacity:64 ~batch:8 (fun _t _mk_client path ->
      let mix =
        [
          run_line "x1" "e2";
          run_line "x2" "e13";
          {|{"v":1,"id":"x3","op":"ping"}|};
          run_line "x4" "e2" ~seed:7;
          {|{"v":1,"id":"x5","op":"sweep","index":0,"of":5,"quick":true,"seed":2006}|};
          run_line "x6" "e13" ~seed:1;
        ]
      in
      match
        Serve.Bench_serve.replay_socket ~clients:3 ~repeat:2 ~shutdown:true
          ~socket:path mix
      with
      | Error msg -> Alcotest.failf "concurrent replay failed: %s" msg
      | Ok r ->
          check_int "requests" 12 r.Serve.Bench_serve.requests;
          check_int "replies" 12 r.Serve.Bench_serve.replies;
          check_int "all ok" 12 r.Serve.Bench_serve.ok;
          check_int "no errors" 0 r.Serve.Bench_serve.errors;
          check "server-side stats captured" true
            (match r.Serve.Bench_serve.stats with
            | Json.Obj fields -> List.mem_assoc "p99_ms" fields
            | _ -> false))

let suite =
  [
    ("malformed line -> parse_error, id null", `Quick, test_rejects_malformed);
    ("unknown version -> unsupported_version", `Quick, test_rejects_unknown_version);
    ("unknown op -> unknown_op", `Quick, test_rejects_unknown_op);
    ("unknown experiment -> unknown_experiment", `Quick, test_rejects_unknown_experiment);
    ("shard bounds -> bad_shard", `Quick, test_rejects_bad_shard);
    ("undocumented request key -> bad_request", `Quick, test_rejects_undocumented_request_key);
    ("ill-formed id -> bad_request", `Quick, test_rejects_bad_id);
    ("undocumented reply key / code / version rejected", `Quick, test_rejects_undocumented_reply_key);
    ("frame codec round trip + clean EOF", `Quick, test_frame_roundtrip);
    ("frame violations: oversize, truncation, overlong body", `Quick, test_frame_violations);
    ("bounded queue: FIFO, capacity, peak", `Quick, test_queue_fifo);
    ("batch threshold flushes in admission order", `Quick, test_batch_flush_order);
    ("control requests are flush barriers", `Quick, test_control_barrier);
    ("queue_full backpressure, counted in stats", `Quick, test_queue_full_backpressure);
    ("request errors answer without stopping", `Quick, test_error_reply_for_bad_line);
    ("stats payload carries exactly the documented keys", `Quick, test_stats_payload_keys);
    ("shutdown drains then stops", `Quick, test_shutdown_stops);
    ("queue observe hook sees depth transitions", `Quick, test_queue_observe_hook);
    ("metrics op requires protocol v2", `Quick, test_metrics_gated_by_version);
    ("replies echo the request's version", `Quick, test_reply_echoes_request_version);
    ("metrics is a barrier; accounting identity holds", `Quick, test_metrics_barrier_and_accounting);
    ("metrics counts drops and rejections", `Quick, test_metrics_counts_drops_and_rejections);
    ("request log: engine-written stream passes lint", `Quick, test_reqlog_lifecycle_events);
    ("request log: lint rejects gaps and stray keys", `Quick, test_reqlog_lint_catches_violations);
    ("served run payload = one-shot document (via wire)", `Quick, test_run_payload_matches_oneshot);
    ("served sweep payload = one-shot shard (via wire)", `Quick, test_sweep_payload_matches_oneshot);
    ("bench replay: counts and stats capture", `Quick, test_bench_replay_counts);
    ("bench replay rejects shutdown in a mix", `Quick, test_bench_rejects_shutdown_in_mix);
    ("bench replay rejects reserved bench.* ids", `Quick, test_bench_rejects_reserved_ids);
    ("percentiles over empty / single latency sets", `Quick, test_percentile_degenerate);
    ("latency ring bounded at stats_window under 10x load", `Quick, test_stats_window_bounded);
    ("rejected and errors stats are disjoint", `Quick, test_rejected_errors_disjoint);
    ("routed replies land on the owning sink", `Quick, test_routed_reply_ownership);
    ("a dead sink drops its replies, others delivered", `Quick, test_routed_dead_sink_dropped);
    ("socket: per-connection ordering, shared shutdown", `Quick, test_socket_concurrent_ordering);
    ("socket: overload draws queue_full, counted as rejected", `Quick, test_socket_overload_queue_full);
    ("socket: max-clients gates the accept loop", `Quick, test_socket_max_clients_slot_wait);
    ("socket: disconnect with replies in flight never kills the server", `Quick, test_socket_ghost_disconnect_survives);
    ("bench-serve --clients 3 against a live socket", `Quick, test_bench_socket_concurrent_clients);
    ("deep nesting -> parse_error, fast", `Quick, test_rejects_deep_nesting);
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_request_roundtrip; prop_reply_roundtrip; prop_interleaving_multiset ]
  @ [
      ("cache: repeats across flushes = one-shot bytes, counted as hits", `Quick, test_cache_repeats_across_flushes);
      ("cache: identical requests in one batch computed once", `Quick, test_cache_collapses_batch);
      ("cache: bounded; FIFO eviction recomputes", `Quick, test_cache_bounded);
      ("cache: traced replay with hits passes trace-lint", `Quick, test_cache_hits_trace_lints);
      ("metrics doc: exact key sets per entry", `Quick, test_metrics_doc_exact_keys);
    ]
