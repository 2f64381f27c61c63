(* Tests for the Obs.Trace timeline layer and its Chrome trace-event
   export: disabled-path no-ops, span pairing and exception safety,
   bounded buffers, the Parallel and Scope bridges, the determinism
   contract (tracing must never change seeded results), and the
   structural linter CI runs over emitted documents. *)

open Mathx
module T = Obs.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every test that starts a session must stop it, pass or fail —
   tracing is process-global and the next test expects it off. *)
let with_session ?capacity f =
  T.start ?capacity ();
  Fun.protect ~finally:(fun () -> if T.enabled () then ignore (T.stop ())) f

let names kind (d : T.dump) =
  List.filter_map
    (fun (e : T.event) -> if e.T.kind = kind then Some e.T.name else None)
    d.T.events

(* ------------------------------------------------------------ disabled *)

let test_disabled_noops () =
  check "tracing is off by default" false (T.enabled ());
  check_int "with_span is transparent when off" 41 (T.with_span "x" (fun () -> 41));
  (* Probes without a session are no-ops, not errors. *)
  T.instant "ignored";
  T.counter "ignored" [ ("v", 1.0) ];
  let d = T.stop () in
  check "stop without a session yields no events" true (d.T.events = []);
  check_int "nothing dropped either" 0 d.T.dropped

(* --------------------------------------------------------------- spans *)

let test_balanced_spans () =
  let d =
    with_session (fun () ->
        T.with_span ~args:[ ("k", T.Int 3) ] "outer" (fun () ->
            T.instant "tick";
            T.with_span "inner" (fun () -> ());
            T.counter "gc" [ ("words", 7.0) ]);
        T.stop ())
  in
  Alcotest.(check (list string))
    "begins in call order" [ "outer"; "inner" ] (names T.Begin d);
  Alcotest.(check (list string))
    "ends in close order" [ "inner"; "outer" ] (names T.End d);
  Alcotest.(check (list string)) "instant recorded" [ "tick" ] (names T.Instant d);
  Alcotest.(check (list string)) "counter recorded" [ "gc" ] (names T.Counter d);
  check "timestamps nondecreasing in dump order" true
    (let rec mono = function
       | (a : T.event) :: (b :: _ as rest) ->
           Int64.compare a.T.ts_ns b.T.ts_ns <= 0 && mono rest
       | _ -> true
     in
     mono d.T.events);
  check "no event predates the session clock zero" true
    (List.for_all
       (fun (e : T.event) -> Int64.compare e.T.ts_ns d.T.t0_ns >= 0)
       d.T.events);
  check "span args survive" true
    (List.exists
       (fun (e : T.event) ->
         e.T.kind = T.Begin && e.T.args = [ ("k", T.Int 3) ])
       d.T.events);
  check_int "no drops" 0 d.T.dropped

let test_span_exception_safe () =
  let d =
    with_session (fun () ->
        (try T.with_span "boom" (fun () -> failwith "boom")
         with Failure _ -> ());
        T.stop ())
  in
  Alcotest.(check (list string)) "begin recorded" [ "boom" ] (names T.Begin d);
  Alcotest.(check (list string))
    "end emitted on the exception path" [ "boom" ] (names T.End d)

let test_capacity_drops () =
  let d =
    with_session ~capacity:8 (fun () ->
        for i = 0 to 19 do
          T.instant ~args:[ ("i", T.Int i) ] "tick"
        done;
        T.stop ())
  in
  check_int "buffer keeps the prefix" 8 (List.length d.T.events);
  check_int "the rest are counted as dropped" 12 d.T.dropped;
  (* Drop-newest: the survivors are the FIRST eight ticks. *)
  check "survivors are the oldest events" true
    (List.for_all2
       (fun (e : T.event) i -> e.T.args = [ ("i", T.Int i) ])
       d.T.events
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_sessions_isolated () =
  let first =
    with_session (fun () ->
        T.instant "first-session";
        T.stop ())
  in
  let second =
    with_session (fun () ->
        T.instant "second-session";
        T.stop ())
  in
  Alcotest.(check (list string))
    "first session sees only its event" [ "first-session" ]
    (names T.Instant first);
  Alcotest.(check (list string))
    "a new session starts empty" [ "second-session" ]
    (names T.Instant second)

(* ------------------------------------------------------------- bridges *)

let test_scope_bridge_both_layers () =
  let sink = Obs.create () in
  let d =
    with_session (fun () ->
        Obs.Scope.with_sink sink (fun () ->
            Obs.Scope.with_span "phase" (fun () -> ()));
        T.stop ())
  in
  check_int "gated span counter on the sink" 1 (Obs.count sink "span.phase");
  Alcotest.(check (list string))
    "same call yields a timed slice" [ "phase" ] (names T.Begin d);
  Alcotest.(check (list string)) "which closes" [ "phase" ] (names T.End d)

let test_parallel_chunk_spans_balance () =
  let d =
    with_session (fun () ->
        (* The calling domain records a span of its own: the spawned
           worker may steal every chunk, leaving the caller's track
           otherwise empty. *)
        T.with_span "caller" (fun () ->
            ignore
              (Parallel.map_chunks ~domains:2 ~chunks:5
                 (fun ~chunk ~rng:_ -> chunk)
                 ~rng:(Rng.create 3)));
        T.stop ())
  in
  let count kind name =
    List.length
      (List.filter (fun n -> n = name) (names kind d))
  in
  check_int "one begin per chunk" 5 (count T.Begin "parallel.map_chunk");
  check_int "one end per chunk" 5 (count T.End "parallel.map_chunk");
  (* domains:2 with 5 chunks always spawns exactly one worker domain,
     whatever the core count — the trace must show its span and its
     track. *)
  check_int "one spawned worker span" 1 (count T.Begin "parallel.worker");
  check_int "which closes" 1 (count T.End "parallel.worker");
  check "events land on at least two tracks" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun (e : T.event) -> e.T.domain) d.T.events))
    >= 2);
  (* Replay each domain's stream: every End must close the innermost
     Begin of the same name on the same track. *)
  let stacks = Hashtbl.create 4 in
  let balanced = ref true in
  List.iter
    (fun (e : T.event) ->
      let stack =
        match Hashtbl.find_opt stacks e.T.domain with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks e.T.domain s;
            s
      in
      match e.T.kind with
      | T.Begin -> stack := e.T.name :: !stack
      | T.End -> (
          match !stack with
          | top :: rest when top = e.T.name -> stack := rest
          | _ -> balanced := false)
      | T.Instant | T.Counter | T.Flow_start | T.Flow_end -> ())
    d.T.events;
  Hashtbl.iter (fun _ s -> if !s <> [] then balanced := false) stacks;
  check "per-domain LIFO pairing holds" true !balanced

(* --------------------------------------------------------- determinism *)

let test_traced_run_identical () =
  let serialize body =
    Experiments.Json.to_string
      (Experiments.Json.of_result
         {
           Experiments.Report.id = "probe";
           description = "";
           seed = 0;
           quick = true;
           wall_ms = 0.0;
           resources = [];
           body;
         })
  in
  let plain = Experiments.E3_recognizer.body ~quick:true ~seed:11 () in
  let traced =
    with_session (fun () ->
        let body = Experiments.E3_recognizer.body ~quick:true ~seed:11 () in
        let d = T.stop () in
        check "the traced run actually recorded kernels" true
          (List.mem "state.gate1" (names T.Begin d));
        body)
  in
  Alcotest.(check string)
    "traced = untraced, byte for byte" (serialize plain) (serialize traced)

let test_registry_gc_telemetry () =
  let d =
    with_session (fun () ->
        ignore (Experiments.Registry.result ~quick:true ~seed:11 "e12");
        T.stop ())
  in
  Alcotest.(check (list string))
    "one gc instant per experiment" [ "gc.experiment" ] (names T.Instant d);
  Alcotest.(check (list string))
    "cumulative gc counter sampled" [ "gc" ] (names T.Counter d);
  check "experiment span present" true
    (List.mem "experiment.e12" (names T.Begin d))

(* ------------------------------------------------------ chrome export *)

let roundtrip dump =
  match Experiments.Json.parse (Experiments.Json.to_string (Experiments.Chrome_trace.document dump)) with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "emitted trace does not re-parse: %s" msg

let test_export_lints_clean () =
  let dump =
    with_session (fun () ->
        ignore (Experiments.Registry.result ~quick:true ~seed:11 "e12");
        T.stop ())
  in
  match Experiments.Chrome_trace.lint (roundtrip dump) with
  | Ok { Experiments.Chrome_trace.events; tracks; max_depth } ->
      check "events counted" true (events > 0);
      check "at least the calling domain's track" true (tracks >= 1);
      check "experiment span gives depth >= 1" true (max_depth >= 1)
  | Error problems ->
      Alcotest.failf "lint rejected a clean trace: %s" (String.concat "; " problems)

let test_export_drops_flagged () =
  let dump =
    with_session ~capacity:4 (fun () ->
        for _ = 1 to 10 do
          T.instant "tick"
        done;
        T.stop ())
  in
  match Experiments.Chrome_trace.lint (roundtrip dump) with
  | Ok _ -> Alcotest.fail "lint accepted a trace with drops"
  | Error problems ->
      check "drop count reported" true
        (List.exists
           (fun p ->
             (* "dropped: 6 event(s) lost to a full buffer" *)
             String.length p >= 7 && String.sub p 0 7 = "dropped")
           problems)

let test_flow_events_roundtrip () =
  (* A flow arrow recorded across two spans exports as paired "s"/"f"
     events sharing a string id, and the exported document lints
     clean. *)
  let dump =
    with_session (fun () ->
        T.with_span "admit" (fun () -> T.flow_start ~id:7 "req");
        T.with_span "dispatch" (fun () -> T.flow_end ~id:7 "req");
        T.stop ())
  in
  Alcotest.(check (list string))
    "flow start recorded" [ "req" ] (names T.Flow_start dump);
  Alcotest.(check (list string))
    "flow end recorded" [ "req" ] (names T.Flow_end dump);
  check "flow ids correlate the two ends" true
    (List.for_all
       (fun (e : T.event) ->
         match e.T.kind with
         | T.Flow_start | T.Flow_end -> e.T.flow = 7
         | _ -> e.T.flow = 0)
       dump.T.events);
  match Experiments.Chrome_trace.lint (roundtrip dump) with
  | Ok { Experiments.Chrome_trace.events; _ } -> check_int "six events" 6 events
  | Error problems ->
      Alcotest.failf "lint rejected a paired flow: %s"
        (String.concat "; " problems)

let test_live_dropped_counter () =
  check_int "dropped reads 0 with tracing off" 0 (T.dropped ());
  with_session ~capacity:4 (fun () ->
      check_int "fresh session starts at 0" 0 (T.dropped ());
      for _ = 1 to 10 do
        T.instant "tick"
      done;
      (* Readable live, without stopping the session — what the serve
         stats reply surfaces. *)
      check_int "live counter matches the overflow" 6 (T.dropped ());
      let d = T.stop () in
      check_int "dump agrees with the live counter" 6 d.T.dropped)

let bad_doc events =
  let open Experiments.Json in
  let ev ph name ts =
    Obj
      [
        ("ph", Str ph); ("name", Str name); ("pid", Int 1); ("tid", Int 0);
        ("ts", Float ts);
      ]
  in
  Obj
    [
      ("kind", Str "oqsc-trace");
      ("version", Int 1);
      ("dropped", Int 0);
      ("traceEvents", List (List.map (fun (ph, name, ts) -> ev ph name ts) events));
    ]

let expect_lint_error what doc =
  match Experiments.Chrome_trace.lint doc with
  | Ok _ -> Alcotest.failf "lint accepted %s" what
  | Error problems -> check (what ^ " produces at least one error") true (problems <> [])

let test_lint_catches_structural_faults () =
  expect_lint_error "an unmatched E"
    (bad_doc [ ("E", "orphan", 1.0) ]);
  expect_lint_error "a never-closed B"
    (bad_doc [ ("B", "open", 1.0) ]);
  expect_lint_error "crossed span names"
    (bad_doc [ ("B", "a", 1.0); ("B", "b", 2.0); ("E", "a", 3.0); ("E", "b", 4.0) ]);
  expect_lint_error "time running backwards on a track"
    (bad_doc [ ("i", "t1", 5.0); ("i", "t2", 4.0) ]);
  expect_lint_error "an unknown phase"
    (bad_doc [ ("X", "weird", 1.0) ]);
  expect_lint_error "an unpaired flow start"
    (let open Experiments.Json in
     let flow ph id ts =
       Obj
         [
           ("ph", Str ph); ("cat", Str "flow"); ("id", Str id);
           ("name", Str "req"); ("pid", Int 1); ("tid", Int 0); ("ts", Float ts);
         ]
     in
     Obj
       [
         ("kind", Str "oqsc-trace");
         ("version", Int 1);
         ("dropped", Int 0);
         ("traceEvents", List [ flow "s" "1" 1.0; flow "s" "2" 2.0; flow "f" "2" 3.0 ]);
       ]);
  expect_lint_error "a foreign document"
    (Experiments.Json.Obj [ ("kind", Experiments.Json.Str "oqsc-results") ]);
  (* Balanced interleaving across DIFFERENT tracks must pass. *)
  let open Experiments.Json in
  let ev ph name tid ts =
    Obj
      [
        ("ph", Str ph); ("name", Str name); ("pid", Int 1); ("tid", Int tid);
        ("ts", Float ts);
      ]
  in
  let doc =
    Obj
      [
        ("kind", Str "oqsc-trace");
        ("version", Int 1);
        ("dropped", Int 0);
        ( "traceEvents",
          List
            [
              ev "B" "a" 0 1.0; ev "B" "b" 1 2.0; ev "E" "a" 0 3.0;
              ev "E" "b" 1 4.0;
            ] );
      ]
  in
  match Experiments.Chrome_trace.lint doc with
  | Ok { Experiments.Chrome_trace.events; tracks; max_depth } ->
      check_int "four events" 4 events;
      check_int "two tracks" 2 tracks;
      check_int "depth one per track" 1 max_depth
  | Error problems ->
      Alcotest.failf "lint rejected cross-track interleaving: %s"
        (String.concat "; " problems)

(* ---------------------------------------------------------- properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"nested spans emit one balanced B/E pair per level"
      ~count:50 (int_range 0 40)
      (fun depth ->
        let d =
          with_session (fun () ->
              let rec nest k = if k > 0 then T.with_span "n" (fun () -> nest (k - 1)) in
              nest depth;
              T.stop ())
        in
        List.length (names T.Begin d) = depth
        && List.length (names T.End d) = depth
        && d.T.dropped = 0);
    Test.make ~name:"exported document always re-parses and lints clean"
      ~count:30
      (small_list (int_range 0 5))
      (fun widths ->
        let d =
          with_session (fun () ->
              List.iteri
                (fun i w ->
                  T.with_span "step" (fun () ->
                      for _ = 1 to w do
                        T.instant ~args:[ ("i", T.Int i) ] "tick"
                      done))
                widths;
              T.stop ())
        in
        match Experiments.Chrome_trace.lint (roundtrip d) with
        | Ok s -> s.Experiments.Chrome_trace.events = List.length d.T.events
        | Error _ -> false);
  ]

let suite =
  [
    ("disabled no-ops", `Quick, test_disabled_noops);
    ("balanced spans", `Quick, test_balanced_spans);
    ("span exception safety", `Quick, test_span_exception_safe);
    ("capacity drops newest", `Quick, test_capacity_drops);
    ("sessions isolated", `Quick, test_sessions_isolated);
    ("scope bridges both layers", `Quick, test_scope_bridge_both_layers);
    ("parallel chunk spans balance", `Quick, test_parallel_chunk_spans_balance);
    ("traced run identical", `Quick, test_traced_run_identical);
    ("registry gc telemetry", `Quick, test_registry_gc_telemetry);
    ("export lints clean", `Quick, test_export_lints_clean);
    ("export flags drops", `Quick, test_export_drops_flagged);
    ("flow arrows export paired and lint clean", `Quick, test_flow_events_roundtrip);
    ("live dropped counter matches the dump", `Quick, test_live_dropped_counter);
    ("lint catches structural faults", `Quick, test_lint_catches_structural_faults);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
