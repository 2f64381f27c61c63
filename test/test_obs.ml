(* Tests for the Obs resource-tracing layer: sink semantics, the
   ambient scope, the Parallel chunk-sink bridge, and the determinism
   contract (instrumented and uninstrumented runs must produce the same
   experiment results, byte for byte once serialized). *)

open Mathx

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------- sinks *)

let test_counter_basics () =
  let t = Obs.create () in
  check_int "unset counter reads 0" 0 (Obs.count t "x");
  Obs.incr t "x";
  Obs.add t "x" 4;
  Obs.add t "x" 0;
  check_int "1 + 4 + 0" 5 (Obs.count t "x");
  check_int "other counters unaffected" 0 (Obs.count t "y");
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Obs.add: counters are monotonic")
    (fun () -> Obs.add t "x" (-1))

let test_gauge_interleaved () =
  let t = Obs.create () in
  check_int "unset gauge level" 0 (Obs.gauge_level t "g");
  check_int "unset gauge peak" 0 (Obs.gauge_peak t "g");
  Obs.gauge_add t "g" 10;
  Obs.gauge_add t "g" (-4);
  Obs.gauge_add t "g" 5;
  (* level 11 > previous peak 10 *)
  Obs.gauge_add t "g" (-11);
  check_int "level is the running sum" 0 (Obs.gauge_level t "g");
  check_int "peak is the high-water mark" 11 (Obs.gauge_peak t "g")

let test_gauge_observe () =
  let t = Obs.create () in
  Obs.gauge_add t "g" 3;
  Obs.gauge_observe t "g" 9;
  Obs.gauge_observe t "g" 2;
  check_int "observe raises the peak only" 9 (Obs.gauge_peak t "g");
  check_int "observe leaves the level alone" 3 (Obs.gauge_level t "g")

let test_span_nesting () =
  let t = Obs.create () in
  check_int "no open spans" 0 (Obs.span_depth t);
  let r =
    Obs.with_span t "outer" (fun () ->
        check_int "depth 1 inside" 1 (Obs.span_depth t);
        Obs.with_span t "inner" (fun () -> Obs.span_depth t))
  in
  check_int "depth 2 in the inner span" 2 r;
  check_int "depth restored" 0 (Obs.span_depth t);
  check_int "outer counted" 1 (Obs.count t "span.outer");
  check_int "inner counted" 1 (Obs.count t "span.inner");
  check_int "peak depth on the span.depth gauge" 2
    (Obs.gauge_peak t "span.depth")

let test_span_exception_safe () =
  let t = Obs.create () in
  (try Obs.with_span t "boom" (fun () -> failwith "boom") with Failure _ -> ());
  check_int "depth restored after an exception" 0 (Obs.span_depth t);
  check_int "entry still counted" 1 (Obs.count t "span.boom")

let test_snapshot_sorted_and_peaks () =
  let t = Obs.create () in
  Obs.add t "b.counter" 2;
  Obs.add t "a.counter" 1;
  Obs.gauge_add t "z.gauge" 7;
  Obs.gauge_add t "z.gauge" (-7);
  let snap = Obs.snapshot t in
  Alcotest.(check (list (pair string int)))
    "sorted, gauges serialized as <name>.peak"
    [ ("a.counter", 1); ("b.counter", 2); ("z.gauge.peak", 7) ]
    snap

let test_merge_semantics () =
  let a = Obs.create () and b = Obs.create () in
  Obs.add a "c" 3;
  Obs.add b "c" 4;
  Obs.add b "only_b" 1;
  Obs.gauge_add a "g" 10;
  Obs.gauge_add a "g" (-10);
  Obs.gauge_add b "g" 6;
  Obs.merge ~into:a b;
  check_int "counters add" 7 (Obs.count a "c");
  check_int "missing counters appear" 1 (Obs.count a "only_b");
  check_int "gauge peaks combine by max" 10 (Obs.gauge_peak a "g");
  check_int "gauge levels add" 6 (Obs.gauge_level a "g")

(* ------------------------------------------------------------- scope *)

let test_scope_install_restore () =
  check "no ambient sink by default" true (Obs.Scope.current () = None);
  (* Probes without a sink are no-ops, not errors. *)
  Obs.Scope.incr "ignored";
  Obs.Scope.gauge_add "ignored" 5;
  let outer = Obs.create () and inner = Obs.create () in
  Obs.Scope.with_sink outer (fun () ->
      Obs.Scope.incr "seen";
      check "current = installed" true (Obs.Scope.current () = Some outer);
      Obs.Scope.with_sink inner (fun () -> Obs.Scope.incr "seen");
      check "outer restored after nested extent" true
        (Obs.Scope.current () = Some outer);
      Obs.Scope.incr "seen");
  check "slot empty again" true (Obs.Scope.current () = None);
  check_int "outer saw its two probes" 2 (Obs.count outer "seen");
  check_int "inner saw the nested probe" 1 (Obs.count inner "seen")

let test_scope_restores_on_exception () =
  let sink = Obs.create () in
  (try Obs.Scope.with_sink sink (fun () -> failwith "boom")
   with Failure _ -> ());
  check "slot cleared after an exception" true (Obs.Scope.current () = None)

(* -------------------------------------------------- parallel bridge *)

let test_parallel_bridge_domain_independent () =
  let work ~chunk ~rng =
    Obs.Scope.add "work.items" (chunk + 1);
    Obs.Scope.gauge_add "work.live" (chunk + 1);
    Obs.Scope.gauge_add "work.live" (-(chunk + 1));
    ignore (Rng.int rng 100)
  in
  let snap domains =
    let sink = Obs.create () in
    Obs.Scope.with_sink sink (fun () ->
        ignore
          (Parallel.map_chunks ~domains ~chunks:6 work ~rng:(Rng.create 7)));
    Obs.snapshot sink
  in
  let seq = snap 1 and par = snap 4 in
  Alcotest.(check (list (pair string int)))
    "sequential and 4-domain snapshots agree" seq par;
  check_int "all chunks merged" 21 (List.assoc "work.items" seq);
  check_int "one split per chunk counted" 6 (List.assoc "rng.splits" seq);
  (* One explicit draw per chunk; splitting draws internally too, so
     only a lower bound is stable. *)
  check "rng draws counted across domains" true
    (List.assoc "rng.draws" seq >= 6)

(* --------------------------------------------------------- determinism *)

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

let test_instrumented_run_identical () =
  (* The sink observes; it must never feed back into seeded results. *)
  let plain = Experiments.E3_recognizer.body ~quick:true ~seed:11 () in
  let sink = Obs.create () in
  let traced =
    Obs.Scope.with_sink sink (fun () ->
        Experiments.E3_recognizer.body ~quick:true ~seed:11 ())
  in
  Alcotest.(check string)
    "instrumented = uninstrumented, byte for byte" (serialize plain)
    (serialize traced);
  check "rng draws observed" true (Obs.count sink "rng.draws" > 0);
  check "quantum gates observed" true (Obs.count sink "quantum.gates" > 0);
  check "workspace peak observed" true
    (Obs.gauge_peak sink "workspace.classical_bits" > 0)

let test_registry_resources () =
  let r = Experiments.Registry.result ~quick:true ~seed:11 "e3" in
  check "resources section nonempty" true (r.Experiments.Report.resources <> []);
  let sorted =
    List.sort compare (List.map fst r.Experiments.Report.resources)
  in
  check "resources keys sorted" true
    (List.map fst r.Experiments.Report.resources = sorted);
  let again = Experiments.Registry.result ~quick:true ~seed:11 "e3" in
  check "resources reproducible" true
    (r.Experiments.Report.resources = again.Experiments.Report.resources)

let test_registry_parallel_vs_sequential () =
  let doc domains =
    Experiments.Json.to_string
      (Experiments.Json.of_results ~seed:11 ~quick:true
         (Experiments.Registry.results ~quick:true ~seed:11 ~domains
            ~only:[ "e3"; "e12" ] ()))
  in
  Alcotest.(check string)
    "parallel and sequential documents identical (resources included)"
    (doc 1) (doc 2)

(* ---------------------------------------------------------- properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"counter equals the sum of its increments" ~count:200
      (small_list small_nat)
      (fun deltas ->
        let t = Obs.create () in
        List.iter (Obs.add t "c") deltas;
        Obs.count t "c" = List.fold_left ( + ) 0 deltas);
    Test.make ~name:"counter is monotonic along any increment sequence"
      ~count:200 (small_list small_nat)
      (fun deltas ->
        let t = Obs.create () in
        List.for_all
          (fun d ->
            let before = Obs.count t "c" in
            Obs.add t "c" d;
            Obs.count t "c" >= before)
          deltas);
    Test.make
      ~name:"gauge: level = sum, peak = max(0, max prefix sum) interleaved"
      ~count:300
      (small_list (int_range (-50) 50))
      (fun deltas ->
        let t = Obs.create () in
        let _, peak =
          List.fold_left
            (fun (level, peak) d ->
              Obs.gauge_add t "g" d;
              let level = level + d in
              (level, max peak level))
            (0, 0) deltas
        in
        Obs.gauge_level t "g" = List.fold_left ( + ) 0 deltas
        && Obs.gauge_peak t "g" = peak);
    Test.make ~name:"span nesting: peak depth = requested depth" ~count:100
      (int_range 0 30)
      (fun depth ->
        let t = Obs.create () in
        let rec nest d =
          if d = 0 then Obs.span_depth t
          else Obs.with_span t "n" (fun () -> nest (d - 1))
        in
        let innermost = nest depth in
        innermost = depth
        && Obs.span_depth t = 0
        && Obs.count t "span.n" = depth
        && Obs.gauge_peak t "span.depth" = depth);
    Test.make ~name:"merge agrees with recording into one sink" ~count:200
      (pair (small_list small_nat) (small_list small_nat))
      (fun (xs, ys) ->
        let one = Obs.create () in
        List.iter (Obs.add one "c") (xs @ ys);
        List.iter (Obs.gauge_add one "g") (xs @ ys);
        let a = Obs.create () and b = Obs.create () in
        List.iter (Obs.add a "c") xs;
        List.iter (Obs.gauge_add a "g") xs;
        List.iter (Obs.add b "c") ys;
        List.iter (Obs.gauge_add b "g") ys;
        let peak_a = Obs.gauge_peak a "g" and peak_b = Obs.gauge_peak b "g" in
        Obs.merge ~into:a b;
        (* Counters and levels agree exactly; the merged peak is the max
           of the per-sink peaks — possibly lower than the single-sink
           peak, because b restarts from level 0, but never higher. *)
        Obs.count a "c" = Obs.count one "c"
        && Obs.gauge_level a "g" = Obs.gauge_level one "g"
        && Obs.gauge_peak a "g" <= Obs.gauge_peak one "g"
        && Obs.gauge_peak a "g" = max peak_a peak_b);
  ]
  @
  (* merge is commutative and associative up to everything a sink can
     report — including span counters and gauges driven negative.
     [merge] mutates its [into] argument, so every comparison rebuilds
     its sinks from the generated scripts. *)
  let script =
    QCheck.(
      small_list
        (oneof
           [
             map (fun n -> `Add n) small_nat;
             map (fun d -> `Gauge d) (int_range (-50) 50);
             map (fun v -> `Observe v) (int_range 0 100);
             oneofl [ `Span ];
           ]))
  in
  let build ops =
    let t = Obs.create () in
    List.iter
      (function
        | `Add n -> Obs.add t "c" n
        | `Gauge d -> Obs.gauge_add t "g" d
        | `Observe v -> Obs.gauge_observe t "w" v
        | `Span -> Obs.with_span t "s" (fun () -> Obs.gauge_add t "g" (-1)))
      ops;
    t
  in
  let observe t =
    (Obs.snapshot t, Obs.gauge_level t "g", Obs.gauge_level t "w")
  in
  let open QCheck in
  [
    Test.make ~name:"merge is commutative on spans and negative gauges"
      ~count:200 (pair script script)
      (fun (sa, sb) ->
        let ab =
          let a = build sa and b = build sb in
          Obs.merge ~into:a b;
          observe a
        in
        let ba =
          let a = build sa and b = build sb in
          Obs.merge ~into:b a;
          observe b
        in
        ab = ba);
    Test.make ~name:"merge is associative on spans and negative gauges"
      ~count:200
      (triple script script script)
      (fun (sa, sb, sc) ->
        let left =
          let a = build sa and b = build sb and c = build sc in
          Obs.merge ~into:a b;
          Obs.merge ~into:a c;
          observe a
        in
        let right =
          let a = build sa and b = build sb and c = build sc in
          Obs.merge ~into:b c;
          Obs.merge ~into:a b;
          observe a
        in
        left = right);
    Test.make ~name:"merging an empty sink is the identity" ~count:200 script
      (fun s ->
        let a = build s in
        let before = observe a in
        Obs.merge ~into:a (Obs.create ());
        observe a = before);
  ]

let suite =
  [
    ("counter basics", `Quick, test_counter_basics);
    ("gauge interleaved alloc/free", `Quick, test_gauge_interleaved);
    ("gauge observe", `Quick, test_gauge_observe);
    ("span nesting", `Quick, test_span_nesting);
    ("span exception safety", `Quick, test_span_exception_safe);
    ("snapshot sorted", `Quick, test_snapshot_sorted_and_peaks);
    ("merge semantics", `Quick, test_merge_semantics);
    ("scope install/restore", `Quick, test_scope_install_restore);
    ("scope exception safety", `Quick, test_scope_restores_on_exception);
    ("parallel bridge", `Quick, test_parallel_bridge_domain_independent);
    ("instrumented run identical", `Quick, test_instrumented_run_identical);
    ("registry resources", `Quick, test_registry_resources);
    ("registry parallel = sequential", `Quick, test_registry_parallel_vs_sequential);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
