(* The Obs.Metrics registry: bucket totality, the merge law, and the
   byte-stability of both renderers (Prometheus text and the
   oqsc-metrics JSON document). *)

module M = Obs.Metrics
module Json = Experiments.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------ buckets *)

let sample_gen =
  QCheck.(
    oneof
      [
        float;
        map float_of_int small_signed_int;
        oneofl [ 0.; 1.; 2.; 1024.; nan; infinity; neg_infinity; -1.; 0.5 ];
        map (fun i -> ldexp 1. (i mod 64)) small_nat;
      ])

let prop_bucket_total =
  QCheck.Test.make ~count:500 ~name:"every sample lands in exactly one bucket"
    sample_gen (fun x ->
      let i = M.bucket_index x in
      if i < 0 || i >= M.bucket_count then false
      else if i = M.bucket_count - 1 then
        (* overflow bucket: above every finite bound *)
        (not (x <= M.bucket_upper (M.bucket_count - 2))) || x <> x
      else
        (* within its own bound, above the previous one (bucket 0 also
           catches everything unordered or below — hence [not (x > _)]
           rather than [x <= _], which NaN fails) *)
        (not (x > M.bucket_upper i))
        && (i = 0 || not (x <= M.bucket_upper (i - 1))))

let prop_counts_sum =
  QCheck.Test.make ~count:200 ~name:"histogram counts sum to total"
    QCheck.(list sample_gen)
    (fun xs ->
      let r = M.create_registry () in
      List.iter (M.observe ~registry:r "h") xs;
      match M.snapshot ~registry:r () with
      | [ ("h", M.Histogram { counts; total; _ }) ] ->
          Array.length counts = M.bucket_count
          && Array.fold_left ( + ) 0 counts = total
          && total = List.length xs
      | [] -> xs = [] (* nothing observed, nothing registered *)
      | _ -> false)

let feed r (counters, gauges, samples) =
  List.iter (fun n -> M.counter_add ~registry:r "c" n) counters;
  List.iter (fun n -> M.gauge_add ~registry:r "g" n) gauges;
  List.iter (M.observe ~registry:r "h") samples

(* Samples for the merge law must sum exactly: the merged registry adds
   the two partial histogram sums while the reference feeds every sample
   in sequence, so with arbitrary doubles the two totals can differ in
   the last ulp and (rarely) straddle a 12-digit rendering boundary.
   Dyadic rationals with small numerators keep both fold orders exact;
   nan/infinity stay in because they propagate identically either way. *)
let exact_sample_gen =
  QCheck.(
    oneof
      [
        map (fun n -> float_of_int (n - 800) /. 16.0) (int_bound 1600);
        oneofl [ 0.; 1.; 1024.; nan; infinity; neg_infinity ];
      ])

let stream_gen =
  QCheck.(triple (list small_nat) (list small_signed_int) (list exact_sample_gen))

let prop_merge_law =
  QCheck.Test.make ~count:200
    ~name:"merge of two registries = registry of merged streams"
    QCheck.(pair stream_gen stream_gen)
    (fun (s1, s2) ->
      let a = M.create_registry () and b = M.create_registry () in
      feed a s1;
      feed b s2;
      M.merge ~into:a b;
      let whole = M.create_registry () in
      feed whole s1;
      feed whole s2;
      (* Compare through the canonical document so float sums are
         compared as rendered. *)
      Json.to_string (Experiments.Metrics_doc.document (M.snapshot ~registry:a ()))
      = Json.to_string
          (Experiments.Metrics_doc.document (M.snapshot ~registry:whole ())))

(* ----------------------------------------------------- registry edges *)

let test_name_validation () =
  let r = M.create_registry () in
  M.counter_add ~registry:r "ok_name:total" 1;
  check "bad leading digit rejected" true
    (try
       M.counter_add ~registry:r "9bad" 1;
       false
     with Invalid_argument _ -> true);
  check "negative counter step rejected" true
    (try
       M.counter_add ~registry:r "c" (-1);
       false
     with Invalid_argument _ -> true);
  check "type clash rejected" true
    (try
       M.gauge_set ~registry:r "ok_name:total" 3;
       false
     with Invalid_argument _ -> true)

let test_snapshot_sorted () =
  let r = M.create_registry () in
  M.counter_incr ~registry:r "zeta";
  M.gauge_set ~registry:r "alpha" 2;
  M.observe ~registry:r "mid" 3.0;
  Alcotest.(check (list string))
    "names sorted" [ "alpha"; "mid"; "zeta" ]
    (List.map fst (M.snapshot ~registry:r ()))

(* ----------------------------------------------------- byte stability *)

let deterministic_samples =
  [ 0.0; 0.5; 1.0; 1.5; 2.0; 3.0; 1000.0; 1e20; -4.0; nan ]

let feed_fixture r =
  M.counter_add ~registry:r "serve_requests_total" 7;
  M.gauge_set ~registry:r "serve_queue_depth" 3;
  List.iter (M.observe ~registry:r "serve_request_latency_ms")
    deterministic_samples

let test_document_byte_stable () =
  let render () =
    let r = M.create_registry () in
    feed_fixture r;
    Json.to_string (Experiments.Metrics_doc.document (M.snapshot ~registry:r ()))
  in
  let a = render () and b = render () in
  check_str "equal snapshots render to equal bytes" a b;
  (* And parsing it back yields a structurally equal value: the
     document uses only the canonical emitter's conventions. *)
  match Json.parse a with
  | Ok v -> check_str "round trips" a (Json.to_string v)
  | Error e -> Alcotest.failf "document does not re-parse: %s" e

let test_metrics_reply_byte_stable () =
  (* The regression ISSUE.md asks for: a [metrics] barrier reply built
     from identical runs is byte-identical, wall clock pinned. *)
  let line () =
    let r = M.create_registry () in
    feed_fixture r;
    Serve.Protocol.to_line
      (Serve.Protocol.reply_to_json
         (Serve.Protocol.Ok_reply
            {
              v = Serve.Protocol.metrics_version;
              id = "m";
              op = "metrics";
              wall_ms = 0.0;
              payload =
                Experiments.Metrics_doc.document (M.snapshot ~registry:r ());
            }))
  in
  check_str "metrics reply bytes stable across runs" (line ()) (line ())

(* Substring search, small inputs. *)
let contains text s =
  let n = String.length s and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = s || go (i + 1)) in
  go 0

let test_prometheus_rendering () =
  let r = M.create_registry () in
  feed_fixture r;
  let text = M.to_prometheus (M.snapshot ~registry:r ()) in
  let has = contains text in
  check "TYPE line for the counter" true
    (has "# TYPE serve_requests_total counter");
  check "counter sample" true (has "serve_requests_total 7");
  check "gauge sample" true (has "serve_queue_depth 3");
  check "TYPE line for the histogram" true
    (has "# TYPE serve_request_latency_ms histogram");
  check "le=1 bucket present" true
    (has {|serve_request_latency_ms_bucket{le="1"}|});
  check "+Inf bucket present" true
    (has {|serve_request_latency_ms_bucket{le="+Inf"} 10|});
  check "_count totals every sample" true
    (has "serve_request_latency_ms_count 10");
  check "renderer is deterministic" true
    (String.equal text (M.to_prometheus (M.snapshot ~registry:r ())));
  (* A sum within 5e-13 of an integer is spelled as that integer with
     ".0", as the canonical JSON emitter spells it. *)
  let near = M.create_registry () in
  List.iter (M.observe ~registry:near "near_integer_ms") [ 0.5; 2.5000000000002 ];
  let sum = 0.5 +. 2.5000000000002 in
  check "the sum is not an integer" false (Float.is_integer sum);
  check "the sum is within 5e-13 of 3" true (Float.abs (sum -. 3.0) < 5e-13);
  check "near-integer _sum renders with .0" true
    (contains (M.to_prometheus (M.snapshot ~registry:near ())) "near_integer_ms_sum 3.0\n");
  (* Cumulative buckets never decrease as le grows. *)
  let lines = String.split_on_char '\n' text in
  let bucket_counts =
    List.filter_map
      (fun l ->
        match String.index_opt l '}' with
        | Some i
          when String.length l > 7
               && String.sub l 0 (min 31 (String.length l))
                  = "serve_request_latency_ms_bucket" ->
            int_of_string_opt
              (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      lines
  in
  check "at least two bucket lines" true (List.length bucket_counts >= 2);
  check "buckets are cumulative (nondecreasing)" true
    (fst
       (List.fold_left
          (fun (ok, prev) c -> (ok && c >= prev, c))
          (true, 0) bucket_counts));
  check_int "last cumulative bucket = count"
    (List.length deterministic_samples)
    (List.nth bucket_counts (List.length bucket_counts - 1))

let suite =
  [
    ("name validation and type clashes", `Quick, test_name_validation);
    ("snapshot is name-sorted", `Quick, test_snapshot_sorted);
    ("oqsc-metrics document is byte-stable", `Quick, test_document_byte_stable);
    ("metrics reply line is byte-stable", `Quick, test_metrics_reply_byte_stable);
    ("prometheus renderer: types, buckets, determinism", `Quick, test_prometheus_rendering);
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_bucket_total; prop_counts_sum; prop_merge_law ]
