(* Hand-computed cases for the benchmark's statistics: quartiles as
   Python's statistics.quantiles(n=4) gives them, nearest-rank
   percentiles, span self time, and the compare verdict at the edge of
   a bound. *)

open Bench_e2e

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)
let quartiles name expected xs =
  Alcotest.check triple name expected (Stats.quartiles xs)

let quartiles_odd () =
  (* quantiles([1,2,3,4,5], n=4) = [1.5, 3.0, 4.5] *)
  quartiles "1..5" (1.5, 3.0, 4.5) [ 5.; 1.; 4.; 2.; 3. ];
  Alcotest.check close "median odd" 2.0 (Stats.median [ 3.; 1.; 2. ])

let quartiles_even () =
  (* quantiles([1,2,3,4], n=4) = [1.25, 2.5, 3.75];
     quantiles([1,2], n=4) = [0.75, 1.5, 2.25] (extrapolated) *)
  quartiles "1..4" (1.25, 2.5, 3.75) [ 4.; 3.; 2.; 1. ];
  quartiles "two samples" (0.75, 1.5, 2.25) [ 2.; 1. ];
  quartiles "one sample" (7.0, 7.0, 7.0) [ 7. ];
  Alcotest.check close "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let nearest_rank () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let rank name expected p xs =
    Alcotest.check close name expected (Stats.nearest_rank p xs)
  in
  rank "p99 of 1..100" 99.0 99.0 (upto 100);
  rank "p50 of 1..4" 2.0 50.0 [ 4.; 3.; 2.; 1. ];
  rank "p99 of ten is the max" 10.0 99.0 (upto 10);
  rank "p0 clamps to the min" 1.0 0.0 [ 3.; 1.; 2. ]

let span name parent start_ns stop_ns =
  { Span.name; parent; start_ns; stop_ns; count = 1; words = 0.0 }

let self_time () =
  (* root [0,100] > child [10,30] > grandchild [15,20]; root's second
     child [50,60] is a sibling of the first. *)
  let spans =
    [|
      span "root" (-1) 0 100;
      span "a" 0 10 30;
      span "a.x" 1 15 20;
      span "b" 0 50 60;
    |]
  in
  Alcotest.(check (array int))
    "nested and siblings" [| 70; 15; 5; 10 |] (Span.self_ns spans);
  (* overlapping children are counted once *)
  let overlap =
    [| span "root" (-1) 0 100; span "a" 0 10 30; span "b" 0 20 40 |]
  in
  Alcotest.(check int) "overlapping children" 70 (Span.self_ns overlap).(0);
  Alcotest.check close "coverage of top-level spans" 0.5
    (Span.coverage
       [| span "a" (-1) 0 25; span "b" (-1) 50 75 |]
       ~lo:0 ~hi:100)

let verdict =
  Alcotest.testable
    (fun f v -> Format.pp_print_string f (Stats.verdict_name v))
    ( = )

let compare_edge () =
  let judge ?(dir = Stats.Lower) a b =
    (Stats.compare_samples dir ~bound:0.1 a b).Stats.verdict
  in
  let five v = List.init 5 (fun _ -> v) in
  (* B's median 11 is worse than 10 by exactly the bound: not beyond *)
  Alcotest.check verdict "at the bound" Stats.Unchanged
    (judge (five 10.) (five 11.));
  Alcotest.check verdict "past the bound" Stats.Worse
    (judge (five 10.) (five 11.01));
  Alcotest.check verdict "higher is better" Stats.Worse
    (judge ~dir:Stats.Higher (five 10.) (five 8.9));
  (* 9 of 10 pairs won and medians apart by more than A's spread *)
  let a10 = List.init 10 (fun i -> 10.0 +. (0.01 *. float_of_int i)) in
  let b10 = List.init 10 (fun i -> if i = 9 then 20.0 else 9.0) in
  let c = Stats.compare_samples Stats.Lower ~bound:0.1 a10 b10 in
  Alcotest.check verdict "improved" Stats.Improved c.Stats.verdict;
  Alcotest.(check (pair int int))
    "wins/pairs" (9, 10) (c.Stats.wins, c.Stats.pairs);
  (* 8 of 10 is not enough for a gain *)
  let b8 = List.init 10 (fun i -> if i >= 8 then 10.5 else 9.0) in
  Alcotest.check verdict "8/10 wins" Stats.Unchanged (judge a10 b8);
  (* A's own spread exceeds the bound: unresolved unless B wins outright *)
  Alcotest.check verdict "wide spread" Stats.Unresolved
    (judge [ 8.; 9.; 10.; 11.; 12. ] (five 10.))

let compare_floor () =
  let judge ?floor a b =
    (Stats.compare_samples Stats.Lower ~bound:0.1 ?floor a b).Stats.verdict
  in
  let five v = List.init 5 (fun _ -> v) in
  (* 2 ms -> 3 ms is 50 % worse, but 1 ms is under a 50 ms floor *)
  Alcotest.check verdict "relative only" Stats.Worse
    (judge (five 0.002) (five 0.003));
  Alcotest.check verdict "under the floor" Stats.Unchanged
    (judge ~floor:0.05 (five 0.002) (five 0.003));
  (* 0.1 -> 0.15 is exactly the floor: not beyond; 0.151 is *)
  Alcotest.check verdict "at the floor" Stats.Unchanged
    (judge ~floor:0.05 (five 0.1) (five 0.15));
  Alcotest.check verdict "past the floor" Stats.Worse
    (judge ~floor:0.05 (five 0.1) (five 0.151));
  (* every pair won, but by less than the floor: no gain *)
  let a = [ 2.0e-3; 2.1e-3; 2.2e-3; 2.3e-3; 2.4e-3 ] in
  let b = List.map (fun x -> x /. 2.0) a in
  Alcotest.check verdict "gain without floor" Stats.Improved (judge a b);
  Alcotest.check verdict "gain under the floor" Stats.Unchanged
    (judge ~floor:0.05 a b);
  (* a quartile spread of 2.75 ms on a 2 ms median is wide, but not
     against 50 ms *)
  let noisy = [ 1e-3; 1.5e-3; 2e-3; 3e-3; 5e-3 ] in
  Alcotest.check verdict "spread without floor" Stats.Unresolved
    (judge noisy (five 2e-3));
  Alcotest.check verdict "spread under the floor" Stats.Unchanged
    (judge ~floor:0.05 noisy (five 2e-3))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bench-e2e"
    [
      ( "stats",
        [
          case "median and quartiles, odd count" quartiles_odd;
          case "median and quartiles, even count" quartiles_even;
          case "nearest-rank percentile" nearest_rank;
          case "compare verdict at the edge of a bound" compare_edge;
          case "compare verdict under an absolute floor" compare_floor;
        ] );
      ("span", [ case "self time of nested and sibling spans" self_time ]);
    ]
