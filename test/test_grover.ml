(* Tests for Grover iteration, the BBHT schedule and the closed-form
   analysis procedure A3's guarantee rests on. *)

open Mathx
open Grover

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --------------------------------------------------------------- oracle *)

let test_oracle_constructors () =
  let v = Bitvec.of_string "01001000" in
  let o = Oracle.of_bitvec v in
  Alcotest.(check int) "3 address qubits" 3 (Oracle.n o);
  Alcotest.(check int) "size 8" 8 (Oracle.size o);
  check "marked 1" true (Oracle.marked o 1);
  check "unmarked 0" false (Oracle.marked o 0);
  Alcotest.(check int) "2 solutions" 2 (Oracle.count_solutions o);
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Oracle: length must be a power of two") (fun () ->
      ignore (Oracle.of_bitvec (Bitvec.create 6)))

let test_conjunction_oracle () =
  let x = Bitvec.of_string "1100" and y = Bitvec.of_string "1010" in
  let o = Oracle.conjunction x y in
  check "index 0 is common" true (Oracle.marked o 0);
  check "index 1 only x" false (Oracle.marked o 1);
  Alcotest.(check int) "1 solution" 1 (Oracle.count_solutions o)

(* -------------------------------------------------------------- iterate *)

let test_success_matches_closed_form () =
  let space = 64 in
  List.iter
    (fun t ->
      let marked = Bitvec.random_with_weight (Rng.create (t + 100)) space t in
      let o = Oracle.of_bitvec marked in
      List.iter
        (fun j ->
          let s = Iterate.run o j in
          checkf
            (Printf.sprintf "t=%d j=%d" t j)
            (Analysis.success_after ~j ~t ~space)
            (Iterate.success_probability o s))
        [ 0; 1; 3; 6 ])
    (* t = space: every address is marked, and the success stays 1. *)
    [ 1; 2; 5; space ]

let test_uniform_preparation () =
  let o = Oracle.make ~n:4 (fun _ -> false) in
  let s = Iterate.prepare_uniform o in
  checkf "uniform start" (1.0 /. 16.0) (Quantum.State.probability s 3)

let test_extra_qubits_untouched () =
  let o = Oracle.make ~n:2 (fun i -> i = 2) in
  let s = Iterate.prepare_uniform ~extra_qubits:2 o in
  Iterate.iteration o s;
  (* All mass must stay on states whose extra qubits are 0. *)
  let leaked = ref 0.0 in
  for idx = 0 to Quantum.State.dim s - 1 do
    if idx lsr 2 <> 0 then leaked := !leaked +. Quantum.State.probability s idx
  done;
  checkf "no leak to extra qubits" 0.0 !leaked

let test_no_solution_stays_uniform () =
  let o = Oracle.make ~n:3 (fun _ -> false) in
  let s = Iterate.run o 5 in
  (* With no marks, iterations only apply a global phase. *)
  for i = 0 to 7 do
    checkf "still uniform" 0.125 (Quantum.State.probability s i)
  done

let test_optimal_iterations () =
  Alcotest.(check int) "N=1024 t=1" 25
    (Iterate.optimal_iterations ~n_solutions:1 ~space:1024);
  Alcotest.(check int) "t=0 gives 0" 0 (Iterate.optimal_iterations ~n_solutions:0 ~space:64)

(* ----------------------------------------------------------------- bbht *)

let test_bbht_finds_planted () =
  let rng = Rng.create 44 in
  let space = 256 in
  let found = ref 0 and trials = 30 in
  for _ = 1 to trials do
    let marked = Bitvec.random_with_weight rng space 1 in
    let o = Oracle.of_bitvec marked in
    let outcome = Bbht.search (Rng.split rng) o in
    match outcome.Bbht.found with
    | Some idx ->
        check "found a real solution" true (Oracle.marked o idx);
        incr found
    | None -> ()
  done;
  check "finds nearly always" true (!found >= trials - 1)

let test_bbht_no_solution () =
  let rng = Rng.create 45 in
  let o = Oracle.make ~n:6 (fun _ -> false) in
  let outcome = Bbht.search rng o in
  check "nothing found" true (outcome.Bbht.found = None);
  check "bounded rounds" true
    (outcome.Bbht.rounds <= (3 * 8) + 10)

let test_bbht_fixed_budget () =
  let rng = Rng.create 46 in
  let space = 64 in
  let marked = Bitvec.random_with_weight rng space 4 in
  let o = Oracle.of_bitvec marked in
  let hits = ref 0 and trials = 40 in
  for _ = 1 to trials do
    let outcome = Bbht.search_fixed_budget (Rng.split rng) o ~rounds:8 ~max_j:8 in
    match outcome.Bbht.found with
    | Some idx ->
        check "witness is real" true (Oracle.marked o idx);
        incr hits
    | None -> ()
  done;
  (* Per-round success >= 1/4 (paper), so 8 rounds nearly always hit. *)
  check "fixed budget usually succeeds" true (!hits > trials * 3 / 4)

let test_bbht_guards () =
  let o = Oracle.make ~n:2 (fun _ -> true) in
  Alcotest.check_raises "bad rounds"
    (Invalid_argument "Bbht.search_fixed_budget: rounds and max_j must be positive")
    (fun () -> ignore (Bbht.search_fixed_budget (Rng.create 1) o ~rounds:0 ~max_j:1))

(* ------------------------------------------------------------- analysis *)

let test_closed_form_equals_sum () =
  List.iter
    (fun (rounds, t, space) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "rounds=%d t=%d space=%d" rounds t space)
        (Analysis.avg_success_random_j_by_sum ~rounds ~t ~space)
        (Analysis.avg_success_random_j ~rounds ~t ~space))
    [ (2, 1, 4); (4, 1, 16); (4, 7, 16); (8, 3, 64); (8, 63, 64); (16, 100, 256) ]

let test_paper_quarter_bound () =
  (* The paper's setting: rounds = 2^k, space = 2^{2k}; the averaged
     success probability is >= 1/4 for every 0 < t < space. *)
  List.iter
    (fun k ->
      let rounds = 1 lsl k and space = 1 lsl (2 * k) in
      for t = 1 to space - 1 do
        let p = Analysis.avg_success_random_j ~rounds ~t ~space in
        check
          (Printf.sprintf "k=%d t=%d above 1/4" k t)
          true
          (p >= Analysis.paper_lower_bound -. 1e-12)
      done)
    [ 1; 2; 3; 4 ]

let test_analysis_edges () =
  checkf "t=0" 0.0 (Analysis.success_after ~j:5 ~t:0 ~space:16);
  checkf "t=space always 1" 1.0 (Analysis.avg_success_random_j ~rounds:4 ~t:16 ~space:16);
  checkf "theta at t=space" (Float.pi /. 2.0) (Analysis.theta ~t:16 ~space:16);
  Alcotest.check_raises "bad t" (Invalid_argument "Analysis.theta: need 0 < t <= space")
    (fun () -> ignore (Analysis.theta ~t:0 ~space:4))

let test_bbht_expected_iterations_shape () =
  let a = Analysis.bbht_expected_iterations ~t:1 ~space:1024 in
  let b = Analysis.bbht_expected_iterations ~t:4 ~space:1024 in
  checkf "quartering t halves iterations" (a /. 2.0) b

(* ----------------------------------------------------------- properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"success probability in [0,1]" ~count:200
      (triple (int_range 0 20) (int_range 0 64) (int_range 1 6))
      (fun (j, t, logn) ->
        let space = 1 lsl logn in
        let t = min t space in
        let p = Analysis.success_after ~j ~t ~space in
        p >= -1e-12 && p <= 1.0 +. 1e-12);
    Test.make ~name:"iteration preserves norm" ~count:50
      (int_bound 255)
      (fun mask ->
        let o = Oracle.make ~n:4 (fun i -> (mask lsr (i mod 8)) land 1 = 1) in
        let s = Iterate.run o 3 in
        Float.abs (Quantum.State.norm s -. 1.0) < 1e-9);
  ]

let suite =
  [
    ("oracle constructors", `Quick, test_oracle_constructors);
    ("conjunction oracle", `Quick, test_conjunction_oracle);
    ("success matches closed form", `Quick, test_success_matches_closed_form);
    ("uniform preparation", `Quick, test_uniform_preparation);
    ("extra qubits untouched", `Quick, test_extra_qubits_untouched);
    ("no solution stays uniform", `Quick, test_no_solution_stays_uniform);
    ("optimal iterations", `Quick, test_optimal_iterations);
    ("bbht finds planted", `Quick, test_bbht_finds_planted);
    ("bbht no solution", `Quick, test_bbht_no_solution);
    ("bbht fixed budget", `Quick, test_bbht_fixed_budget);
    ("bbht guards", `Quick, test_bbht_guards);
    ("closed form equals sum", `Quick, test_closed_form_equals_sum);
    ("paper 1/4 bound", `Quick, test_paper_quarter_bound);
    ("analysis edges", `Quick, test_analysis_edges);
    ("bbht expected iterations", `Quick, test_bbht_expected_iterations_shape);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
