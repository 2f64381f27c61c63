(* Integration tests: every experiment runs in quick mode and its rows
   carry the shapes the paper's claims predict. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seed = 1234

let test_registry_complete () =
  check_int "15 experiments" 15 (List.length Experiments.Registry.ids);
  List.iter
    (fun id -> check id true (String.length (Experiments.Registry.description id) > 0))
    Experiments.Registry.ids;
  check "unknown id raises" true
    (match Experiments.Registry.description "e99" with
    | exception Not_found -> true
    | _ -> false)

let test_registry_runs_all_quick () =
  (* Printing into a throwaway buffer exercises every experiment. *)
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (Experiments.Report.render fmt)
    (Experiments.Registry.results ~quick:true ~seed ());
  Format.pp_print_flush fmt ();
  check "substantial output" true (Buffer.length buf > 2000)

let test_e1_shape () =
  let rows = Experiments.E1_bcw_cost.rows ~quick:true ~seed () in
  check "nonempty" true (rows <> []);
  List.iter
    (fun (r : Experiments.E1_bcw_cost.row) ->
      check "all decisions correct" true r.Experiments.E1_bcw_cost.correct;
      check "costs positive" true (r.Experiments.E1_bcw_cost.cost_disjoint > 0.0))
    rows;
  let slope = Experiments.E1_bcw_cost.slope rows in
  check "sublinear in m" true (slope < 1.0)

let test_e2_certificates () =
  List.iter
    (fun (r : Experiments.E2_exact_cc.row) ->
      check_int "rows 2^m" (1 lsl r.Experiments.E2_exact_cc.m)
        r.Experiments.E2_exact_cc.distinct_rows;
      check_int "cc = m" r.Experiments.E2_exact_cc.m r.Experiments.E2_exact_cc.one_way_cc;
      check_int "fooling 2^m" (1 lsl r.Experiments.E2_exact_cc.m)
        r.Experiments.E2_exact_cc.fooling_set;
      check_int "rank 2^m" (1 lsl r.Experiments.E2_exact_cc.m)
        r.Experiments.E2_exact_cc.rank_gf2;
      check_int "EQ one-way = m" r.Experiments.E2_exact_cc.m
        r.Experiments.E2_exact_cc.eq_one_way;
      check "EQ randomized stays logarithmic" true
        (r.Experiments.E2_exact_cc.eq_randomized_bits <= 20))
    (Experiments.E2_exact_cc.rows ~quick:true ())

let test_e3_one_sidedness () =
  let rows = Experiments.E3_recognizer.rows ~quick:true ~seed () in
  List.iter
    (fun (r : Experiments.E3_recognizer.row) ->
      if String.equal r.Experiments.E3_recognizer.kind "member" then begin
        Alcotest.(check (float 1e-9)) "members accepted always" 1.0
          r.Experiments.E3_recognizer.accept_rate;
        Alcotest.(check (float 1e-9)) "exact prob 1" 1.0
          r.Experiments.E3_recognizer.mean_exact_accept
      end
      else
        check "non-members accepted at most 3/4 + noise" true
          (r.Experiments.E3_recognizer.mean_exact_accept <= 0.80))
    rows

let test_e4_amplification () =
  let rows = Experiments.E4_amplification.rows ~quick:true ~seed () in
  List.iter
    (fun (r : Experiments.E4_amplification.row) ->
      Alcotest.(check (float 1e-9)) "members stay" 1.0
        r.Experiments.E4_amplification.member_accept_rate)
    rows;
  let last = List.nth rows (List.length rows - 1) in
  check "final bound reaches 2/3" true last.Experiments.E4_amplification.reaches_oqbpl

let test_e5_census () =
  let rows = Experiments.E5_census.rows ~quick:true () in
  List.iter
    (fun (r : Experiments.E5_census.row) ->
      (if String.equal r.Experiments.E5_census.machine "copy-then-compare" then
         check_int "census = 2^m" (1 lsl r.Experiments.E5_census.m)
           r.Experiments.E5_census.configs_at_cut
       else if
         String.length r.Experiments.E5_census.machine >= 8
         && String.equal (String.sub r.Experiments.E5_census.machine 0 8) "compiled"
       then
         check_int "counter census = family" r.Experiments.E5_census.family_size
           r.Experiments.E5_census.configs_at_cut
       else check "O(1) census" true (r.Experiments.E5_census.configs_at_cut <= 4));
      check "within Fact 2.2" true
        (r.Experiments.E5_census.message_bits
        <= r.Experiments.E5_census.fact22_log2_bound +. 1e-9))
    rows

let test_e6_wall () =
  let rows = Experiments.E6_sketch_wall.rows ~quick:true ~seed ~k:3 () in
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  check "tiny budget fails hard" true
    (first.Experiments.E6_sketch_wall.bucket_false_claim > 0.5
    || first.Experiments.E6_sketch_wall.subsample_miss > 0.3);
  check "big budget succeeds" true
    (last.Experiments.E6_sketch_wall.bucket_false_claim < 0.4
    && last.Experiments.E6_sketch_wall.subsample_miss < 0.2)

let test_e7_block () =
  let rows = Experiments.E7_block_space.rows ~quick:true ~seed () in
  List.iter
    (fun (r : Experiments.E7_block_space.row) ->
      check "correct on both sides" true
        (r.Experiments.E7_block_space.member_ok && r.Experiments.E7_block_space.intersect_ok);
      check_int "storage = 2^k" (1 lsl r.Experiments.E7_block_space.k)
        r.Experiments.E7_block_space.storage_bits)
    rows;
  let s = Experiments.E7_block_space.storage_slope rows in
  check "storage slope near 1/3" true (Float.abs (s -. (1.0 /. 3.0)) < 0.08)

let test_e8_separation () =
  let rows = Experiments.E8_separation.rows ~quick:true ~seed () in
  let fits = Experiments.E8_separation.fits rows in
  let a, _ = fits.Experiments.E8_separation.quantum_vs_log in
  check "quantum bits grow mildly with log n" true (a > 0.0 && a < 40.0);
  List.iter
    (fun (r : Experiments.E8_separation.row) ->
      match r.Experiments.E8_separation.quantum_total_bits with
      | Some q -> check "quantum below naive" true (q <= r.Experiments.E8_separation.naive_bits + 16)
      | None -> ())
    rows

let test_e9_closed_form () =
  let rows = Experiments.E9_bbht.rows ~quick:true ~seed ~k:2 () in
  List.iter
    (fun (r : Experiments.E9_bbht.row) ->
      Alcotest.(check (float 1e-6)) "simulated = closed form"
        r.Experiments.E9_bbht.closed_form r.Experiments.E9_bbht.simulated;
      check "above 1/4" true r.Experiments.E9_bbht.above_quarter)
    rows

let test_e10_fingerprint_bound () =
  let rows = Experiments.E10_fingerprint.rows ~quick:true ~seed () in
  List.iter
    (fun (r : Experiments.E10_fingerprint.row) ->
      check "error below bound (with slack)" true
        (r.Experiments.E10_fingerprint.false_pass
        <= r.Experiments.E10_fingerprint.bound +. 0.05);
      check "wide prime essentially exact" true
        (r.Experiments.E10_fingerprint.wide_false_pass < 0.001))
    rows

let test_e11_lowering () =
  let rows = Experiments.E11_lowering.rows ~quick:true ~seed () in
  List.iter
    (fun (r : Experiments.E11_lowering.row) ->
      check "equivalent" true r.Experiments.E11_lowering.equivalent;
      check "roundtrip" true r.Experiments.E11_lowering.wire_roundtrip_ok;
      check "budget constant small" true (r.Experiments.E11_lowering.budget_constant < 4.0))
    rows

let test_e12_qfa () =
  let rows = Experiments.E12_qfa.rows ~quick:true ~seed () in
  List.iter
    (fun (r : Experiments.E12_qfa.row) ->
      Alcotest.(check (float 1e-9)) "member prob 1" 1.0
        r.Experiments.E12_qfa.member_prob;
      check "worst below threshold" true (r.Experiments.E12_qfa.worst_nonmember < 0.75);
      check "succinct" true
        (r.Experiments.E12_qfa.qfa_states < r.Experiments.E12_qfa.dfa_states
        || r.Experiments.E12_qfa.p <= 5))
    rows

let test_e13_nondet () =
  let rows = Experiments.E13_nondet.rows ~quick:true ~seed () in
  List.iter
    (fun (r : Experiments.E13_nondet.row) ->
      check "nondet machine correct" true r.Experiments.E13_nondet.correct;
      (if r.Experiments.E13_nondet.n <= 10 then
         check_int "census is 2^n" (1 lsl r.Experiments.E13_nondet.n)
           r.Experiments.E13_nondet.det_census);
      check "nondet space below census bits" true
        (float_of_int r.Experiments.E13_nondet.nondet_space_bits
        <= (3.0 *. r.Experiments.E13_nondet.det_message_bits) +. 20.0))
    rows

let test_e14_noise () =
  let rows = Experiments.E14_noise.rows ~quick:true ~seed ~k:2 () in
  (match rows with
  | clean :: _ ->
      Alcotest.(check (float 1e-9)) "no noise: perfect completeness" 1.0
        clean.Experiments.E14_noise.member_accept;
      check "no noise: quarter rejection" true
        (clean.Experiments.E14_noise.nonmember_reject >= 0.25 -. 0.12)
  | [] -> Alcotest.fail "no rows");
  let last = List.nth rows (List.length rows - 1) in
  check "heavy noise hurts completeness" true
    (last.Experiments.E14_noise.member_accept < 1.0)

let test_e15_compiled () =
  let rows = Experiments.E15_compiled.rows ~quick:true ~seed () in
  check_int "four machines" 4 (List.length rows);
  List.iter
    (fun (r : Experiments.E15_compiled.row) ->
      check "agrees with reference" true r.Experiments.E15_compiled.agree;
      check "nontrivial control" true (r.Experiments.E15_compiled.control_states > 0))
    rows;
  (* The shape machine's tape is dwarfed by its input. *)
  let shape = List.nth rows 3 in
  check "log-space tape" true
    (shape.Experiments.E15_compiled.tape_cells * 2
    < shape.Experiments.E15_compiled.sample_input_length)

let test_space_audit () =
  let a = Experiments.Space_audit.audit ~quick:true ~seed () in
  let lo, hi = Experiments.Space_audit.default_classical_band in
  check "classical slope in the n^(1/3) band" true
    (a.Experiments.Space_audit.fit.Experiments.Space_audit.classical_slope >= lo
    && a.Experiments.Space_audit.fit.Experiments.Space_audit.classical_slope <= hi);
  check "quantum data prefers the logarithmic model" true
    (a.Experiments.Space_audit.fit.Experiments.Space_audit.quantum_log_r2
    >= a.Experiments.Space_audit.fit.Experiments.Space_audit.quantum_power_r2);
  check "verdict passes" true (Experiments.Space_audit.passed a);
  (* The document is a pure function of (quick, seed). *)
  let doc a =
    Experiments.Json.to_string
      (Experiments.Space_audit.to_json ~seed ~quick:true a)
  in
  let b = Experiments.Space_audit.audit ~quick:true ~seed () in
  Alcotest.(check string) "audit JSON byte-stable" (doc a) (doc b)

let suite =
  [
    ("registry complete", `Quick, test_registry_complete);
    ("space audit bands", `Slow, test_space_audit);
    ("registry runs all (quick)", `Slow, test_registry_runs_all_quick);
    ("e1 shape", `Slow, test_e1_shape);
    ("e2 certificates", `Quick, test_e2_certificates);
    ("e3 one-sidedness", `Slow, test_e3_one_sidedness);
    ("e4 amplification", `Slow, test_e4_amplification);
    ("e5 census", `Quick, test_e5_census);
    ("e6 wall", `Slow, test_e6_wall);
    ("e7 block", `Quick, test_e7_block);
    ("e8 separation", `Quick, test_e8_separation);
    ("e9 closed form", `Quick, test_e9_closed_form);
    ("e10 fingerprint", `Slow, test_e10_fingerprint_bound);
    ("e11 lowering", `Quick, test_e11_lowering);
    ("e12 qfa", `Quick, test_e12_qfa);
    ("e13 nondet", `Quick, test_e13_nondet);
    ("e14 noise", `Slow, test_e14_noise);
    ("e15 compiled", `Slow, test_e15_compiled);
  ]
