(* Edge cases and guard rails across the libraries: the places where a
   subtle off-by-one or missing check would silently skew an experiment. *)

open Mathx

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------- mathx *)

let test_rng_copy_replays () =
  let a = Rng.create 99 in
  ignore (Rng.bits62 a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    check_int "copies replay" (Rng.bits62 a) (Rng.bits62 b)
  done

let test_prime_in_range_not_found () =
  check "empty interval" true
    (match Primes.prime_in_range ~lo:24 ~hi:29 with
    | exception Not_found -> true
    | _ -> false);
  check_int "singleton hit" 29 (Primes.prime_in_range ~lo:29 ~hi:30)

let test_min_max_and_variance_edges () =
  let lo, hi = Cstats.min_max [| 3.0; -1.0; 7.0 |] in
  check "min" true (lo = -1.0);
  check "max" true (hi = 7.0);
  Alcotest.(check (float 1e-12)) "singleton variance" 0.0 (Cstats.variance [| 5.0 |])

let test_bitvec_sub_guards () =
  let v = Bitvec.create 8 in
  check "oob sub" true
    (match Bitvec.sub v ~pos:5 ~len:4 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_int "empty sub" 0 (Bitvec.length (Bitvec.sub v ~pos:8 ~len:0))

let test_zero_length_bitvec () =
  let v = Bitvec.create 0 in
  check_int "popcount" 0 (Bitvec.popcount v);
  check "equal to itself" true (Bitvec.equal v (Bitvec.create 0));
  check "disjoint trivially" true (Bitvec.disjoint v (Bitvec.create 0))

(* -------------------------------------------------------------- quantum *)

let test_measure_deterministic_outcomes () =
  let rng = Rng.create 44 in
  (* |0>: measuring can only give 0, and the state is unchanged. *)
  let s = Quantum.State.create 2 in
  for _ = 1 to 10 do
    check "always 0" false (Quantum.State.measure_qubit s rng 0)
  done;
  Alcotest.(check (float 1e-12)) "state intact" 1.0 (Quantum.State.probability s 0)

let test_controlled_guards () =
  let s = Quantum.State.create 2 in
  check "control = target rejected" true
    (match Quantum.State.apply_controlled1 s Quantum.Gates.x ~control:1 ~target:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "qubit out of range" true
    (match Quantum.State.apply_gate1 s Quantum.Gates.h 2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_address_fastpath_guards () =
  let s = Quantum.State.create 4 in
  check "target below width rejected" true
    (match
       Quantum.State.apply_xor_on_addresses s ~width:3 ~address:0 ~bits:1 ~target:1 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "address out of range" true
    (match
       Quantum.State.apply_xor_on_addresses s ~width:2 ~address:4 ~bits:1 ~target:3 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "word past the width" true
    (match
       Quantum.State.apply_xor_on_addresses s ~width:2 ~address:2 ~bits:0b101
         ~target:3 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  List.iter
    (fun width ->
      check (Printf.sprintf "reflect_uniform width %d" width) true
        (match Quantum.State.reflect_uniform s ~width with
        | exception Invalid_argument _ -> true
        | () -> false))
    [ -1; 5 ]

(* -------------------------------------------------------------- circuit *)

let test_ops_guards () =
  let lay = Circuit.Ops.layout ~k:1 in
  check "address out of range" true
    (match Circuit.Ops.v_bit lay 4 with exception Invalid_argument _ -> true | _ -> false);
  check "wrong string length" true
    (match Circuit.Ops.v_x lay (Bitvec.create 8) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "layout bounds" true
    (match Circuit.Ops.layout ~k:0 with exception Invalid_argument _ -> true | _ -> false)

let test_wire_gate_count_and_empty () =
  check_int "empty wire" 0 (Circuit.Wire.gate_count "");
  check_int "two triples" 2 (Circuit.Wire.gate_count "0#1#0#0#1#1");
  check "ragged wire" true
    (match Circuit.Wire.gate_count "0#1" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_int "empty parse" 0 (Circuit.Circ.length (Circuit.Wire.parse ~nqubits:2 ""))

let test_verify_report_columns () =
  let c = Circuit.Circ.of_gates ~nqubits:2 [ Circuit.Gate.H 0 ] in
  let report = Circuit.Verify.compare ~reference:c ~candidate:c () in
  check_int "columns = dim" 4 report.Circuit.Verify.columns_checked;
  check "self-equivalent" true report.Circuit.Verify.equivalent;
  check "no leak" true (report.Circuit.Verify.ancilla_leak <= 1e-12)

(* --------------------------------------------------------------- grover *)

let test_oracle_make_guard () =
  check "width cap" true
    (match Grover.Oracle.make ~n:30 (fun _ -> false) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_amplify_all_marked () =
  (* Every address marked: the uniform start already succeeds, and
     Grover iterations keep it there. *)
  let o = Grover.Oracle.make ~n:2 (fun _ -> true) in
  let s = Grover.Iterate.run o 2 in
  Alcotest.(check (float 1e-9)) "stays 1" 1.0
    (Grover.Iterate.success_probability o s)

(* -------------------------------------------------------------- machine *)

let test_census_multi_cut_totals () =
  let c = Machine.Census.create () in
  Machine.Census.record c ~cut:1 "a";
  Machine.Census.record c ~cut:1 "b";
  Machine.Census.record c ~cut:1 "c";
  Machine.Census.record c ~cut:2 "z";
  (* ceil(log2 3) + ceil(log2 1) = 2 + 0 *)
  Alcotest.(check (float 1e-9)) "total bits" 2.0 (Machine.Census.total_protocol_bits c)

let test_workspace_peak_total_with_frees () =
  let ws = Machine.Workspace.create () in
  let r = Machine.Workspace.alloc ws ~name:"r" ~bits:10 in
  Machine.Workspace.alloc_qubits ws 4;
  Machine.Workspace.free ws r;
  check_int "peak total remembers the high-water mark" 14
    (Machine.Workspace.peak_total_bits ws);
  check_int "current classical after free" 0 (Machine.Workspace.classical_bits ws)

let test_stream_generated_length_matches_formula () =
  let rng = Rng.create 45 in
  for k = 1 to 3 do
    let m = 1 lsl (2 * k) in
    let x = Bitvec.random rng m and y = Bitvec.random rng m in
    let stream = Lang.Ldisj.stream { Lang.Ldisj.k; x; y } in
    let count = ref 0 in
    Machine.Stream.iter (fun _ -> incr count) stream;
    check_int (Printf.sprintf "k=%d" k) (Lang.Ldisj.string_length ~k) !count
  done

let test_optm_validate_catches_bad_distribution () =
  let broken =
    {
      Machine.Optm.name = "broken";
      num_states = 1;
      start_state = 0;
      delta =
        (fun ~state:_ ~input:_ ~work ->
          Machine.Optm.Branch
            [
              ( { Machine.Optm.next_state = 0; write = work; work_move = Machine.Optm.Stay;
                  advance_input = false; emit = None },
                0.7 );
            ]);
    }
  in
  check "weights must sum to 1" true
    (match Machine.Optm.validate broken with exception Failure _ -> true | _ -> false)

(* ----------------------------------------------------------------- lang *)

let test_malformed_reasons_are_recorded () =
  let rng = Rng.create 46 in
  for _ = 1 to 20 do
    let inst = Lang.Instance.malformed (Rng.split rng) ~k:1 in
    match inst.Lang.Instance.label with
    | Lang.Instance.Not_in_language (Lang.Instance.Malformed reason) ->
        check "reason non-empty" true (String.length reason > 0)
    | _ -> Alcotest.fail "malformed instances must carry a Malformed label"
  done

(* [corrupt_repetition] changes exactly the one byte its label names,
   and only a base that parses is corrupted. *)
let test_corrupt_repetition_flips_one_byte () =
  let rng = Rng.create 47 in
  for k = 1 to 3 do
    for _ = 1 to 20 do
      let base = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      let c = Lang.Instance.corrupt_repetition (Rng.split rng) ~base in
      let idx, copy, rep =
        match c.Lang.Instance.label with
        | Lang.Instance.Not_in_language (Lang.Instance.Inconsistent what) ->
            Scanf.sscanf what "bit %d of copy %d in repetition %d flipped%!"
              (fun b c r -> (b, c, r))
        | _ -> Alcotest.fail "corrupt_repetition must carry an Inconsistent label"
      in
      let input = c.Lang.Instance.input in
      let differ =
        List.filter
          (fun i -> input.[i] <> base.Lang.Instance.input.[i])
          (List.init (String.length input) Fun.id)
      in
      check "same length" true (String.length input = String.length base.Lang.Instance.input);
      check "exactly the labelled byte differs" true
        (differ = [ Lang.Ldisj.offset ~k ~rep ~copy ~idx ]);
      check "parse rejects it" true (Result.is_error (Lang.Ldisj.parse input))
    done
  done;
  Alcotest.check_raises "a base that does not parse"
    (Invalid_argument
       "Instance.corrupt_repetition: base is not well-formed (no leading 1-run)")
    (fun () ->
      ignore
        (Lang.Instance.corrupt_repetition rng
           ~base:{ Lang.Instance.input = "01"; label = Lang.Instance.In_language; k = 1 }))

(* ----------------------------------------------------------------- core *)

let test_a2_bad_role_fails_verdict () =
  let ws = Machine.Workspace.create () in
  let a2 = Oqsc.A2.create ws (Rng.create 1) ~k:1 in
  check "starts ok" true (Oqsc.A2.verdict a2);
  Oqsc.A2.observe a2 Oqsc.A1.Bad;
  check "Bad latches failure" false (Oqsc.A2.verdict a2)

let test_recognizer_reports_k_none_on_garbage () =
  let r = Oqsc.Recognizer.run ~rng:(Rng.create 2) "000" in
  check "no k" true (r.Oqsc.Recognizer.k = None);
  check "rejected" false r.Oqsc.Recognizer.accept

let test_def23_non_halting_out_of_budget () =
  let spin =
    {
      Machine.Optm.name = "spin";
      num_states = 1;
      start_state = 0;
      delta =
        (fun ~state:_ ~input:_ ~work ->
          Machine.Optm.Branch
            [
              ( { Machine.Optm.next_state = 0; write = work; work_move = Machine.Optm.Stay;
                  advance_input = false; emit = None },
                1.0 );
            ]);
    }
  in
  let o = Oqsc.Def23.run ~rng:(Rng.create 3) spin ~qubits:1 "1" in
  check "flagged out of budget" false o.Oqsc.Def23.within_budget

let test_sketch_ignores_malformed_prefix () =
  (* Without a prefix separator the sketch never initialises and claims
     nothing. *)
  let r =
    Oqsc.Sketch.run ~rng:(Rng.create 4) ~strategy:Oqsc.Sketch.Subsample ~budget:8 "0101"
  in
  check "no claim" false r.Oqsc.Sketch.claims_intersecting

let suite =
  [
    ("rng copy replays", `Quick, test_rng_copy_replays);
    ("prime_in_range not found", `Quick, test_prime_in_range_not_found);
    ("stats edges", `Quick, test_min_max_and_variance_edges);
    ("bitvec sub guards", `Quick, test_bitvec_sub_guards);
    ("zero-length bitvec", `Quick, test_zero_length_bitvec);
    ("deterministic measurement", `Quick, test_measure_deterministic_outcomes);
    ("controlled guards", `Quick, test_controlled_guards);
    ("address fast-path guards", `Quick, test_address_fastpath_guards);
    ("ops guards", `Quick, test_ops_guards);
    ("wire gate count", `Quick, test_wire_gate_count_and_empty);
    ("verify report", `Quick, test_verify_report_columns);
    ("oracle guard", `Quick, test_oracle_make_guard);
    ("amplify all marked", `Quick, test_amplify_all_marked);
    ("census totals", `Quick, test_census_multi_cut_totals);
    ("workspace peak totals", `Quick, test_workspace_peak_total_with_frees);
    ("stream length formula", `Quick, test_stream_generated_length_matches_formula);
    ("optm validate distribution", `Quick, test_optm_validate_catches_bad_distribution);
    ("malformed reasons", `Quick, test_malformed_reasons_are_recorded);
    ("corrupt_repetition one byte", `Quick, test_corrupt_repetition_flips_one_byte);
    ("a2 bad role", `Quick, test_a2_bad_role_fails_verdict);
    ("recognizer k on garbage", `Quick, test_recognizer_reports_k_none_on_garbage);
    ("def23 budget flag", `Quick, test_def23_non_halting_out_of_budget);
    ("sketch on malformed", `Quick, test_sketch_ignores_malformed_prefix);
  ]
