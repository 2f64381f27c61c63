(* Cross-system integration tests: several independently implemented
   views of the same object must agree. *)

open Mathx

let check = Alcotest.(check bool)

(* Four implementations of condition (i) — offline scanner, streaming A1,
   compiled Turing machine, and the generated stream's own shape — agree
   on generated members. *)
let test_shape_quadruple_agreement () =
  let machine = Machine.Program.compile (Machine.Program.ldisj_shape ~width:7) in
  let rng = Rng.create 90 in
  for k = 1 to 2 do
    for _ = 1 to 5 do
      let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      let input = inst.Lang.Instance.input in
      check "offline" true (Lang.Ldisj.well_shaped input);
      let ws = Machine.Workspace.create () in
      let a1 = Oqsc.A1.create ws in
      String.iter (fun c -> ignore (Oqsc.A1.feed a1 (Machine.Symbol.of_char c))) input;
      check "streaming A1" true (Oqsc.A1.finished_ok a1);
      let v, _ = Machine.Program.run ~max_steps:2_000_000 machine input in
      check "compiled machine" true (v = Some true);
      (* The generator's stream reproduces the same string. *)
      (match Lang.Ldisj.parse input with
      | Ok shape ->
          let buf = Buffer.create (String.length input) in
          Machine.Stream.iter
            (fun sym -> Buffer.add_char buf (Machine.Symbol.to_char sym))
            (Lang.Ldisj.stream shape);
          check "stream generator" true (String.equal (Buffer.contents buf) input)
      | Error _ -> Alcotest.fail "member should parse")
    done
  done

(* The A3 rejection probability, the Grover library's closed form, and
   the BCW communication protocol all see the same instance. *)
let test_quantum_triple_agreement () =
  let rng = Rng.create 91 in
  let k = 2 in
  let m = 1 lsl (2 * k) in
  List.iter
    (fun t ->
      let inst = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t in
      match Lang.Ldisj.parse inst.Lang.Instance.input with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok { Lang.Ldisj.x; y; _ } ->
          (* Closed form vs direct Grover simulation on the same oracle. *)
          let oracle = Grover.Oracle.conjunction x y in
          Alcotest.(check int) "t as planted" t (Grover.Oracle.count_solutions oracle);
          for j = 0 to 3 do
            let s = Grover.Iterate.run oracle j in
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "t=%d j=%d" t j)
              (Grover.Analysis.success_after ~j ~t ~space:m)
              (Grover.Iterate.success_probability oracle s)
          done;
          (* The BCW protocol finds a witness on the same pair. *)
          let r = Comm.Bcw.run (Rng.split rng) ~x ~y in
          check "BCW detects" true (not r.Comm.Bcw.disjoint))
    [ 1; 4 ]

(* Wire format, optimizer and verifier compose: A3's streamed tape,
   parsed back and optimized, still implements the structured circuit. *)
let test_wire_optimize_verify_chain () =
  let rng = Rng.create 92 in
  let k = 1 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let a3 = ref None in
  String.iter
    (fun c ->
      let role = Oqsc.A1.feed a1 (Machine.Symbol.of_char c) in
      (match role with
      | Oqsc.A1.Prefix_sep ->
          a3 :=
            Some
              (Oqsc.A3.create ~emit_circuit:true ~emit_wire:true ~force_j:0 ws
                 (Rng.split rng) ~k)
      | _ -> ());
      match !a3 with Some p -> Oqsc.A3.observe p role | None -> ())
    inst.Lang.Instance.input;
  let a3 = Option.get !a3 in
  let structured = Option.get (Oqsc.A3.circuit a3) in
  let streamed = Option.get (Oqsc.A3.wire a3) in
  let nq = Circuit.Circ.nqubits (Circuit.Lower.to_basis structured) in
  let parsed = Circuit.Wire.parse ~nqubits:nq streamed in
  let optimized = Circuit.Optimize.basis_circuit parsed in
  check "optimizer shrinks the tape circuit" true
    (Circuit.Circ.length optimized <= Circuit.Circ.length parsed);
  check "still equivalent to the structured operators" true
    (Circuit.Verify.equivalent ~reference:structured ~candidate:optimized ())

(* Exact one-way numbers, the synthesized protocol, and the census-priced
   reduction agree about EQ on small n. *)
let test_eq_three_views () =
  let n = 4 in
  (* View 1: exact matrix count. *)
  let exact = Comm.Exact.one_way_cc_of ~n Comm.Exact.eq_mask in
  (* View 2: synthesized protocol's message size. *)
  let proto = Comm.Oneway.synthesize ~n Comm.Exact.eq_mask in
  Alcotest.(check int) "synth = exact" exact (Comm.Oneway.message_bits proto);
  (* View 3: the copy machine's census prices the same quantity. *)
  let machine = Machine.Machines.copy_then_compare ~m:n in
  let inputs =
    List.init (1 lsl n) (fun v ->
        let u = String.init n (fun i -> if v lsr i land 1 = 1 then '1' else '0') in
        u ^ "#" ^ u)
  in
  let report = Comm.Reduction.induced_protocol_cost machine ~inputs ~cuts:[ n + 1 ] in
  match report.Comm.Reduction.cuts with
  | [ c ] ->
      Alcotest.(check (float 1e-9)) "census bits = exact" (float_of_int exact)
        c.Comm.Reduction.message_bits
  | _ -> Alcotest.fail "one cut expected"

(* The noise channel's exact density-matrix statistics bound the sampled
   A3 behaviour: at p = 0 both views give perfect completeness. *)
let test_noise_zero_is_noiseless () =
  let rng = Rng.create 93 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k:1 in
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let noise s = Quantum.Noise.depolarize_all (Rng.split rng) ~p:0.0 s in
  let a3 = ref None in
  String.iter
    (fun c ->
      let role = Oqsc.A1.feed a1 (Machine.Symbol.of_char c) in
      (match role with
      | Oqsc.A1.Prefix_sep -> a3 := Some (Oqsc.A3.create ~noise ws (Rng.split rng) ~k:1)
      | _ -> ());
      match !a3 with Some p -> Oqsc.A3.observe p role | None -> ())
    inst.Lang.Instance.input;
  Alcotest.(check (float 1e-9)) "p=0 noise is the identity" 0.0
    (Oqsc.A3.prob_output_zero (Option.get !a3))

let suite =
  [
    ("shape: four implementations agree", `Quick, test_shape_quadruple_agreement);
    ("quantum: three views agree", `Quick, test_quantum_triple_agreement);
    ("wire -> optimize -> verify chain", `Quick, test_wire_optimize_verify_chain);
    ("EQ: three views agree", `Quick, test_eq_three_views);
    ("zero noise is noiseless", `Quick, test_noise_zero_is_noiseless);
  ]
