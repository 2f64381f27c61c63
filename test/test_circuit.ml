(* Tests for the circuit IR, the exact lowering to {H, T, CNOT}, the
   Definition 2.3 wire format and the §3.2 structured operators. *)

open Mathx
open Quantum
open Circuit

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ IR *)

let test_gate_wellformed () =
  check "h ok" true (Gate.well_formed (Gate.H 0));
  check "negative qubit" false (Gate.well_formed (Gate.H (-1)));
  check "cnot same qubit" false
    (Gate.well_formed (Gate.Cnot { control = 1; target = 1 }));
  check "ccx distinct" true
    (Gate.well_formed (Gate.Ccx { c1 = 0; c2 = 1; target = 2 }));
  check "ccx duplicate" false
    (Gate.well_formed (Gate.Ccx { c1 = 0; c2 = 0; target = 2 }));
  check "mcz empty" false (Gate.well_formed (Gate.Mcz []));
  check "mcx duplicate control/target" false
    (Gate.well_formed (Gate.Mcx { controls = [ 0; 1 ]; target = 1 }))

let test_circ_append_and_guards () =
  let c = Circ.create ~nqubits:2 in
  Circ.add c (Gate.H 0);
  Circ.add c (Gate.Cnot { control = 0; target = 1 });
  check_int "length" 2 (Circ.length c);
  Alcotest.check_raises "budget exceeded"
    (Invalid_argument "Circ.add: gate H 2 exceeds qubit budget 2") (fun () ->
      Circ.add c (Gate.H 2));
  let c2 = Circ.create ~nqubits:2 in
  Circ.append c2 c;
  check_int "append copies gates" 2 (Circ.length c2);
  check "basis only" true (Circ.is_basis_only c)

let test_circ_growth () =
  (* Exercise the backing-array doubling. *)
  let c = Circ.create ~nqubits:1 in
  for _ = 1 to 100 do
    Circ.add c (Gate.T 0)
  done;
  check_int "100 gates" 100 (Circ.length c);
  check_int "count" 100 (Circ.count c (function Gate.T _ -> true | _ -> false))

(* --------------------------------------------------------------- run/sim *)

let test_run_matches_manual_state () =
  let c =
    Circ.of_gates ~nqubits:2
      [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  let s = State.create 2 in
  Circ.run c s;
  Alcotest.(check (float 1e-9)) "bell P(00)" 0.5 (State.probability s 0);
  Alcotest.(check (float 1e-9)) "bell P(11)" 0.5 (State.probability s 3)

let test_structured_gates_semantics () =
  (* CCX acts as a Toffoli; MCZ flips the phase of |111...>. *)
  let c = Circ.of_gates ~nqubits:3 [ Gate.X 0; Gate.X 1; Gate.Ccx { c1 = 0; c2 = 1; target = 2 } ] in
  let s = State.create 3 in
  Circ.run c s;
  Alcotest.(check (float 1e-9)) "toffoli fired" 1.0 (State.probability s 7);
  let u = Circ.unitary (Circ.of_gates ~nqubits:2 [ Gate.Mcz [ 0; 1 ] ]) in
  check "mcz diag" true
    (Cplx.approx_equal (Unitary.get u 3 3) (Cplx.re (-1.0))
    && Cplx.approx_equal (Unitary.get u 0 0) Cplx.one)

(* ------------------------------------------------------------- lowering *)

let lowering_equiv gate nqubits =
  let structured = Circ.of_gates ~nqubits [ gate ] in
  let basis = Lower.to_basis structured in
  check
    (Format.asprintf "%a lowers to basis" Gate.pp gate)
    true
    (Circ.is_basis_only basis);
  check
    (Format.asprintf "%a equivalent" Gate.pp gate)
    true
    (Verify.equivalent ~reference:structured ~candidate:basis ())

let test_lower_single_qubit_macros () =
  lowering_equiv (Gate.Tdg 0) 1;
  lowering_equiv (Gate.S 0) 1;
  lowering_equiv (Gate.Sdg 0) 1;
  lowering_equiv (Gate.Z 0) 1;
  lowering_equiv (Gate.X 0) 1

let test_lower_two_qubit () =
  lowering_equiv (Gate.Cz (0, 1)) 2;
  lowering_equiv (Gate.Cz (1, 0)) 2

let test_lower_toffoli_exact () =
  let structured = Circ.of_gates ~nqubits:3 [ Gate.Ccx { c1 = 0; c2 = 1; target = 2 } ] in
  let basis = Lower.to_basis structured in
  check "toffoli uses no ancilla" true (Circ.nqubits basis = 3);
  (* The classic network has 4 T and 3 Tdg; Tdg = T^7 in the strict
     {H, T, CNOT} basis, so 4 + 3*7 = 25 T gates. *)
  check_int "25 T gates" 25
    (Circ.count basis (function Gate.T _ -> true | _ -> false));
  (* The standard network is exact including global phase: compare full
     unitaries without the phase quotient. *)
  check "exact matrix equality" true
    (Unitary.approx_equal (Circ.unitary structured) (Circ.unitary basis))

let test_lower_mcx_with_ancillas () =
  List.iter
    (fun controls ->
      let k = List.length controls in
      let target = k in
      let structured =
        Circ.of_gates ~nqubits:(k + 1) [ Gate.Mcx { controls; target } ]
      in
      let basis = Lower.to_basis structured in
      check
        (Printf.sprintf "mcx %d controls ancillas" k)
        true
        (Circ.nqubits basis = k + 1 + max 0 (k - 2));
      check
        (Printf.sprintf "mcx %d controls equivalent" k)
        true
        (Verify.equivalent ~reference:structured ~candidate:basis ()))
    [ [ 0 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 3 ] ]

let test_lower_mcz () =
  lowering_equiv (Gate.Mcz [ 0 ]) 1;
  lowering_equiv (Gate.Mcz [ 0; 1 ]) 2;
  lowering_equiv (Gate.Mcz [ 0; 1; 2 ]) 3

let test_lower_whole_circuit () =
  let structured =
    Circ.of_gates ~nqubits:4
      [
        Gate.H 0; Gate.H 1;
        Gate.X 0;
        Gate.Mcx { controls = [ 0; 1; 2 ]; target = 3 };
        Gate.X 0;
        Gate.Mcz [ 0; 1; 2; 3 ];
        Gate.S 2;
      ]
  in
  let basis = Lower.to_basis structured in
  check "basis only" true (Circ.is_basis_only basis);
  check "equivalent" true (Verify.equivalent ~reference:structured ~candidate:basis ())

let test_ancillas_needed () =
  let c = Circ.of_gates ~nqubits:6 [ Gate.Mcx { controls = [ 0; 1; 2; 3; 4 ]; target = 5 } ] in
  check_int "5 controls need 3" 3 (Lower.ancillas_needed c);
  let c2 = Circ.of_gates ~nqubits:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ] in
  check_int "basis needs none" 0 (Lower.ancillas_needed c2)

(* ------------------------------------------------------------ wire format *)

let test_wire_roundtrip () =
  let c =
    Circ.of_gates ~nqubits:3
      [ Gate.H 0; Gate.T 1; Gate.Cnot { control = 0; target = 2 }; Gate.H 2 ]
  in
  let wire = Wire.emit c in
  let parsed = Wire.parse ~nqubits:3 wire in
  check "roundtrip" true (Circ.gates parsed = Circ.gates c);
  check_int "gate_count" 4 (Wire.gate_count wire)

let test_wire_identity_convention () =
  (* a = b with c = 2 denotes the identity and is dropped. *)
  let parsed = Wire.parse ~nqubits:2 "1#1#2#0#1#2" in
  check_int "identity dropped" 1 (Circ.length parsed)

let test_wire_rejects_garbage () =
  Alcotest.check_raises "truncated" (Invalid_argument "Wire.parse: truncated triple")
    (fun () -> ignore (Wire.parse ~nqubits:2 "1#2"));
  Alcotest.check_raises "bad field" (Invalid_argument "Wire.parse: malformed field")
    (fun () -> ignore (Wire.parse ~nqubits:2 "a#0#0"));
  Alcotest.check_raises "bad code" (Invalid_argument "Wire.parse: gate code out of range")
    (fun () -> ignore (Wire.parse ~nqubits:2 "0#1#7"));
  Alcotest.check_raises "non-basis emit rejected"
    (Invalid_argument "Wire.emit: circuit contains non-basis gates") (fun () ->
      ignore (Wire.emit (Circ.of_gates ~nqubits:1 [ Gate.X 0 ])))

(* --------------------------------------------------- structured operators *)

(* |phi_k> = 2^{-k} sum_i |i>|0>|0>, as A3 prepares it. *)
let uniform_state lay =
  let s = State.create (Ops.data_qubits lay) in
  State.apply_hadamard_block s 0 lay.Ops.address_width;
  s

(* A state whose amplitudes differ across addresses and [h]. *)
let nontrivial_state lay =
  let s = uniform_state lay in
  State.apply_gate1 s Gates.t 0;
  State.apply_cnot s ~control:0 ~target:lay.Ops.h;
  s

(* Each builder against the state kernel A3 calls for it; the input
   string is handed over a word at a time, as A1's roles carry it. *)
let test_ops_circuits_match_direct_application () =
  let rng = Rng.create 13 in
  List.iter
    (fun k ->
      let lay = Ops.layout ~k in
      let width = lay.Ops.address_width in
      let m = 1 lsl width in
      let x = Bitvec.random rng m and y = Bitvec.random rng m in
      let over_words kernel v s =
        let address = ref 0 in
        Bitvec.iter_words
          (fun bits len ->
            kernel s ~address:!address ~bits;
            address := !address + len)
          v
      in
      let pairs =
        [
          ("u_k", Ops.u_k lay, fun s -> State.apply_hadamard_block s 0 width);
          ( "v_x",
            Ops.v_x lay x,
            over_words
              (fun s ~address ~bits ->
                State.apply_xor_on_addresses s ~width ~address ~bits ~target:lay.Ops.h ())
              x );
          ( "w_y",
            Ops.w_y lay y,
            over_words
              (fun s ~address ~bits ->
                State.apply_phase_on_addresses s ~width ~address ~bits
                  ~require:lay.Ops.h ())
              y );
          ( "r_y",
            Ops.r_y lay y,
            over_words
              (fun s ~address ~bits ->
                State.apply_xor_on_addresses s ~width ~address ~bits
                  ~require:lay.Ops.h ~target:lay.Ops.l ())
              y );
        ]
      in
      List.iter
        (fun (name, gates, direct) ->
          let s = nontrivial_state lay in
          let via_circuit = State.copy s in
          Circ.run (Circ.of_gates ~nqubits:(Ops.data_qubits lay) gates) via_circuit;
          direct s;
          check
            (Printf.sprintf "k=%d %s circuit = direct" k name)
            true
            (State.approx_equal s via_circuit))
        pairs)
    [ 1; 3 ]

let test_s_k_is_minus_flip_zero () =
  (* S_k's builder realises S_k up to a global -1, so U_k S_k U_k is
     the diffusion A3 applies with [reflect_uniform] up to global phase:
     as states the fidelity must be 1. *)
  let lay = Ops.layout ~k:1 in
  let s_direct = nontrivial_state lay in
  State.reflect_uniform s_direct ~width:lay.Ops.address_width;
  let s_circ = nontrivial_state lay in
  Circ.run
    (Circ.of_gates ~nqubits:(Ops.data_qubits lay) (Ops.u_k lay @ Ops.s_k lay @ Ops.u_k lay))
    s_circ;
  Alcotest.(check (float 1e-9)) "same up to global phase" 1.0
    (State.fidelity s_direct s_circ)

let test_grover_step_is_grover_iteration () =
  (* V_x W_y V_x followed by the diffusion equals one textbook Grover
     iteration (up to global phase) for the conjunction oracle. *)
  let rng = Rng.create 29 in
  let k = 1 in
  let lay = Ops.layout ~k in
  let x = Bitvec.random rng 4 and y = Bitvec.random rng 4 in
  let s = uniform_state lay in
  Circ.run
    (Circ.of_gates ~nqubits:(Ops.data_qubits lay) (Ops.grover_step lay ~x ~y ~z:x))
    s;
  let oracle = Grover.Oracle.conjunction x y in
  let reference = Grover.Iterate.prepare_uniform ~extra_qubits:2 oracle in
  Grover.Iterate.iteration oracle reference;
  Alcotest.(check (float 1e-9)) "fidelity 1" 1.0 (State.fidelity s reference)

let test_per_bit_builders_compose_to_whole () =
  let rng = Rng.create 57 in
  let lay = Ops.layout ~k:1 in
  let v = Bitvec.random rng 4 in
  let whole = Ops.v_x lay v in
  let per_bit =
    List.concat_map (fun i -> Ops.v_bit lay i) (Bitvec.ones v)
  in
  check "v_x = concat v_bit over ones" true (whole = per_bit)

let test_verify_detects_difference () =
  let a = Circ.of_gates ~nqubits:1 [ Gate.H 0 ] in
  let b = Circ.of_gates ~nqubits:1 [ Gate.T 0 ] in
  check "H != T" false (Verify.equivalent ~reference:a ~candidate:b ());
  let dirty = Circ.of_gates ~nqubits:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ] in
  (* Leaves the "ancilla" qubit 1 entangled: must be flagged as leak. *)
  let report = Verify.compare ~reference:(Circ.of_gates ~nqubits:1 [ Gate.H 0 ]) ~candidate:dirty () in
  check "ancilla leak detected" false report.Verify.equivalent;
  check "leak reported" true (report.Verify.ancilla_leak > 0.1)

let test_unitary_twelve_qubits () =
  (* The column-building construction must reach the documented 12-qubit
     cap (the dense per-gate product chain topped out at 10). *)
  let c =
    Circ.of_gates ~nqubits:12 [ Gate.H 0; Gate.Cnot { control = 0; target = 11 } ]
  in
  let u = Circ.unitary c in
  check_int "dim" 4096 (Unitary.dim u);
  let inv_sqrt2 = 1.0 /. sqrt 2.0 in
  let entry i j = (Unitary.get u i j).Cplx.re in
  Alcotest.(check (float 1e-12)) "u[0,0]" inv_sqrt2 (entry 0 0);
  Alcotest.(check (float 1e-12)) "u[2049,0]" inv_sqrt2 (entry 2049 0);
  Alcotest.(check (float 1e-12)) "u[0,1]" inv_sqrt2 (entry 0 1);
  Alcotest.(check (float 1e-12)) "u[2049,1]" (-.inv_sqrt2) (entry 2049 1);
  check "rejects 13 qubits" true
    (match Circ.unitary (Circ.create ~nqubits:13) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_gate_unitary_guard () =
  check "budget guard" true
    (match Circ.gate_unitary ~nqubits:2 (Gate.H 2) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let u = Circ.gate_unitary ~nqubits:3 (Gate.Cnot { control = 0; target = 2 }) in
  check "embedded cnot unitary" true (Unitary.is_unitary u)

(* ----------------------------------------------------------- properties *)

let qcheck_tests =
  let open QCheck in
  (* Random circuits on 2..8 qubits drawing from every gate constructor. *)
  let arb_sized_circuit =
    let gen =
      let open Gen in
      int_range 2 8 >>= fun n ->
      let qubit = int_bound (n - 1) in
      let distinct2 =
        qubit >>= fun a ->
        int_bound (n - 2) >>= fun b ->
        let b = if b >= a then b + 1 else b in
        return (a, b)
      in
      (* Nonempty strict subset of the qubits, as a bitmask. *)
      let proper_mask = int_range 1 ((1 lsl n) - 2) in
      let qubits_of_mask m = List.filter (fun q -> m lsr q land 1 = 1) (List.init n Fun.id) in
      let gate1 ctor = map ctor qubit in
      let singles =
        [
          gate1 (fun q -> Gate.H q); gate1 (fun q -> Gate.T q);
          gate1 (fun q -> Gate.Tdg q); gate1 (fun q -> Gate.S q);
          gate1 (fun q -> Gate.Sdg q); gate1 (fun q -> Gate.X q);
          gate1 (fun q -> Gate.Z q);
        ]
      in
      let doubles =
        [
          map (fun (c, t) -> Gate.Cnot { control = c; target = t }) distinct2;
          map (fun (a, b) -> Gate.Cz (a, b)) distinct2;
          map (fun m -> Gate.Mcz (qubits_of_mask m)) (int_range 1 ((1 lsl n) - 1));
          (map (fun (m, t0) ->
               let controls = qubits_of_mask m in
               let outside = List.filter (fun q -> m lsr q land 1 = 0) (List.init n Fun.id) in
               let target = List.nth outside (t0 mod List.length outside) in
               Gate.Mcx { controls; target }))
            (pair proper_mask (int_bound (n - 1)));
        ]
      in
      let triples =
        if n < 3 then []
        else
          [
            (map (fun (a, (b0, c0)) ->
                 let b = if b0 >= a then b0 + 1 else b0 in
                 let c0 = if c0 >= min a b then c0 + 1 else c0 in
                 let c = if c0 >= max a b then c0 + 1 else c0 in
                 Gate.Ccx { c1 = a; c2 = b; target = c }))
              (pair qubit (pair (int_bound (n - 2)) (int_bound (n - 3))));
          ]
      in
      let arb_gate = oneof (singles @ doubles @ triples) in
      list_size (int_range 1 14) arb_gate >>= fun gates -> return (n, gates)
    in
    make ~print:(fun (n, gates) ->
        Format.asprintf "%a" Circ.pp (Circ.of_gates ~nqubits:n gates))
      gen
  in
  let arb_basis_gate =
    make
      Gen.(
        oneof
          [
            map (fun q -> Gate.H (q mod 3)) (int_bound 2);
            map (fun q -> Gate.T (q mod 3)) (int_bound 2);
            map
              (fun (c, t) ->
                let c = c mod 3 and t = t mod 3 in
                if c = t then Gate.H c
                else Gate.Cnot { control = c; target = t })
              (pair (int_bound 2) (int_bound 2));
          ])
  in
  [
    Test.make ~name:"run = per-gate dense chain = column unitary" ~count:40
      arb_sized_circuit
      (fun (n, gates) ->
        let c = Circ.of_gates ~nqubits:n gates in
        (* A varied but deterministic basis-state input. *)
        let j = List.length gates * 37 mod (1 lsl n) in
        let s_run = State.basis n j in
        Circ.run c s_run;
        let s_chain =
          List.fold_left
            (fun s g -> Unitary.apply (Circ.gate_unitary ~nqubits:n g) s)
            (State.basis n j) gates
        in
        let s_mat = Unitary.apply (Circ.unitary c) (State.basis n j) in
        State.approx_equal ~eps:1e-9 s_run s_chain
        && State.approx_equal ~eps:1e-9 s_run s_mat);
    Test.make ~name:"wire roundtrip on random basis circuits" ~count:100
      (list_of_size (Gen.int_range 0 30) arb_basis_gate)
      (fun gates ->
        let c = Circ.of_gates ~nqubits:4 gates in
        let parsed = Wire.parse ~nqubits:4 (Wire.emit c) in
        Circ.gates parsed = Circ.gates c);
    Test.make ~name:"lowering always yields basis-only equivalent circuits" ~count:30
      (pair (int_bound 7) (int_bound 7))
      (fun (xmask, ymask) ->
        let to_vec mask =
          let v = Bitvec.create 4 in
          for i = 0 to 3 do
            if mask lsr i land 1 = 1 then Bitvec.set v i true
          done;
          v
        in
        let lay = Ops.layout ~k:1 in
        let gates =
          Ops.v_x lay (to_vec xmask) @ Ops.w_y lay (to_vec ymask) @ Ops.s_k lay
        in
        let structured = Circ.of_gates ~nqubits:(Ops.data_qubits lay) gates in
        let basis = Lower.to_basis structured in
        Circ.is_basis_only basis
        && Verify.equivalent ~reference:structured ~candidate:basis ());
  ]

let suite =
  [
    ("gate well-formedness", `Quick, test_gate_wellformed);
    ("circ append/guards", `Quick, test_circ_append_and_guards);
    ("circ growth", `Quick, test_circ_growth);
    ("run matches manual", `Quick, test_run_matches_manual_state);
    ("structured gate semantics", `Quick, test_structured_gates_semantics);
    ("lower 1q macros", `Quick, test_lower_single_qubit_macros);
    ("lower cz", `Quick, test_lower_two_qubit);
    ("lower toffoli exact", `Quick, test_lower_toffoli_exact);
    ("lower mcx ladders", `Quick, test_lower_mcx_with_ancillas);
    ("lower mcz", `Quick, test_lower_mcz);
    ("lower whole circuit", `Quick, test_lower_whole_circuit);
    ("ancillas needed", `Quick, test_ancillas_needed);
    ("wire roundtrip", `Quick, test_wire_roundtrip);
    ("wire identity convention", `Quick, test_wire_identity_convention);
    ("wire rejects garbage", `Quick, test_wire_rejects_garbage);
    ("ops circuit = direct", `Quick, test_ops_circuits_match_direct_application);
    ("s_k global phase", `Quick, test_s_k_is_minus_flip_zero);
    ("grover step = iteration", `Quick, test_grover_step_is_grover_iteration);
    ("per-bit builders compose", `Quick, test_per_bit_builders_compose_to_whole);
    ("verify detects differences", `Quick, test_verify_detects_difference);
    ("unitary at 12 qubits", `Quick, test_unitary_twelve_qubits);
    ("gate_unitary guard", `Quick, test_gate_unitary_guard);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
