(* Tests for the state-vector simulator: gate algebra, state evolution
   cross-checked against dense unitaries, measurement semantics, and the
   per-address fast paths procedure A3 relies on. *)

open Mathx
open Quantum

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ---------------------------------------------------------------- gates *)

let test_named_gates_unitary () =
  List.iter
    (fun (name, g) -> check name true (Gates.is_unitary g))
    [
      ("id", Gates.id); ("h", Gates.h); ("x", Gates.x); ("y", Gates.y);
      ("z", Gates.z); ("s", Gates.s); ("sdg", Gates.sdg); ("t", Gates.t);
      ("tdg", Gates.tdg); ("rz", Gates.rz 0.7); ("phase", Gates.phase 1.3);
    ]

let test_gate_identities () =
  check "H^2 = I" true (Gates.approx_equal (Gates.compose Gates.h Gates.h) Gates.id);
  check "T^2 = S" true (Gates.approx_equal (Gates.compose Gates.t Gates.t) Gates.s);
  check "S^2 = Z" true (Gates.approx_equal (Gates.compose Gates.s Gates.s) Gates.z);
  check "T Tdg = I" true (Gates.approx_equal (Gates.compose Gates.t Gates.tdg) Gates.id);
  check "HZH = X" true
    (Gates.approx_equal (Gates.compose Gates.h (Gates.compose Gates.z Gates.h)) Gates.x);
  let t7 =
    List.fold_left (fun acc _ -> Gates.compose Gates.t acc) Gates.id
      (List.init 7 Fun.id)
  in
  check "T^7 = Tdg" true (Gates.approx_equal t7 Gates.tdg)

let test_equal_up_to_phase () =
  let minus_x = Gates.compose Gates.z (Gates.compose Gates.x Gates.z) in
  (* ZXZ = -X *)
  check "ZXZ != X exactly" false (Gates.approx_equal minus_x Gates.x);
  check "ZXZ = X up to phase" true (Gates.equal_up_to_phase minus_x Gates.x);
  check "H != X up to phase" false (Gates.equal_up_to_phase Gates.h Gates.x)

(* ---------------------------------------------------------------- state *)

let test_initial_state () =
  let s = State.create 3 in
  checkf "amp |000>" 1.0 (State.probability s 0);
  checkf "norm" 1.0 (State.norm s);
  Alcotest.(check int) "dim" 8 (State.dim s)

let test_x_flips () =
  let s = State.create 2 in
  State.apply_gate1 s Gates.x 1;
  checkf "now |10>" 1.0 (State.probability s 2);
  State.apply_gate1 s Gates.x 0;
  checkf "now |11>" 1.0 (State.probability s 3)

let test_hadamard_uniform () =
  let s = State.create 4 in
  State.apply_hadamard_block s 0 4;
  for i = 0 to 15 do
    checkf "uniform" (1.0 /. 16.0) (State.probability s i)
  done;
  State.apply_hadamard_block s 0 4;
  checkf "H twice restores |0>" 1.0 (State.probability s 0)

let test_cnot_truthtable () =
  List.iter
    (fun (input, expected) ->
      let s = State.create 2 in
      if input land 1 = 1 then State.apply_gate1 s Gates.x 0;
      if input land 2 = 2 then State.apply_gate1 s Gates.x 1;
      State.apply_cnot s ~control:0 ~target:1;
      checkf (Printf.sprintf "cnot |%d>" input) 1.0 (State.probability s expected))
    [ (0, 0); (1, 3); (2, 2); (3, 1) ]

let test_bell_state () =
  let s = State.create 2 in
  State.apply_gate1 s Gates.h 0;
  State.apply_cnot s ~control:0 ~target:1;
  checkf "P(00)" 0.5 (State.probability s 0);
  checkf "P(11)" 0.5 (State.probability s 3);
  checkf "P(01)" 0.0 (State.probability s 1);
  checkf "P(1 on either qubit)" 0.5 (State.prob_qubit_one s 0)

let test_state_vs_unitary_random_circuit () =
  (* Apply a fixed sequence of gates both to the fast simulator and via
     dense matrices; amplitudes must agree. *)
  let n = 3 in
  let gates =
    [
      `G1 (Gates.h, 0); `G1 (Gates.t, 1); `C (2, 1); `G1 (Gates.x, 2);
      `C (0, 2); `G1 (Gates.s, 0); `C (1, 0); `G1 (Gates.h, 2);
    ]
  in
  let s = State.create n in
  let u = ref (Unitary.identity n) in
  List.iter
    (fun g ->
      match g with
      | `G1 (g1, q) ->
          State.apply_gate1 s g1 q;
          u := Unitary.mul (Unitary.of_gate1 n g1 q) !u
      | `C (c, t) ->
          State.apply_cnot s ~control:c ~target:t;
          u := Unitary.mul (Unitary.of_controlled1 n Gates.x ~control:c ~target:t) !u)
    gates;
  let via_matrix = Unitary.apply !u (State.create n) in
  check "state matches dense unitary" true (State.approx_equal s via_matrix ~eps:1e-9)

let test_controlled_gate_only_fires_on_control () =
  let s = State.create 2 in
  State.apply_controlled1 s Gates.x ~control:1 ~target:0;
  checkf "control 0: nothing" 1.0 (State.probability s 0);
  State.apply_gate1 s Gates.x 1;
  State.apply_controlled1 s Gates.x ~control:1 ~target:0;
  checkf "control 1: fires" 1.0 (State.probability s 3)

let test_phase_if_and_xor_if_vs_unitary () =
  let n = 3 in
  let pred idx = idx land 1 = 1 in
  let s = State.create n in
  State.apply_hadamard_block s 0 n;
  let reference = State.copy s in
  State.apply_phase_if s pred;
  let u = Unitary.of_diagonal n (fun i -> if pred i then Cplx.re (-1.0) else Cplx.one) in
  let expected = Unitary.apply u reference in
  check "phase_if = diagonal unitary" true (State.approx_equal s expected);
  (* xor_if on qubit 2 conditioned on low bit. *)
  let s2 = State.copy expected in
  State.apply_xor_if s2 (fun idx -> idx land 1 = 1) 2;
  let perm =
    Unitary.of_permutation n (fun i -> if i land 1 = 1 then i lxor 4 else i)
  in
  let expected2 = Unitary.apply perm expected in
  check "xor_if = permutation unitary" true (State.approx_equal s2 expected2)

let test_address_fast_paths_match_generic () =
  (* apply_xor_on_addresses == apply_xor_if with an equality predicate. *)
  let n = 5 and width = 3 in
  let rng = Rng.create 21 in
  for address = 0 to 7 do
    let s = State.create n in
    (* Random-ish state via a few gates. *)
    State.apply_hadamard_block s 0 n;
    State.apply_gate1 s (Gates.rz (Rng.float rng)) 2;
    State.apply_cnot s ~control:0 ~target:4;
    let generic = State.copy s in
    State.apply_xor_on_addresses s ~width ~address ~bits:1 ~target:3 ();
    State.apply_xor_if generic (fun idx -> idx land 7 = address) 3;
    check "xor fast path" true (State.approx_equal s generic);
    (* Phase with a requirement bit. *)
    let s2 = State.copy s and generic2 = State.copy s in
    State.apply_phase_on_addresses s2 ~width ~address ~bits:1 ~require:4 ();
    State.apply_phase_if generic2 (fun idx ->
        idx land 7 = address && idx land 16 <> 0);
    check "phase fast path" true (State.approx_equal s2 generic2);
    (* Xor with a requirement bit. *)
    let s3 = State.copy s and generic3 = State.copy s in
    State.apply_xor_on_addresses s3 ~width ~address ~bits:1 ~require:4 ~target:3 ();
    State.apply_xor_if generic3
      (fun idx -> idx land 7 = address && idx land 16 <> 0)
      3;
    check "xor+require fast path" true (State.approx_equal s3 generic3);
    (* A word of addresses: every set bit i of [bits] names
       [address + i], as far as the width allows. *)
    let bits = 0b1101 land ((1 lsl (8 - address)) - 1) in
    let in_word idx =
      let a = idx land 7 in
      a >= address && (bits lsr (a - address)) land 1 = 1 && idx land 16 <> 0
    in
    let s4 = State.copy s and generic4 = State.copy s in
    State.apply_xor_on_addresses s4 ~width ~address ~bits ~require:4 ~target:3 ();
    State.apply_xor_if generic4 in_word 3;
    check "xor word fast path" true (State.approx_equal s4 generic4);
    let s5 = State.copy s and generic5 = State.copy s in
    State.apply_phase_on_addresses s5 ~width ~address ~bits ~require:4 ();
    State.apply_phase_if generic5 in_word;
    check "phase word fast path" true (State.approx_equal s5 generic5)
  done

let test_fidelity () =
  let a = State.create 2 in
  let b = State.create 2 in
  checkf "identical states" 1.0 (State.fidelity a b);
  State.apply_gate1 b Gates.x 0;
  checkf "orthogonal states" 0.0 (State.fidelity a b);
  State.apply_gate1 b Gates.h 0;
  (* b = H X |0> = |-> on qubit 0: |<0|->|^2 = 1/2 *)
  checkf "half overlap" 0.5 (State.fidelity a b)

let test_measure_collapse () =
  let rng = Rng.create 33 in
  let s = State.create 2 in
  State.apply_gate1 s Gates.h 0;
  State.apply_cnot s ~control:0 ~target:1;
  let outcome = State.measure_qubit s rng 0 in
  (* After measuring one half of a Bell pair, the other is determined. *)
  let expected = if outcome then 3 else 0 in
  checkf "collapsed" 1.0 (State.probability s expected);
  checkf "norm preserved" 1.0 (State.norm s)

let test_measure_statistics () =
  let rng = Rng.create 77 in
  let ones = ref 0 and trials = 4000 in
  for _ = 1 to trials do
    let s = State.create 1 in
    State.apply_gate1 s Gates.h 0;
    if State.measure_qubit s rng 0 then incr ones
  done;
  let rate = float_of_int !ones /. float_of_int trials in
  check "about half" true (Float.abs (rate -. 0.5) < 0.05)

let test_sample_all_distribution () =
  let rng = Rng.create 55 in
  let s = State.create 2 in
  State.apply_gate1 s Gates.x 1;
  Alcotest.(check int) "deterministic sample" 2 (State.sample_all s rng);
  let counts = Array.make 4 0 in
  let s2 = State.create 2 in
  State.apply_hadamard_block s2 0 2;
  for _ = 1 to 4000 do
    let v = State.sample_all s2 rng in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter (fun c -> check "roughly uniform" true (abs (c - 1000) < 200)) counts

let test_distribution_sums_to_one () =
  let s = State.create 4 in
  State.apply_hadamard_block s 0 4;
  State.apply_gate1 s (Gates.rz 0.3) 1;
  let total = Array.fold_left ( +. ) 0.0 (State.distribution s) in
  checkf "sums to 1" 1.0 total

let test_basis_and_reset () =
  let s = State.basis 3 5 in
  checkf "basis mass" 1.0 (State.probability s 5);
  State.apply_gate1 s Gates.h 0;
  State.reset_basis s 2;
  checkf "reset mass" 1.0 (State.probability s 2);
  checkf "reset cleared" 0.0 (State.probability s 5);
  check "bad index" true
    (match State.basis 2 4 with exception Invalid_argument _ -> true | _ -> false)

let test_full_width_phase_oracle () =
  (* Regression: [width = nqubits] with no require qubit is the
     full-register oracle (flip the phase of one basis state) and used
     to be rejected by the shared address guard. *)
  let n = 4 in
  let s = State.create n in
  State.apply_hadamard_block s 0 n;
  let reference = State.copy s in
  State.apply_phase_on_addresses s ~width:n ~address:9 ~bits:1 ();
  State.apply_phase_if reference (fun idx -> idx = 9);
  check "flips exactly |address>" true (State.approx_equal s reference);
  (* A require qubit (or xor target) still cannot fit above a
     full-width address. *)
  check "full width + require rejected" true
    (match
       State.apply_phase_on_addresses s ~width:n ~address:0 ~bits:1 ~require:3 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "full width xor rejected" true
    (match State.apply_xor_on_addresses s ~width:n ~address:0 ~bits:1 ~target:3 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sample_all_zero_tail () =
  (* Regression: when the cumulative probability falls short of the
     draw, the sampler must fall back to the largest index with nonzero
     probability — never to a zero-mass basis state like dim-1. *)
  let amps = Array.make 8 Cplx.zero in
  amps.(2) <- Cplx.re 0.4;
  (* total mass 0.16: most draws overshoot the cumulative sum *)
  let s = State.of_amplitudes amps in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    Alcotest.(check int) "largest nonzero index" 2 (State.sample_all s rng)
  done

let test_backend_paths_bit_identical () =
  (* The kernels share no mutable global state: the same gate sequence
     gives the same bits on the calling domain and on two domains at
     once — the determinism contract behind run-all --check. *)
  let run () =
    let s = State.create 15 in
    State.apply_hadamard_block s 0 15;
    State.apply_gate1 s (Gates.rz 0.37) 3;
    State.apply_gate1 s Gates.t 11;
    State.apply_controlled1 s Gates.t ~control:2 ~target:9;
    State.apply_cnot s ~control:14 ~target:0;
    State.apply_phase_if s (fun idx -> idx land 5 = 5);
    State.apply_xor_if s (fun idx -> idx land 3 = 1) 7;
    State.apply_xor_on_addresses s ~width:4 ~address:11 ~bits:1 ~target:8 ();
    State.apply_phase_on_addresses s ~width:4 ~address:7 ~bits:1 ~require:6 ();
    let n1 = State.norm s in
    let p1 = State.prob_qubit_one s 5 in
    let m = State.measure_qubit s (Rng.create 7) 9 in
    (s, n1, p1, m)
  in
  let seq, nrm_s, p_s, m_s = run () in
  Parallel.map_chunks ~domains:2 ~chunks:2
    (fun ~chunk:_ ~rng:_ -> run ())
    ~rng:(Rng.create 1)
  |> List.iter (fun (par, nrm_p, p_p, m_p) ->
         let ok = ref true in
         for i = 0 to State.dim seq - 1 do
           if State.re seq i <> State.re par i || State.im seq i <> State.im par i
           then ok := false
         done;
         check "amplitudes bit-identical" true !ok;
         check "norm bit-identical" true (nrm_s = nrm_p);
         check "prob bit-identical" true (p_s = p_p);
         check "measurement identical" true (m_s = m_p))

let test_of_amplitudes_guard () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "State.of_amplitudes: length must be a power of two")
    (fun () -> ignore (State.of_amplitudes (Array.make 3 Cplx.zero)))

(* -------------------------------------------------------------- unitary *)

let test_unitary_constructors () =
  check "H unitary" true (Unitary.is_unitary (Unitary.of_gate1 2 Gates.h 0));
  check "CX unitary" true
    (Unitary.is_unitary (Unitary.of_controlled1 2 Gates.x ~control:0 ~target:1));
  check "perm unitary" true
    (Unitary.is_unitary (Unitary.of_permutation 3 (fun i -> (i + 3) mod 8)));
  check "diag unitary" true
    (Unitary.is_unitary
       (Unitary.of_diagonal 2 (fun i -> Cplx.polar 1.0 (float_of_int i))));
  Alcotest.check_raises "non-bijection rejected"
    (Invalid_argument "Unitary.of_permutation: not a bijection") (fun () ->
      ignore (Unitary.of_permutation 2 (fun _ -> 0)))

let test_unitary_phase_equality () =
  let u = Unitary.of_gate1 2 Gates.x 0 in
  let minus_u =
    Unitary.mul (Unitary.of_diagonal 2 (fun _ -> Cplx.re (-1.0))) u
  in
  check "differ exactly" false (Unitary.approx_equal u minus_u);
  check "equal up to phase" true (Unitary.equal_up_to_phase u minus_u)

let test_unitary_adjoint_inverse () =
  let u =
    Unitary.mul
      (Unitary.of_gate1 2 Gates.t 1)
      (Unitary.of_controlled1 2 Gates.x ~control:1 ~target:0)
  in
  check "U U* = I" true
    (Unitary.approx_equal (Unitary.mul u (Unitary.adjoint u)) (Unitary.identity 2))

(* ----------------------------------------------------------- properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"random 1q gate words preserve norm" ~count:100
      (list_of_size (Gen.int_range 1 20) (int_bound 5))
      (fun word ->
        let s = State.create 3 in
        List.iteri
          (fun i g ->
            let q = i mod 3 in
            match g with
            | 0 -> State.apply_gate1 s Gates.h q
            | 1 -> State.apply_gate1 s Gates.t q
            | 2 -> State.apply_gate1 s Gates.x q
            | 3 -> State.apply_gate1 s Gates.s q
            | 4 -> State.apply_cnot s ~control:q ~target:((q + 1) mod 3)
            | _ -> State.apply_gate1 s Gates.z q)
          word;
        Float.abs (State.norm s -. 1.0) < 1e-9);
    Test.make ~name:"phase_if twice is identity" ~count:50
      (int_bound 255)
      (fun mask ->
        let s = State.create 4 in
        State.apply_hadamard_block s 0 4;
        let reference = State.copy s in
        let pred idx = idx land mask <> 0 in
        State.apply_phase_if s pred;
        State.apply_phase_if s pred;
        State.approx_equal s reference);
    Test.make ~name:"xor_if twice is identity" ~count:50
      (int_bound 7)
      (fun low ->
        let s = State.create 4 in
        State.apply_hadamard_block s 0 4;
        State.apply_gate1 s (Gates.rz 0.4) 1;
        let reference = State.copy s in
        let pred idx = idx land 7 = low in
        State.apply_xor_if s pred 3;
        State.apply_xor_if s pred 3;
        State.approx_equal s reference);
    Test.make ~name:"reflect_uniform = H, phase flip off 0, H" ~count:30
      (pair (int_bound 14) small_nat)
      (fun (n, seed) ->
        let rng = Rng.create seed in
        let amps =
          Array.init (1 lsl n) (fun _ ->
              Cplx.make ((2.0 *. Rng.float rng) -. 1.0) ((2.0 *. Rng.float rng) -. 1.0))
        in
        let s = State.of_amplitudes amps in
        let scale = 1.0 /. State.norm s in
        Array.iteri (fun i c -> State.set_amplitude s i (Cplx.scale scale c)) amps;
        (* Each form runs on its own copy under its own sink: the states
           agree to rounding and the gate counts exactly. *)
        let run f =
          let c = State.copy s and sink = Obs.create () in
          Obs.Scope.with_sink sink (fun () -> f c);
          (c, Obs.count sink "quantum.gates")
        in
        List.for_all
          (fun width ->
            let fast, g_fast = run (fun c -> State.reflect_uniform c ~width) in
            let slow, g_slow =
              run (fun c ->
                  State.apply_hadamard_block c 0 width;
                  State.apply_phase_if c (fun idx -> idx land ((1 lsl width) - 1) <> 0);
                  State.apply_hadamard_block c 0 width)
            in
            g_fast = g_slow && State.approx_equal ~eps:1e-10 fast slow)
          (List.init (n + 1) Fun.id));
  ]

let suite =
  [
    ("gates unitary", `Quick, test_named_gates_unitary);
    ("gate identities", `Quick, test_gate_identities);
    ("equal up to phase", `Quick, test_equal_up_to_phase);
    ("initial state", `Quick, test_initial_state);
    ("x flips", `Quick, test_x_flips);
    ("hadamard uniform", `Quick, test_hadamard_uniform);
    ("cnot truth table", `Quick, test_cnot_truthtable);
    ("bell state", `Quick, test_bell_state);
    ("state vs dense unitary", `Quick, test_state_vs_unitary_random_circuit);
    ("controlled fires on control", `Quick, test_controlled_gate_only_fires_on_control);
    ("phase_if/xor_if vs unitary", `Quick, test_phase_if_and_xor_if_vs_unitary);
    ("address fast paths", `Quick, test_address_fast_paths_match_generic);
    ("fidelity", `Quick, test_fidelity);
    ("measurement collapse", `Quick, test_measure_collapse);
    ("measurement statistics", `Quick, test_measure_statistics);
    ("sample_all", `Quick, test_sample_all_distribution);
    ("distribution normalised", `Quick, test_distribution_sums_to_one);
    ("of_amplitudes guard", `Quick, test_of_amplitudes_guard);
    ("basis and reset_basis", `Quick, test_basis_and_reset);
    ("full-width phase oracle", `Quick, test_full_width_phase_oracle);
    ("sample_all zero tail", `Quick, test_sample_all_zero_tail);
    ("backend paths bit-identical", `Quick, test_backend_paths_bit_identical);
    ("unitary constructors", `Quick, test_unitary_constructors);
    ("unitary phase equality", `Quick, test_unitary_phase_equality);
    ("unitary adjoint inverse", `Quick, test_unitary_adjoint_inverse);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
