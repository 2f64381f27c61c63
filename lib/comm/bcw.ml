open Mathx
open Quantum

type result = {
  disjoint : bool;
  transcript : Transcript.t;
  grover_iterations : int;
  verification_rounds : int;
}

let log2_exact len =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  if len <= 0 || len land (len - 1) <> 0 then
    invalid_arg "Bcw: length must be a power of two"
  else go 0 len

let qubits_per_message ~n = log2_exact n + 1

let expected_cost ~n =
  let nf = float_of_int n in
  4.5 *. sqrt nf *. 2.0 *. (log nf /. log 2.0 +. 1.0)

(* One distributed Grover iteration on [state]; address = low [w] qubits,
   flag = qubit [w]. *)
let iteration tr state ~w ~x ~y =
  let mask = (1 lsl w) - 1 in
  let flag = 1 lsl w in
  let v () = State.apply_xor_if state (fun idx -> Bitvec.get x (idx land mask)) w in
  (* Alice: V_x, then send. *)
  v ();
  Transcript.send tr Transcript.Alice ~qubits:(w + 1) ();
  (* Bob: W_y, send back. *)
  State.apply_phase_if state (fun idx ->
      idx land flag <> 0 && Bitvec.get y (idx land mask));
  Transcript.send tr Transcript.Bob ~qubits:(w + 1) ();
  (* Alice: uncompute V_x, diffusion on the address register. *)
  v ();
  State.reflect_uniform state ~width:w

let run ?(max_verification_rounds = 3) rng ~x ~y =
  if Bitvec.length x <> Bitvec.length y then invalid_arg "Bcw.run: length mismatch";
  let n = Bitvec.length x in
  let w = log2_exact n in
  let tr = Transcript.create () in
  let total_iters = ref 0 in
  let sqrt_n = int_of_float (ceil (sqrt (float_of_int n))) in
  let found = ref false in
  let rounds_done = ref 0 in
  (* One full BBHT search with a hard iteration budget of 3 * sqrt n:
     with at least one solution the expected need is <= 4.5 * sqrt(n/t)
     and the budget is exceeded only with small constant probability;
     with no solution the budget caps the cost at O(sqrt n) iterations,
     i.e. O(sqrt n log n) qubits of communication.  Returns true iff a
     witness index was verified. *)
  let bbht_search () =
    let budget = (3 * sqrt_n) + 3 in
    let m = ref 1.0 in
    let spent = ref 0 in
    let hit = ref false in
    while (not !hit) && !spent <= budget do
      let state = State.create (w + 1) in
      State.apply_hadamard_block state 0 w;
      let j = Rng.int rng (max 1 (int_of_float !m)) in
      for _ = 1 to j do
        iteration tr state ~w ~x ~y
      done;
      total_iters := !total_iters + j;
      spent := !spent + j + 1;
      let candidate = State.sample_all state rng land ((1 lsl w) - 1) in
      (* Classical verification: Alice announces the measured index;
         Bob replies y_i; Alice knows x_i herself. *)
      Transcript.send tr Transcript.Alice ~classical_bits:w ();
      Transcript.send tr Transcript.Bob ~classical_bits:1 ();
      if Bitvec.get x candidate && Bitvec.get y candidate then hit := true
      else m := Float.min (!m *. (6.0 /. 5.0)) (float_of_int sqrt_n)
    done;
    !hit
  in
  while (not !found) && !rounds_done < max_verification_rounds do
    incr rounds_done;
    if bbht_search () then found := true
  done;
  {
    disjoint = not !found;
    transcript = tr;
    grover_iterations = !total_iters;
    verification_rounds = !rounds_done;
  }
