open Quantum

let prepare_uniform ?(extra_qubits = 0) o =
  let n = Oracle.n o in
  let s = State.create (n + extra_qubits) in
  State.apply_hadamard_block s 0 n;
  s

let address_mask o = (1 lsl Oracle.n o) - 1

let phase_oracle o s =
  let mask = address_mask o in
  State.apply_phase_if s (fun idx -> Oracle.marked o (idx land mask))

let iteration o s =
  phase_oracle o s;
  State.reflect_uniform s ~width:(Oracle.n o)

let run ?extra_qubits o j =
  let s = prepare_uniform ?extra_qubits o in
  for _ = 1 to j do
    iteration o s
  done;
  s

(* Whole-register scan: read the components directly instead of paying
   a [State.probability] call per index; same expression, so the sum is
   bit-identical. *)
let success_probability o s =
  let mask = address_mask o in
  let acc = ref 0.0 in
  for idx = 0 to State.dim s - 1 do
    if Oracle.marked o (idx land mask) then begin
      let xr = State.re s idx and xi = State.im s idx in
      acc := !acc +. ((xr *. xr) +. (xi *. xi))
    end
  done;
  !acc

let optimal_iterations ~n_solutions ~space =
  if n_solutions <= 0 then 0
  else begin
    let theta = asin (sqrt (float_of_int n_solutions /. float_of_int space)) in
    int_of_float (Float.pi /. (4.0 *. theta))
  end
