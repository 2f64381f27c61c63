open Quantum

type t = { nqubits : int; mutable gates : Gate.t array; mutable len : int }

let create ~nqubits =
  if nqubits <= 0 then invalid_arg "Circ.create: need at least one qubit";
  { nqubits; gates = Array.make 16 (Gate.H 0); len = 0 }

let nqubits t = t.nqubits

let add t g =
  if not (Gate.well_formed g) then
    Fmt.invalid_arg "Circ.add: ill-formed gate %a" Gate.pp g;
  if Gate.max_qubit g >= t.nqubits then
    Fmt.invalid_arg "Circ.add: gate %a exceeds qubit budget %d" Gate.pp g t.nqubits;
  if t.len = Array.length t.gates then begin
    let bigger = Array.make (2 * t.len) (Gate.H 0) in
    Array.blit t.gates 0 bigger 0 t.len;
    t.gates <- bigger
  end;
  t.gates.(t.len) <- g;
  t.len <- t.len + 1;
  Obs.Scope.incr "circuit.gates"

let add_list t gs = List.iter (add t) gs

let length t = t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.gates.(i)
  done

let append t other =
  if t.nqubits <> other.nqubits then invalid_arg "Circ.append: qubit budget mismatch";
  iter (add t) other

let gates t = Array.to_list (Array.sub t.gates 0 t.len)

let of_gates ~nqubits gs =
  let t = create ~nqubits in
  add_list t gs;
  t

let is_basis_only t =
  let ok = ref true in
  iter (fun g -> if not (Gate.is_basis g) then ok := false) t;
  !ok

let all_ones idx qs = List.for_all (fun q -> idx land (1 lsl q) <> 0) qs

let apply_gate s (g : Gate.t) =
  match g with
  | Gate.H q -> State.apply_gate1 s Gates.h q
  | Gate.T q -> State.apply_gate1 s Gates.t q
  | Gate.Tdg q -> State.apply_gate1 s Gates.tdg q
  | Gate.S q -> State.apply_gate1 s Gates.s q
  | Gate.Sdg q -> State.apply_gate1 s Gates.sdg q
  | Gate.X q -> State.apply_gate1 s Gates.x q
  | Gate.Z q -> State.apply_gate1 s Gates.z q
  | Gate.Cnot { control; target } -> State.apply_cnot s ~control ~target
  | Gate.Cz (a, b) -> State.apply_phase_if s (fun idx -> all_ones idx [ a; b ])
  | Gate.Ccx { c1; c2; target } ->
      State.apply_xor_if s (fun idx -> all_ones idx [ c1; c2 ]) target
  | Gate.Mcx { controls; target } ->
      State.apply_xor_if s (fun idx -> all_ones idx controls) target
  | Gate.Mcz qs -> State.apply_phase_if s (fun idx -> all_ones idx qs)

let run t s =
  if State.nqubits s <> t.nqubits then invalid_arg "Circ.run: register size mismatch";
  Obs.Scope.incr "circuit.runs";
  Obs.Trace.with_span
    ~args:[ ("gates", Obs.Trace.Int t.len) ]
    "circ.run"
    (fun () -> iter (apply_gate s) t)

let gate_unitary ~nqubits (g : Gate.t) =
  if Gate.max_qubit g >= nqubits then
    Fmt.invalid_arg "Circ.gate_unitary: gate %a exceeds qubit budget %d" Gate.pp g
      nqubits;
  match g with
  | Gate.H q -> Unitary.of_gate1 nqubits Gates.h q
  | Gate.T q -> Unitary.of_gate1 nqubits Gates.t q
  | Gate.Tdg q -> Unitary.of_gate1 nqubits Gates.tdg q
  | Gate.S q -> Unitary.of_gate1 nqubits Gates.s q
  | Gate.Sdg q -> Unitary.of_gate1 nqubits Gates.sdg q
  | Gate.X q -> Unitary.of_gate1 nqubits Gates.x q
  | Gate.Z q -> Unitary.of_gate1 nqubits Gates.z q
  | Gate.Cnot { control; target } ->
      Unitary.of_controlled1 nqubits Gates.x ~control ~target
  | Gate.Cz (a, b) ->
      Unitary.of_diagonal nqubits (fun idx ->
          if all_ones idx [ a; b ] then Mathx.Cplx.re (-1.0) else Mathx.Cplx.one)
  | Gate.Ccx { c1; c2; target } ->
      Unitary.of_permutation nqubits (fun idx ->
          if all_ones idx [ c1; c2 ] then idx lxor (1 lsl target) else idx)
  | Gate.Mcx { controls; target } ->
      Unitary.of_permutation nqubits (fun idx ->
          if all_ones idx controls then idx lxor (1 lsl target) else idx)
  | Gate.Mcz qs ->
      Unitary.of_diagonal nqubits (fun idx ->
          if all_ones idx qs then Mathx.Cplx.re (-1.0) else Mathx.Cplx.one)

(* Column building: run the state-vector gate kernels on each basis
   state |j> and read column j off the register.  O(gates * 4^n) total
   instead of the old dense per-gate product chain's O(gates * 8^n),
   which is what lifts the feasible verification size from 10 to 12
   qubits.  One scratch register is reused across columns;
   [State.reset_basis] records each logical fresh register in the Obs
   trace, so the [resources] section is the same as if every column
   allocated its own. *)
let unitary t =
  if t.nqubits > 12 then invalid_arg "Circ.unitary: register too large for dense matrix";
  Obs.Trace.with_span ~args:[ ("gates", Obs.Trace.Int t.len) ] "circ.unitary"
  @@ fun () ->
  let d = 1 lsl t.nqubits in
  let u = Unitary.identity t.nqubits in
  let col = State.create t.nqubits in
  for j = 0 to d - 1 do
    State.reset_basis col j;
    iter (apply_gate col) t;
    for i = 0 to d - 1 do
      Unitary.set u i j (State.amplitude col i)
    done
  done;
  u

let count t pred =
  let acc = ref 0 in
  iter (fun g -> if pred g then incr acc) t;
  !acc

let pp fmt t =
  Format.fprintf fmt "@[<v>circuit on %d qubits, %d gates:@," t.nqubits t.len;
  iter (fun g -> Format.fprintf fmt "  %a@," Gate.pp g) t;
  Format.fprintf fmt "@]"
