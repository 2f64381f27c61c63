open Machine
open Mathx
open Quantum

type t = {
  ws : Workspace.t;
  lay : Circuit.Ops.layout;
  state : State.t;
  j : Workspace.reg;  (* the random Grover iteration count *)
  j_value : int;  (* its value, fixed at creation *)
  recording : bool;  (* a circuit or a wire tape is being written *)
  circ : Circuit.Circ.t option;
  noise : (State.t -> unit) option;
  wire : Buffer.t option;  (* online Definition 2.3 output tape *)
  mutable wire_first : bool;
  ancillas : int list;  (* lowering pool, used only when emitting wire *)
}

(* Callers build a gate list only when [t.recording] holds, so the
   plain simulation allocates no gates. *)
let record t gates =
  (match t.circ with Some c -> Circuit.Circ.add_list c gates | None -> ());
  match t.wire with
  | None -> ()
  | Some buf ->
      List.iter
        (fun g ->
          List.iter
            (fun basis ->
              Circuit.Wire.emit_gate buf ~first:t.wire_first basis;
              t.wire_first <- false)
            (Circuit.Lower.gate_to_basis ~ancillas:t.ancillas g))
        gates

let create ?(emit_circuit = false) ?(emit_wire = false) ?force_j ?noise ws rng ~k =
  if k < 1 || k > 10 then invalid_arg "A3.create: k out of range for simulation";
  let lay = Circuit.Ops.layout ~k in
  let nq = Circuit.Ops.data_qubits lay in
  Workspace.alloc_qubits ws nq;
  let j = Workspace.alloc ws ~name:"a3.j" ~bits:(max 1 k) in
  let drawn =
    match force_j with
    | Some v ->
        if v < 0 || v >= 1 lsl k then invalid_arg "A3.create: force_j out of range";
        v
    | None -> Rng.int rng (1 lsl k)
  in
  Workspace.set ws j drawn;
  let state = State.create nq in
  State.apply_hadamard_block state 0 lay.Circuit.Ops.address_width;
  let circ =
    if emit_circuit then Some (Circuit.Circ.create ~nqubits:nq) else None
  in
  (* Wire emission lowers on the fly; the worst gate (R_y's MCX with
     2k + 1 controls) needs 2k - 1 clean ancillas above the data. *)
  let ancillas = List.init (max 0 ((2 * k) - 1)) (fun i -> nq + i) in
  let wire =
    if emit_wire then begin
      Workspace.alloc_qubits ws (List.length ancillas);
      Some (Buffer.create 1024)
    end
    else None
  in
  let t =
    {
      ws;
      lay;
      state;
      j;
      j_value = drawn;
      recording = emit_circuit || emit_wire;
      circ;
      noise;
      wire;
      wire_first = true;
      ancillas;
    }
  in
  if t.recording then record t (Circuit.Ops.u_k lay);
  t

let fixed_j t = Workspace.get t.ws t.j

let width t = t.lay.Circuit.Ops.address_width

(* The gates of one word's set bits: one state kernel, then, when
   recording, one gate per bit in input order. *)
let v_bits t ~idx bits =
  State.apply_xor_on_addresses t.state ~width:(width t) ~address:idx ~bits
    ~target:t.lay.Circuit.Ops.h ();
  if t.recording then
    A1.iter_set_bits (fun i -> record t (Circuit.Ops.v_bit t.lay i)) ~idx bits

let w_bits t ~idx bits =
  State.apply_phase_on_addresses t.state ~width:(width t) ~address:idx ~bits
    ~require:t.lay.Circuit.Ops.h ();
  if t.recording then
    A1.iter_set_bits (fun i -> record t (Circuit.Ops.w_bit t.lay i)) ~idx bits

let r_bits t ~idx bits =
  State.apply_xor_on_addresses t.state ~width:(width t) ~address:idx ~bits
    ~require:t.lay.Circuit.Ops.h ~target:t.lay.Circuit.Ops.l ();
  if t.recording then
    A1.iter_set_bits (fun i -> record t (Circuit.Ops.r_bit t.lay i)) ~idx bits

(* U_k S_k U_k in one kernel; the recorded gates stay the three-step
   form, so a circuit or wire tape is that of the paper's operator. *)
let diffusion t =
  State.reflect_uniform t.state ~width:(width t);
  if t.recording then
    record t (Circuit.Ops.u_k t.lay @ Circuit.Ops.s_k t.lay @ Circuit.Ops.u_k t.lay)

let observe t (role : A1.role) =
  let j = t.j_value in
  match role with
  | A1.Prefix_one | A1.Prefix_sep | A1.Bad -> ()
  | A1.Block_bits { rep; seg; idx; bits; _ } ->
      (* Repetitions after the j-th carry no gates; in the others each
         '1' of the word gets its segment's gate, in input order. *)
      if rep < j then begin
        match seg with
        | A1.X | A1.Z -> v_bits t ~idx bits
        | A1.Y -> w_bits t ~idx bits
      end
      else if rep = j then begin
        match seg with
        | A1.X -> v_bits t ~idx bits
        | A1.Y -> r_bits t ~idx bits
        | A1.Z -> ()
      end
  | A1.Block_sep { rep; seg } ->
      if seg = A1.Z then begin
        if rep < j then diffusion t;
        match t.noise with Some f -> f t.state | None -> ()
      end

let prob_output_zero t = State.prob_qubit_one t.state t.lay.Circuit.Ops.l

let sample_output t rng =
  let b = State.measure_qubit t.state rng t.lay.Circuit.Ops.l in
  not b

let circuit t = t.circ

let wire t = Option.map Buffer.contents t.wire

let qubits t = Circuit.Ops.data_qubits t.lay
