open Mathx

type layout = { k : int; address_width : int; h : int; l : int }

let layout ~k =
  if k < 1 || k > 10 then invalid_arg "Ops.layout: need 1 <= k <= 10";
  { k; address_width = 2 * k; h = 2 * k; l = (2 * k) + 1 }

let data_qubits lay = lay.address_width + 2

let address_qubits lay = List.init lay.address_width Fun.id

let u_k lay = List.map (fun q -> Gate.H q) (address_qubits lay)

let s_k lay =
  let xs = List.map (fun q -> Gate.X q) (address_qubits lay) in
  xs @ [ Gate.Mcz (address_qubits lay) ] @ xs

(* X-conjugation realising controls on the bit pattern of [i]: address
   qubits whose bit of [i] is 0 are flipped before and after. *)
let pattern_conjugation lay i =
  List.filter_map
    (fun q -> if i land (1 lsl q) = 0 then Some (Gate.X q) else None)
    (address_qubits lay)

let check_address lay i =
  if i < 0 || i >= 1 lsl lay.address_width then
    invalid_arg "Ops: address out of range"

let v_bit lay i =
  check_address lay i;
  let conj = pattern_conjugation lay i in
  conj @ [ Gate.Mcx { controls = address_qubits lay; target = lay.h } ] @ conj

let w_bit lay i =
  check_address lay i;
  let conj = pattern_conjugation lay i in
  conj @ [ Gate.Mcz (address_qubits lay @ [ lay.h ]) ] @ conj

let r_bit lay i =
  check_address lay i;
  let conj = pattern_conjugation lay i in
  conj
  @ [ Gate.Mcx { controls = address_qubits lay @ [ lay.h ]; target = lay.l } ]
  @ conj

let per_bit builder lay v =
  if Bitvec.length v <> 1 lsl lay.address_width then
    invalid_arg "Ops: string length must be 2^{2k}";
  let acc = ref [] in
  Bitvec.iteri (fun i b -> if b then acc := List.rev_append (builder lay i) !acc) v;
  List.rev !acc

let v_x lay v = per_bit v_bit lay v
let w_y lay v = per_bit w_bit lay v
let r_y lay v = per_bit r_bit lay v

let grover_step lay ~x ~y ~z =
  v_x lay x @ w_y lay y @ v_x lay z @ u_k lay @ s_k lay @ u_k lay
