(** The structured operators of Section 3.2.

    Procedure A3 works on the register |i>|h>|l> where [i] ranges over
    [2^{2k}] addresses.  Layout used throughout this repository:

    - qubits [0 .. 2k-1]: the address register (qubit 0 = LSB of [i]);
    - qubit [2k]: the [h] flag;
    - qubit [2k+1]: the [l] flag;
    - qubits [2k+2 ...]: clean ancillas for lowering.

    This module builds each operator as a circuit (a gate list, for
    streaming emission and lowering).  The simulator applies them
    through {!Quantum.State}'s kernels instead: procedure A3 calls
    [apply_hadamard_block] for U_k, [reflect_uniform] for U_k S_k U_k,
    and [apply_xor_on_addresses] / [apply_phase_on_addresses] for V_x,
    W_y and R_y, a word of input bits per call.  Tests check each
    builder against that kernel.

    Per-bit builders ([v_bit], [w_bit], [r_bit]) emit the gates for one
    input bit; an online machine calls them as it reads each bit, so it
    never stores the strings x, y — this is the crux of the O(log n) space
    bound. *)

type layout = { k : int; address_width : int; h : int; l : int }

val layout : k:int -> layout
(** [layout ~k] has [address_width = 2k], [h = 2k], [l = 2k+1]. *)

val data_qubits : layout -> int
(** [2k + 2]: address + h + l. *)

(** {1 Circuit builders} *)

val u_k : layout -> Gate.t list
(** U_k = H on every address qubit. *)

val s_k : layout -> Gate.t list
(** S_k: phase -1 on every basis state with non-zero address.  Built as
    [X^{2k}; MCZ(address); X^{2k}], which equals S_k up to a global -1. *)

val v_bit : layout -> int -> Gate.t list
(** [v_bit lay i]: the gates contributed by reading bit [x_i = 1] of V_x:
    flip [h] when the address equals [i].  (Bits with [x_i = 0] contribute
    nothing.) *)

val w_bit : layout -> int -> Gate.t list
(** [w_bit lay i]: contribution of [y_i = 1] to W_y: phase -1 when the
    address is [i] and [h = 1]. *)

val r_bit : layout -> int -> Gate.t list
(** [r_bit lay i]: contribution of [y_i = 1] to R_y: flip [l] when the
    address is [i] and [h = 1]. *)

val v_x : layout -> Mathx.Bitvec.t -> Gate.t list
val w_y : layout -> Mathx.Bitvec.t -> Gate.t list
val r_y : layout -> Mathx.Bitvec.t -> Gate.t list
(** Whole-string operators (concatenate the per-bit builders). *)

val grover_step : layout -> x:Mathx.Bitvec.t -> y:Mathx.Bitvec.t -> z:Mathx.Bitvec.t -> Gate.t list
(** One iteration of the loop in step 3 of procedure A3:
    [U_k S_k U_k V_z W_y V_x] (V_x applied first). *)
