(** Grover iteration on a state vector.

    Conventions: the address register occupies the {e low} [Oracle.n o]
    qubits of the state; any higher qubits (the [h], [l] work qubits of the
    paper's procedure A3, or lowering ancillas) are left untouched by the
    diffusion, which conditions only on the address bits. *)

val prepare_uniform : ?extra_qubits:int -> Oracle.t -> Quantum.State.t
(** [prepare_uniform ?extra_qubits o] builds the state
    [2^{-n/2} sum_i |i>|0...0>] with [extra_qubits] additional zeroed
    qubits above the address register (default 0). *)

val iteration : Oracle.t -> Quantum.State.t -> unit
(** One Grover iteration: multiply the amplitude of every basis state
    whose address part is marked by -1, then apply the diffusion
    [U_k S_k U_k] of §3.2 (Hadamards on the address register, a phase
    flip on every non-zero address, Hadamards again).  The diffusion is
    exactly 2|u><u| - I, "inversion about the mean" on the address
    register, and runs as {!Quantum.State.reflect_uniform}. *)

val run : ?extra_qubits:int -> Oracle.t -> int -> Quantum.State.t
(** [run o j] prepares the uniform state and applies [j] iterations. *)

val success_probability : Oracle.t -> Quantum.State.t -> float
(** Total probability mass on basis states whose address is marked. *)

val optimal_iterations : n_solutions:int -> space:int -> int
(** The classic [floor(pi/4 * sqrt(space / n_solutions))] iteration count
    for a known solution count (0 when [n_solutions = 0]). *)
