(** Noise channels.

    The paper motivates online quantum space complexity by the difficulty
    of building quantum memory; experiment E14 asks the follow-up
    question: how clean must the 2k+2 qubits be for the Theorem 3.4
    guarantees to survive?  Two standard models:

    - a {b stochastic unravelling} on state vectors: with probability [p]
      per qubit, apply a uniformly random Pauli — one trajectory of the
      depolarizing channel (Monte-Carlo over trajectories averages to the
      channel);
    - the {b exact depolarizing channel} on density matrices, used by
      tests to validate the unravelling. *)

val depolarize_qubit : Mathx.Rng.t -> p:float -> State.t -> int -> unit
(** One trajectory step on one qubit: with probability [p], applies X, Y
    or Z chosen uniformly. *)

val depolarize_all : Mathx.Rng.t -> p:float -> State.t -> unit
(** Applies {!depolarize_qubit} to every qubit of the register. *)

val channel_qubit : p:float -> Density.t -> int -> unit
(** Exact channel on a density matrix:
    [rho <- (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z)]. *)

val channel_all : p:float -> Density.t -> unit
