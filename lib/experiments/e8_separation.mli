(** E8 — the headline result: exponential separation of quantum and
    classical online space on the same inputs.

    Joint sweep over k of the metered footprints of the quantum
    recognizer (Theorem 3.4: O(log n)), the classical block algorithm
    (Proposition 3.7: [Θ(n^{1/3})], optimal by Theorem 3.6) and the naive
    store-everything baseline ([Θ(n^{2/3})]).  The quantum column fits a
    line against log2 n while both classical columns fit power laws —
    the separation is exponential in the space budget. *)

type row = {
  k : int;
  n : int;
  quantum_total_bits : int option;
      (** classical bits + qubits of the recognizer; [None] beyond the
          dense-simulation cap (the classical baselines keep going, which
          is itself the point) *)
  quantum_qubits : int option;
  classical_block_bits : int;
  naive_bits : int;
  log2_n : float;
  n_cuberoot : float;
}

type fit = {
  quantum_vs_log : float * float;  (** (a, b): quantum = a*log2 n + b *)
  block_exponent : float;  (** log-log slope vs n, ~1/3 *)
  naive_exponent : float;  (** ~2/3 *)
}

val rows : ?quick:bool -> seed:int -> unit -> row list
val fits : row list -> fit

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
