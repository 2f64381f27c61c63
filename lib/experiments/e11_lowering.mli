(** E11 — Definition 2.3 discipline: the circuit A3 emits lowers to
    [{H, T, CNOT}] exactly and stays within the [2^{s(n)}] gate budget.

    Builds the structured circuit A3 records while streaming a real
    input, compiles it with {!Circuit.Lower.to_basis}, round-trips the
    Definition 2.3 wire format, and verifies semantic equivalence on the
    clean-ancilla subspace.  Reports gate counts (the ablation: the
    structured fast path vs the fully lowered form). *)

type row = {
  k : int;
  j : int;  (** forced Grover iteration count *)
  structured_gates : int;
  basis_gates : int;
  t_count : int;
  ancillas : int;
  wire_chars : int;  (** serialized Definition 2.3 output length *)
  wire_roundtrip_ok : bool;
  equivalent : bool;
  max_deviation : float;
  budget_constant : float;
      (** smallest c with gate count [<= n^c = 2^{c log2 n}]: Definition 2.3
          permits [2^{s(n)}] steps with [s(n) = c log n], so any O(1) value
          here satisfies the budget *)
  input_length : int;
  optimized_gates : int;
      (** gate count after {!Circuit.Optimize} — the ablation: local
          lowering vs lowering + peephole cleanup *)
  optimized_equivalent : bool;
}

val rows : ?quick:bool -> seed:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
