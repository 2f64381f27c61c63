(** Procedure A3 (§3.2): the streaming distributed-Grover test.

    Assuming conditions (i)–(iii) hold, A3 decides whether
    [DISJ(x, y) = 1] using the quantum register |i>|h>|l> of [2k + 2]
    qubits and O(k) classical bits:

    + draw [j] uniformly from [{0, ..., 2^k - 1}];
    + for the first [j] repetitions of [x#y#x#], perform one Grover
      iteration [U_k S_k U_k V_z W_y V_x] — each operator applied
      {e bit by bit} as the corresponding input symbol streams past;
    + on repetition [j] (0-based), apply [R_y V_x] and stop listening;
    + measure the [l] qubit; output [1 - b].

    If DISJ = 1 the measurement gives [b = 0] with probability 1, so A3
    outputs 1 with probability 1.  Otherwise, averaging over [j], the
    probability of outputting 0 is
    [1/2 - sin(4·2^k θ) / (4·2^k sin 2θ) >= 1/4] where
    [sin^2 θ = t / 2^{2k}] (Boyer–Brassard–Høyer–Tapp).

    The simulator backs the quantum register with a dense state vector;
    each input bit touches O(1) amplitudes, so streaming is cheap.  With
    [~emit_circuit:true], A3 also records the gate sequence it would
    write on the output tape (Definition 2.3) as a structured circuit,
    which experiment E11 lowers to [{H, T, CNOT}] and verifies. *)

type t

val create :
  ?emit_circuit:bool ->
  ?emit_wire:bool ->
  ?force_j:int ->
  ?noise:(Quantum.State.t -> unit) ->
  Machine.Workspace.t ->
  Mathx.Rng.t ->
  k:int ->
  t
(** [force_j] pins the Grover iteration count instead of drawing it —
    used by the analysis experiments to average over [j] exactly and by
    the circuit-verification tests.  The paper's algorithm always draws.

    [noise], if given, is applied to the quantum register once per input
    repetition (after the diffusion) — the hook experiment E14 uses to
    model an imperfect quantum memory.  Default: no noise. *)

val observe : t -> A1.role -> unit
(** Applies the gates a role calls for.  A word of block bits past the
    [j]-th repetition is skipped; otherwise each ['1'] in it gets its
    segment's gate, in input order. *)

val fixed_j : t -> int
(** The iteration count drawn at creation. *)

val prob_output_zero : t -> float
(** Exact probability (given the drawn [j]) that A3 outputs 0, i.e. that
    measuring [l] yields 1.  Call after the stream is exhausted. *)

val sample_output : t -> Mathx.Rng.t -> bool
(** Samples A3's output bit: [true] = output 1 ("looks disjoint").
    Collapses the register; call once. *)

val circuit : t -> Circuit.Circ.t option
(** The recorded structured circuit, when emission was requested. *)

val wire : t -> string option
(** With [~emit_wire:true], the Definition 2.3 output tape as written so
    far: every structured operator is lowered to [{H, T, CNOT}] {e as the
    corresponding input symbol streams past} and appended as wire
    triples — the literal behaviour of the paper's machine.  The 2k - 1
    lowering ancillas are charged to the qubit ledger. *)

val qubits : t -> int
(** 2k + 2. *)
