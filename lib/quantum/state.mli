(** Dense state vectors.

    A register of [n] qubits is a unit vector in C^(2^n), stored as a
    single unboxed Float64 {!Bigarray} in C layout with interleaved
    real/imaginary parts ([re0; im0; re1; im1; ...]).  Basis states are
    indexed by integers; {b qubit 0 is the least significant bit} of the
    basis index.  All gate applications are in place.

    Every amplitude kernel is one plain loop on the calling domain, and
    every floating-point reduction sums left to right, so results are a
    pure function of the register and the gates applied — the seeded-run
    determinism contract of [run-all --check].  Parallelism lives a level
    up, one experiment or trial per [Mathx.Parallel.map_chunks] chunk;
    the paper's registers (2k + 2 qubits) are too small to pay for
    splitting one kernel across domains. *)

type t

val create : int -> t
(** [create n] is the [n]-qubit register initialised to |0...0>.
    Requires [0 <= n <= 24] (dense simulation). *)

val basis : int -> int -> t
(** [basis n idx] is the [n]-qubit computational-basis state |idx>.
    @raise Invalid_argument unless [0 <= idx < 2^n]. *)

val reset_basis : t -> int -> unit
(** [reset_basis s idx] re-initialises [s] in place to |idx>.  Counts as
    a fresh logical register in the [Obs] resource trace (the
    [quantum.registers] counter), so buffer reuse — e.g. the
    column-building path of [Circ.unitary] — reports the same resources
    as repeated {!create}. *)

val nqubits : t -> int

val dim : t -> int
(** [dim s] is [2 ^ nqubits s]. *)

val copy : t -> t

val amplitude : t -> int -> Mathx.Cplx.t
(** [amplitude s idx] is the coefficient of basis state [idx]. *)

val re : t -> int -> float
(** [re s idx] is the real part of the coefficient of basis state
    [idx] — the raw-field fast path ({!amplitude} boxes a [Cplx.t]). *)

val im : t -> int -> float
(** Imaginary counterpart of {!re}. *)

val set_amplitude : t -> int -> Mathx.Cplx.t -> unit
(** Raw write; the caller is responsible for renormalising.  Intended for
    tests and for preparing reference states. *)

val of_amplitudes : Mathx.Cplx.t array -> t
(** Builds a state from [2^n] amplitudes (normalised by the caller).
    @raise Invalid_argument if the length is not a power of two. *)

val norm : t -> float
(** Euclidean norm (1.0 up to rounding for any state produced by gates). *)

val probability : t -> int -> float
(** [probability s idx] is [|amplitude s idx|^2]. *)

val fidelity : t -> t -> float
(** [fidelity a b] is [|<a|b>|^2]. *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Amplitude-wise comparison, default tolerance [1e-9] (no global-phase
    quotient; see {!fidelity} for phase-insensitive comparison). *)

(** {1 Gate application} *)

val apply_gate1 : t -> Gates.single -> int -> unit
(** [apply_gate1 s g q] applies the 2x2 unitary [g] to qubit [q]. *)

val apply_controlled1 : t -> Gates.single -> control:int -> target:int -> unit
(** Controlled version of a single-qubit gate; [control <> target]. *)

val apply_cnot : t -> control:int -> target:int -> unit

val apply_phase_if : t -> (int -> bool) -> unit
(** [apply_phase_if s pred] multiplies the amplitude of every basis state
    [idx] with [pred idx] by -1.  This is the fast path for the paper's
    operators S_k and W_y (§3.2), which are diagonal ±1. *)

val apply_xor_if : t -> (int -> bool) -> int -> unit
(** [apply_xor_if s pred q] flips qubit [q] on every basis state whose
    {e other} bits satisfy [pred idx] ([pred] must not depend on bit [q]).
    Fast path for the operators V_x and R_y, which XOR a function of the
    address register into a one-qubit target. *)

val apply_hadamard_block : t -> int -> int -> unit
(** [apply_hadamard_block s lo count] applies H to qubits
    [lo .. lo+count-1] (the paper's [U_k = H^{2k}] on the address register). *)

val reflect_uniform : t -> width:int -> unit
(** [reflect_uniform s ~width] applies 2|u><u| - I to the low [width]
    qubits, where |u> is their uniform superposition: the Grover
    diffusion, "inversion about the mean".  It equals
    [apply_hadamard_block s 0 width], a phase flip on every basis state
    whose low [width] bits are not all zero, then
    [apply_hadamard_block s 0 width] again (the paper's U_k S_k U_k), up
    to rounding.  For each value of the qubits above [width] it takes
    the mean of those [2^width] amplitudes (one left-to-right sum) and
    sets each amplitude [a] to [2 mean - a].  Counts [2 width + 1] in
    [quantum.gates], as the three-step form does.
    @raise Invalid_argument unless [0 <= width <= nqubits s]. *)

val apply_xor_on_addresses :
  t -> width:int -> address:int -> bits:int -> ?require:int -> target:int -> unit -> unit
(** [apply_xor_on_addresses s ~width ~address ~bits ?require ~target ()]
    flips qubit [target] on exactly the basis states whose low [width]
    bits equal [address + i] for a set bit [i] of [bits] (and whose
    qubit [require] is 1, if given).  Touches O(popcount bits * dim /
    2^width) amplitudes — the O(1)-per-input-bit fast path that lets
    procedure A3 apply V_x and R_y while streaming, a word of input bits
    per call, without ever holding x or y.  The result is that of one
    call per set bit ([~bits:1] is the one-address gate), and each
    counts once in [quantum.gates].  [target] (and [require]) must lie
    at or above [width]; every address must fit in [width] bits. *)

val apply_phase_on_addresses :
  t -> width:int -> address:int -> bits:int -> ?require:int -> unit -> unit
(** Same enumeration, multiplying the matching amplitudes by -1 (the
    per-bit form of W_y).  With no [require] qubit, [width = nqubits s]
    is legal and [~bits:1] flips the phase of the single basis state
    [address] — the full-register oracle shape. *)

(** {1 Measurement} *)

val prob_qubit_one : t -> int -> float
(** Probability that measuring qubit [q] in the computational basis
    yields 1. *)

val measure_qubit : t -> Mathx.Rng.t -> int -> bool
(** [measure_qubit s rng q] samples the outcome of measuring qubit [q] and
    collapses the state accordingly.  Returns [true] for outcome 1. *)

val sample_all : t -> Mathx.Rng.t -> int
(** Samples a full computational-basis measurement (no collapse).  If
    floating-point shortfall leaves the cumulative probability below the
    drawn uniform, returns the largest index with nonzero probability
    (never a zero-mass basis state). *)

val distribution : t -> float array
(** All [2^n] basis-state probabilities. *)
