(** Circuits: a qubit budget plus an ordered gate sequence.

    Built incrementally (procedure A3 emits gates while scanning the input
    stream), with amortised O(1) append. *)

type t

val create : nqubits:int -> t
(** Fresh empty circuit over qubits [0 .. nqubits-1]. *)

val nqubits : t -> int

val add : t -> Gate.t -> unit
(** Appends one gate.
    @raise Invalid_argument if the gate is ill-formed or touches a qubit
    outside the budget. *)

val add_list : t -> Gate.t list -> unit

val append : t -> t -> unit
(** [append t other] appends all of [other]'s gates to [t]
    (qubit budgets must agree). *)

val length : t -> int
(** Number of gates. *)

val gates : t -> Gate.t list
(** Gates in application order. *)

val iter : (Gate.t -> unit) -> t -> unit

val of_gates : nqubits:int -> Gate.t list -> t

val is_basis_only : t -> bool
(** True when every gate is in the Definition 2.3 set [{H, T, CNOT}]. *)

val run : t -> Quantum.State.t -> unit
(** Applies the circuit to a state in place.  Structured gates use the
    simulator's fast paths; no lowering required. *)

val unitary : t -> Quantum.Unitary.t
(** Dense matrix of the whole circuit, built by running the gate kernels
    on every basis-state column — O(gates * 4^n) instead of a dense
    per-gate product chain's O(gates * 8^n).  Verification only;
    [nqubits <= 12]. *)

val gate_unitary : nqubits:int -> Gate.t -> Quantum.Unitary.t
(** Dense matrix of a single gate embedded in an [nqubits]-qubit
    register — the per-gate reference path tests pit against {!run} and
    {!unitary}.
    @raise Invalid_argument if the gate exceeds the qubit budget. *)

val count : t -> (Gate.t -> bool) -> int

val pp : Format.formatter -> t -> unit
