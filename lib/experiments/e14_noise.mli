(** E14 (extension) — how clean must the quantum memory be?

    The paper motivates its model by the cost of quantum memory; this
    experiment measures how the Theorem 3.4 guarantees degrade when the
    2k+2 qubits suffer depolarizing noise (rate [p] per qubit per input
    repetition, one stochastic Pauli trajectory per run).

    Perfect completeness is the fragile part: noise breaks "members are
    never rejected" immediately, while the >= 1/4 rejection of
    non-members survives far longer (noise pushes the register toward
    uniform, which still rejects half the time). *)

type row = {
  p : float;  (** per-qubit per-repetition depolarizing rate *)
  member_accept : float;  (** was exactly 1 at p = 0 *)
  nonmember_reject : float;  (** guarantee: >= 1/4 at p = 0 *)
  trials : int;
}

val rows : ?quick:bool -> seed:int -> k:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
