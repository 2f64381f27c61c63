(** E3 — Theorem 3.4: behaviour of the quantum online recognizer.

    For each k, runs the recognizer over the standard workload (members,
    planted intersections of several sizes, a corrupted repetition,
    malformed inputs) and reports:

    - acceptance rate on members (must be exactly 1 — one-sided);
    - rejection rate on each class of non-member, sampled and exact,
      against the paper's >= 1/4 guarantee and the BBHT closed form;
    - metered space (classical bits + qubits). *)

type row = {
  k : int;
  kind : string;
  trials : int;
  accept_rate : float;
  mean_exact_accept : float;  (** mean of per-run exact probabilities *)
  closed_form : float option;  (** BBHT prediction, for intersecting inputs *)
  classical_bits : int;
  qubits : int;
}

val rows : ?quick:bool -> seed:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
