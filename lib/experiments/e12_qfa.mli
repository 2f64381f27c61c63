(** E12 (extension, paper footnote 2) — Ambainis–Freivalds succinctness:
    QFAs recognize the divisibility languages L_p with O(log p) states
    where the minimal DFA needs p.

    For each prime p, measures the number of 2-state rotation blocks a
    random QFA needs to push every non-member's acceptance probability
    below the threshold, and compares 2*blocks against p and log2 p. *)

type row = {
  p : int;
  dfa_states : int;
  qfa_states : int;  (** 2 * blocks at threshold 3/4 *)
  log2_p : float;
  member_prob : float;  (** acceptance of a^p — must be 1 *)
  worst_nonmember : float;  (** below the threshold by construction *)
}

val rows : ?quick:bool -> seed:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
