(** E15 (extension) — the compiled-machine gallery.

    The register-program compiler turns the paper's streaming primitives
    into literal Turing machines; this experiment runs the gallery and
    reports control size, tape footprint and agreement with the reference
    implementations:

    - [parity]: the warm-up counter machine;
    - [run-length-equal]: the classic log-space comparator;
    - [fingerprint-eq]: procedure A2's primitive with modular arithmetic
      on the tape;
    - [ldisj-shape]: procedure A1 — condition (i) of Theorem 3.4 — as a
      ~10^4-state machine whose tape stays at O(log n) cells while the
      input grows by orders of magnitude. *)

type row = {
  machine : string;
  control_states : int;
  sample_input_length : int;
  steps : int;
  tape_cells : int;
  agree : bool;  (** verdicts match the reference on the sampled workload *)
}

val rows : ?quick:bool -> seed:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
