(** E13 (extension, §1 remark) — nondeterministic online space separation
    for the total language L_NE = { x#y : x <> y }.

    A nondeterministic online machine needs O(log n) bits (guess the
    differing index); a deterministic one needs n bits — its configuration
    census at the separator is 2^n, measured here with the Theorem 3.6
    machinery on the deterministic comparator machine. *)

type row = {
  n : int;  (** string length |x| = |y| *)
  nondet_space_bits : int;  (** one branch of the guessing machine *)
  det_census : int;
      (** configs at the cut over all 2^n inputs, measured exhaustively
          for n <= 10; 0 beyond (the analytic 2^n does not fit an int) *)
  det_message_bits : float;  (** log2 of the census = n *)
  correct : bool;  (** nondeterministic decision matched ground truth on
                       the whole workload *)
}

val rows : ?quick:bool -> seed:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
