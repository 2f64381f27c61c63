(** E10 — procedure A2's error bound: a corrupted repetition slips past
    the fingerprint tests with probability below [2^{-2k}].

    Feeds A2 corrupted inputs (one flipped bit in one copy) and measures
    the false-pass rate against the analytic bound; also runs the
    ablation with a fixed 61-bit prime, whose error is essentially zero
    at higher register cost. *)

type row = {
  k : int;
  trials : int;
  false_pass : float;  (** corrupted input passes all tests *)
  bound : float;  (** [2^{-2k}] (conservative; analytic is m/p) *)
  prime_bits : int;
  wide_false_pass : float;  (** fixed 61-bit prime ablation *)
  wide_prime_bits : int;
}

val rows : ?quick:bool -> seed:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
