(** E2 — Theorem 3.2: R(DISJ_m) = Ω(m), checked exactly on small m.

    Computes, for each m, the quantities the lower-bound toolbox delivers
    outright: the one-way deterministic complexity (distinct matrix
    rows), the canonical fooling-set size, and the matrix rank over GF(2)
    and over the reals.  All four certify complexity exactly m (rows and
    ranks are 2^m, the fooling set has 2^m elements). *)

type row = {
  m : int;
  distinct_rows : int;
  one_way_cc : int;
  fooling_set : int;
  rank_gf2 : int;
  rank_real : int option;  (** computed for m <= 8 *)
  eq_one_way : int;
      (** deterministic one-way CC of EQ (also m) — the contrast: EQ's
          randomized one-way cost collapses to O(log m), DISJ's provably
          does not (Theorem 3.2) *)
  eq_randomized_bits : int;  (** measured fingerprint-protocol cost *)
}

val rows : ?quick:bool -> unit -> row list

val body : ?quick:bool -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
