(** E4 — Corollary 3.5: repetition drives the one-sided error below 1/3.

    Sweeps the repetition count r on a fixed intersecting workload and
    compares the measured acceptance (= error) rate against the (3/4)^r
    bound; members stay at acceptance 1 for every r. *)

type row = {
  repetitions : int;
  member_accept_rate : float;  (** must be 1.0 *)
  nonmember_accept_rate : float;  (** the error; must be <= bound *)
  bound : float;  (** (3/4)^r *)
  reaches_oqbpl : bool;  (** bound <= 1/3 *)
}

val rows : ?quick:bool -> seed:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
