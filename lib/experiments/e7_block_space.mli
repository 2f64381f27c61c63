(** E7 — Proposition 3.7: the classical block algorithm is correct in
    [Θ(n^{1/3})] space.

    Sweeps k, checking correctness on members and intersecting inputs and
    recording the metered footprint against [n^{1/3}]; the fitted log-log
    slope of space vs n should approach 1/3. *)

type row = {
  k : int;
  n : int;  (** input length *)
  space_bits : int;  (** total metered footprint *)
  storage_bits : int;  (** the dominant block-store term: 2^k *)
  ratio : float;  (** [space / n^{1/3}]; stabilises as k grows *)
  n_cuberoot : float;
  member_ok : bool;
  intersect_ok : bool;
}

val rows : ?quick:bool -> seed:int -> unit -> row list

val slope : row list -> float
(** log-log slope of total space vs n over the upper half of the sweep. *)

val storage_slope : row list -> float
(** Slope of the storage term alone — 1/3 exactly. *)

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
