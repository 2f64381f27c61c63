(** E1 — Theorem 3.1: the BCW quantum protocol communicates
    O(sqrt(m) log m) qubits on DISJ_m.

    Sweeps [m = 2^{2k}] and measures the protocol's total cost on disjoint
    and intersecting instances, against the analytic reference curve and
    the classical Ω(m) line.  The fitted log-log slope of cost vs m
    should sit near 0.5 (plus the log factor), far below the classical
    slope of 1. *)

type row = {
  k : int;
  m : int;
  qubits_per_message : int;
  cost_disjoint : float;  (** mean total cost, disjoint instances *)
  cost_one_hit : float;  (** mean total cost, t = 1 *)
  correct : bool;  (** all trials decided correctly *)
  reference : float;  (** the O(sqrt m log m) analytic estimate *)
  classical : int;  (** trivial protocol cost m + 1 *)
}

val rows : ?quick:bool -> seed:int -> unit -> row list
val slope : row list -> float
(** Fitted exponent of measured disjoint-instance cost vs m. *)

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
