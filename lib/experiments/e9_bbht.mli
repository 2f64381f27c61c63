(** E9 — the §3.2 analysis: procedure A3's rejection probability matches
    the Boyer–Brassard–Høyer–Tapp closed form and clears 1/4.

    For each planted intersection size t, averages the {e exact} simulated
    rejection probability of A3 over all 2^k values of the iteration
    count j and compares with
    [1/2 - sin(4·2^k θ)/(4·2^k sin 2θ)], [sin^2 θ = t/2^{2k}].
    Also benchmarks the ablation: the classic BBHT doubling schedule
    (communication-style search) against the paper's uniform-j draw. *)

type row = {
  t : int;  (** planted intersections *)
  simulated : float;  (** exact, averaged over all j *)
  closed_form : float;
  by_sum : float;  (** explicit finite sum, cross-check *)
  above_quarter : bool;
  bbht_schedule_found : float;  (** doubling-schedule success rate *)
}

val rows : ?quick:bool -> seed:int -> k:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
