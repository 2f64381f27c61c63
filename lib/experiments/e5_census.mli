(** E5 — Theorem 3.6 mechanics: configurations at cuts price the induced
    one-way protocol.

    Runs the reduction on a machine that {e must} remember its block (the
    [u#u] comparator): over the family of all 2^m blocks, the
    configuration census at the post-# cut is exactly 2^m, so the induced
    protocol message costs m bits — the mechanism that, combined with
    R(DISJ) = Ω(m), yields the [Ω(n^{1/3})] space bound.  The O(1)-space
    contrast machine shows the census staying constant.  Both censuses
    are checked against the Fact 2.2 counting bound. *)

type row = {
  machine : string;
  m : int;  (** block length *)
  family_size : int;
  configs_at_cut : int;
  message_bits : float;  (** log2 of the census *)
  fact22_log2_bound : float;
  peak_work_cells : int;
}

val rows : ?quick:bool -> unit -> row list

val body : ?quick:bool -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
