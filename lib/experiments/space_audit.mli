(** Gated space-scaling audit backing the [space-audit] CLI subcommand.

    Sweeps the block-decomposition parameter [k], measures the metered
    space of the classical [Oqsc.Classical_block] machine and the
    quantum [Oqsc.Recognizer] on the same [L_DISJ] instances, and fits
    scaling models to both:

    - classical: a log-log power fit of the block store against [n].
      Proposition 3.7 puts the store at exactly [2^k = Theta(n^(1/3))],
      so the fitted exponent must land inside a declared band around
      one third;
    - quantum: the same data under two competing models — linear in
      [log2 n] (Theorem 3.4's [O(log n)]) versus a power law in [n].
      The audit passes when the logarithmic model explains the data at
      least as well ([r2] no worse than the power fit's).

    Everything is a pure function of [(quick, seed)], so the JSON
    document is byte-stable and CI gates on the verdict. *)

type row = {
  k : int;
  n : int;  (** instance length: [k + 1 + 2^k * (3 * 2^(2k) + 3)] *)
  classical_storage_bits : int;  (** block store alone: exactly [2^k] *)
  classical_total_bits : int;  (** peak metered bits incl. counters *)
  quantum_total_bits : int option;  (** classical + qubits; [None] above the simulation cap *)
  quantum_qubits : int option;
  wall_ms : float;
      (** wall-clock of this row's sweep — telemetry only, serialized
          only with [~timing:true], never gated *)
}

type fit = {
  classical_slope : float;  (** fitted exponent of the block store vs [n] *)
  classical_r2 : float;
  quantum_log_slope : float;  (** bits per doubling of [n] *)
  quantum_log_r2 : float;
  quantum_power_slope : float;  (** exponent the power-law model would claim *)
  quantum_power_r2 : float;
}

type verdict = {
  classical_band : float * float;  (** inclusive [lo, hi] for [classical_slope] *)
  classical_ok : bool;
  quantum_ok : bool;  (** [quantum_log_r2 >= quantum_power_r2] *)
}

type audit = { rows : row list; fit : fit; verdict : verdict }

val default_classical_band : float * float
(** [(0.28, 0.40)], bracketing the asymptotic 1/3 with room for
    finite-size drift at the smallest [k]. *)

val quantum_cap : bool -> int
(** Largest [k] whose recognizer is dense-simulated ([4] quick, [6]
    full; [2k + 2] qubits). *)

val rows : ?quick:bool -> ?shard:int * int -> seed:int -> unit -> row list
(** [k] in [1..5] (quick) or [1..8] (full), one instance per [k].
    [shard = (i, n)] measures only the rows at positions [j mod n = i]
    of the sweep; skipped rows still burn the PRNG splits they would
    have consumed, so every returned row is byte-identical to the same
    row of the full sweep (the property [oqsc merge] relies on). *)

val of_rows : ?classical_band:float * float -> row list -> audit
(** Fits and judges an already-measured row set — the merge tool's path
    to recomputing [fit]/[verdict] over recombined shard rows.  Needs
    at least two classical and two quantum points (the full sweep
    always has them). *)

val audit :
  ?quick:bool -> ?classical_band:float * float -> seed:int -> unit -> audit

val passed : audit -> bool
(** Both halves of the verdict — what the CLI exit status reports. *)

val body : audit -> Report.body
(** Table plus fit metrics, rendered like any experiment report. *)

val shard_body : shard:int * int -> row list -> Report.body
(** The rows table alone (a shard has too few points to fit honestly),
    with a note naming the shard and pointing at [oqsc merge]. *)

val total_wall_ms : audit -> float
(** Sum of the per-row wall-clocks. *)

val to_json : ?timing:bool -> seed:int -> quick:bool -> audit -> Json.t
(** Standalone document, [kind = "oqsc-space-audit"], [version = 1].
    [~timing:true] (default false) adds a [wall_ms] float to every row
    and a total [wall_ms] at top level; like the experiments document's
    [wall_ms], they are telemetry the differ always ignores, so timed
    and untimed documents gate interchangeably. *)

val shard_to_json :
  ?timing:bool -> shard:int * int -> seed:int -> quick:bool -> row list -> Json.t
(** A shard document: the same envelope and rows serialization as
    {!to_json} plus the gated [shard] provenance field, and no
    [fit]/[verdict] (recomputed by [oqsc merge] over the recombined
    rows — see docs/SCHEMA.md). *)
