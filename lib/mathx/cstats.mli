(** Descriptive statistics for experiment reports. *)

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (0 for arrays of length < 2). *)

val min_max : float array -> float * float

val wilson_interval : successes:int -> trials:int -> z:float -> float * float
(** [wilson_interval ~successes ~trials ~z] is the Wilson score confidence
    interval for a binomial proportion ([z = 1.96] for 95%). *)

val loglog_slope : (float * float) list -> float * float
(** [loglog_slope points] fits [log y = slope * log x + intercept] by least
    squares over points with strictly positive coordinates and returns
    [(slope, intercept)].  This is how scaling exponents are estimated in
    EXPERIMENTS.md.  @raise Invalid_argument with fewer than two points. *)

val linear_fit : (float * float) list -> float * float
(** Least-squares fit [y = a*x + b], returned as [(a, b)]. *)

val r_square : (float * float) list -> float * float -> float
(** [r_square points (a, b)] is the coefficient of determination of the
    line [y = a*x + b] over [points] — how the space-audit compares a
    logarithmic model against a power-law model on the same data. *)

val linear_fit_r2 : (float * float) list -> float * float * float
(** {!linear_fit} plus the fit's own [r_square]: [(a, b, r2)]. *)

val loglog_fit_r2 : (float * float) list -> float * float * float
(** {!loglog_slope} plus the fit's [r_square] {e in log-log space}:
    [(slope, intercept, r2)].  Points with a non-positive coordinate are
    dropped, as in {!loglog_slope}. *)
