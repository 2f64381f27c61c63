(** Order statistics and the two-sided verdict of the end-to-end
    benchmark.

    Quartiles follow Python's [statistics.quantiles(values, n=4)]
    (the default "exclusive" method), so a spread computed here is the
    spread any external check computes from the same samples. *)

val median : float list -> float
(** The middle value, or the mean of the two middle values for an even
    count.  @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)].  [q1]/[q3] use the exclusive method of
    [statistics.quantiles] (linear interpolation at positions
    [i (n + 1) / 4], extrapolating for [n = 2]); a single sample is its
    own quartiles.  @raise Invalid_argument on an empty list. *)

val nearest_rank : float -> float list -> float
(** [nearest_rank p xs] is the [p]-th percentile by nearest rank: the
    sorted sample at rank [ceil (p / 100 * n)] (1-based, clamped to
    [1..n]).  @raise Invalid_argument on an empty list. *)

type direction = Lower | Higher  (** which way is better *)

val direction_of_string : string -> direction option
(** ["lower"] / ["higher"], as BENCHMARK.json spells them. *)

type verdict = Improved | Unchanged | Worse | Unresolved

val verdict_name : verdict -> string

type comparison = {
  verdict : verdict;
  wins : int;  (** pairs [(a_i, b_i)] in which [b_i] is strictly better *)
  pairs : int;  (** [min (length a) (length b)] *)
}

val compare_samples :
  direction ->
  bound:float ->
  ?floor:float ->
  float list ->
  float list ->
  comparison
(** [compare_samples dir ~bound ?floor a b] judges the change [b]
    against the parent [a] (one sample per run, paired in order).  A
    side's limit is [bound] times its median, but never less than
    [floor] (default 0), an absolute amount in the metric's unit:
    - [Improved]: [b] wins at least nine tenths of the pairs and its
      median is better than [a]'s by more than both [a]'s quartile
      spread and [floor];
    - [Worse]: [b]'s median is worse than [a]'s by more than [a]'s
      limit;
    - [Unresolved]: otherwise, when either side's quartile spread
      exceeds its limit, unless every run of [b] reads better than every
      run of [a];
    - [Unchanged]: otherwise.
    @raise Invalid_argument if either side is empty. *)
