(** Exact communication-complexity computations for DISJ_n on small n
    (experiment E2).

    On small instances the lower-bound quantities of Theorem 3.2 can be
    computed outright rather than bounded:

    - the {b one-way} deterministic complexity is exactly
      [ceil(log2 (#distinct rows))] of the communication matrix, and for
      DISJ every one of the 2^n rows is distinct, giving n;
    - the set [{(x, not x)}] is a fooling set of size 2^n, forcing
      deterministic complexity >= n;
    - the matrix has full rank 2^n over both GF(2) and the reals (it is
      the n-fold tensor power of [[1;1];[1;0]]), giving the log-rank
      bound n.

    Inputs are bit masks: index i of the string is bit i of the mask. *)

val disj_mask : int -> int -> bool
(** [disj_mask x y] is DISJ of the two masked strings: [x land y = 0]. *)

val eq_mask : int -> int -> bool
(** String equality as a mask predicate — the contrast function: its
    deterministic one-way complexity is also n, but unlike DISJ it
    collapses to O(log n) under randomness (the fingerprint protocol),
    while Theorem 3.2 says DISJ stays Ω(n). *)

val one_way_cc_of : n:int -> (int -> int -> bool) -> int
(** [ceil(log2 d)], where [d] is the number of distinct rows of the
    2^n x 2^n matrix of the two-party predicate [f] over bit masks
    ([n <= 13]) — the exact deterministic one-way communication
    complexity of [f]. *)

val distinct_rows : n:int -> int
(** Number of distinct rows of the 2^n x 2^n DISJ matrix ([n <= 13]). *)

val one_way_cc : n:int -> int
(** [ceil(log2 (distinct_rows n))]. *)

val fooling_set_size : n:int -> int
(** Size of the largest verified prefix of the canonical fooling set
    [{(x, lnot x)}] — equals 2^n when the fooling property holds, which
    the function checks exhaustively ([n <= 10]).
    @raise Failure if the property is violated (it never is; the check is
    the point). *)

val rank_gf2 : n:int -> int
(** Rank of the DISJ matrix over GF(2) ([n <= 13]). *)

val rank_real : n:int -> int
(** Rank over the reals by Gaussian elimination with partial pivoting
    ([n <= 9]). *)
