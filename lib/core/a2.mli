(** Procedure A2 (§3.2): the fingerprint consistency checker.

    On inputs that satisfy condition (i), A2 verifies with one-sided error
    that (ii) [x = z] inside every repetition and (iii) all repetitions
    carry the same [x] and [y].  It draws one random evaluation point [t]
    modulo the prime [2^{4k} < p < 2^{4k+1}] and compares polynomial
    fingerprints of the blocks:

    - consistent input: all tests pass with probability 1;
    - inconsistent input: some test fails except with probability at most
      [2^{2k} / p < 2^{-2k}] (two distinct degree-< 2^{2k} polynomials
      agree on at most [2^{2k} - 1] of the p points).

    Work memory: seven registers of [4k + 1] bits — O(k). *)

type t

val create : Machine.Workspace.t -> Mathx.Rng.t -> k:int -> t
(** Created once A1 has announced [k] (i.e. on the [Prefix_sep] role).
    Draws the evaluation point from the given generator. *)

val observe : t -> A1.role -> unit
(** Consumes the role A1 assigned to the current input symbol, or to a
    word of block bits: the registers are read once, the word is folded
    in locals ({!step_word}), and they are written back once.  The fold
    keeps no state of its own: the seven registers are all of A2's work
    memory. *)

val step_word :
  prime:int -> point:int -> pow:int -> acc:int -> bits:int -> len:int -> int * int
(** [step_word ~prime ~point ~pow ~acc ~bits ~len] is [observe]'s
    update for a word of [len] bits, as [(pow, acc)]: for each bit [i]
    in turn, [acc] gains [pow] if the bit is set, then [pow] is
    multiplied by [point], both modulo [prime] (with [pow, acc, point]
    below it).  Below 2^31 the product uses a reciprocal of [point]
    (Shoup's method), reduced without a branch, and the word runs as
    four independent lanes: lane [j] starts at [pow * point^j], steps
    by [point^4] and gathers bits [i = j mod 4]; the lane sums are
    added at the end of the word, and the last [len mod 4] bits take
    the one-bit chain.  [point^2 .. point^4] and the reciprocal of
    [point^4] are recomputed per call, so nothing outlives it.  At or
    above 2^31 each bit is one [Mathx.Modarith.mulmod].  Exposed so
    tests can check it against chained [mulmod]/[addmod]. *)

val verdict : t -> bool
(** A2's output bit: true iff every comparison passed. *)

val prime : t -> int
(** The modulus in use (for reports). *)

val point : t -> int
(** The random evaluation point (for reproducibility reports). *)
