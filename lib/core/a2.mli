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
    in locals by {!Mathx.Fingerprint.fold_word} with the reciprocal of
    the point computed at {!create}, and they are written back once.
    The fold keeps no state of its own: the seven registers are all of
    A2's work memory. *)

val verdict : t -> bool
(** A2's output bit: true iff every comparison passed. *)

val prime : t -> int
(** The modulus in use (for reports). *)

val point : t -> int
(** The random evaluation point (for reproducibility reports). *)
