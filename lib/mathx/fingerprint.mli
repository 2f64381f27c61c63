(** Polynomial fingerprints, the core of procedure A2 (§3.2).

    For a bit string [w = w_0 ... w_{m-1}] and an evaluation point [t]
    modulo a prime [p], the fingerprint is
    [F_w(t) = (sum_i w_i * t^i) mod p].
    Two distinct strings of length [m] collide on at most [m - 1] of the
    [p] evaluation points (a non-zero degree-<m polynomial has < m roots),
    so with the paper's prime [2^{4k} < p < 2^{4k+1}] and [m = 2^{2k}] the
    collision probability is below [2^{-2k}].

    A streaming fingerprint holds only the running sum and the running
    power of [t] beside [p] and [t]: O(log p) bits, independent of [m].
    {!fold_word} is the one way this module (and A2) advances them; it
    takes bits a word at a time, in {!Bitvec}'s word format. *)

val reciprocal : p:int -> point:int -> int
(** [reciprocal ~p ~point] is Shoup's precomputed quotient
    [floor (point * 2^31 / p)] for [p < 2^31], and [-1] at or above
    2^31, where {!fold_word} multiplies with {!Modarith.mulmod}.
    Requires [0 <= point < p]. *)

val fold_word :
  p:int -> point:int -> recip:int -> pow:int -> acc:int -> bits:int -> len:int -> int * int
(** [fold_word ~p ~point ~recip ~pow ~acc ~bits ~len] appends the [len]
    bits of [bits] (LSB first, [len <= 62]) to a fingerprint whose
    running sum is [acc] and whose next power of [point] is [pow], and
    returns the new [(pow, acc)]: for each bit [i] in turn, [acc] gains
    [pow] if the bit is set, then [pow] is multiplied by [point], both
    modulo the prime [p] (with [pow, acc, point] below it, and
    [recip = reciprocal ~p ~point]).

    Below 2^31 the product uses [recip] (Shoup's method), reduced
    without a branch, and the word runs as four independent lanes: lane
    [j] starts at [pow * point^j], steps by [point^4] and gathers bits
    [i = j mod 4]; the lane sums are added at the end of the word, and
    the last [len mod 4] bits take the one-bit chain.  [point^2 ..
    point^4] and the reciprocal of [point^4] are recomputed per call,
    so nothing outlives it.  At or above 2^31 each bit is one
    {!Modarith.mulmod}. *)

val of_bitvec : p:int -> t:int -> Bitvec.t -> int
(** [of_bitvec ~p ~t v] is [F_v(t)] modulo the prime [p], with [t]
    first reduced into [[0, p)]; it folds [v]'s words through
    {!fold_word}.  @raise Invalid_argument if [p < 2]. *)
