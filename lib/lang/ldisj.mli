(** The language L_DISJ of Definition 3.3:

    {v L_DISJ = { 1^k # (x#y#x#)^{2^k}  |  k >= 1,
                  x, y in {0,1}^{2^{2k}},  DISJ(x, y) = 1 } v}

    over the alphabet {0, 1, #}, where DISJ(x, y) = 1 iff no index [i] has
    [x_i = y_i = 1].  The block [x#y#x#] is repeated [2^k] times so that a
    streaming machine gets one Grover round per repetition. *)

type shape = {
  k : int;
  x : Mathx.Bitvec.t;
  y : Mathx.Bitvec.t;
}
(** The parameters of a syntactically valid input.  [x] and [y] have
    length [2^{2k}]. *)

val string_length : k:int -> int
(** Exact input length for parameter [k]:
    [k + 1 + 2^k * (3 * 2^{2k} + 3)]. *)

val encode : shape -> string
(** Serialises [1^k#(x#y#x#)^{2^k}].  The layout is defined once, as a
    list of strings: [1^k#], then [x#], [y#], [x#] for each repetition,
    with [x] and [y] each rendered once; [encode] concatenates it and
    {!stream} serves it.
    @raise Invalid_argument if [k < 1] or the vector lengths are not
    [2^{2k}]. *)

val stream : shape -> Machine.Stream.t
(** One-way stream of the encoded input: the strings of {!encode}'s
    layout, handed out one at a time through {!Machine.Stream.of_chunks}
    and read in place.  It holds [x#] and [y#] (O(2^{2k}) bytes), never
    the O(2^{3k}) input.  Agrees with {!encode} position by position.
    @raise Invalid_argument as {!encode}. *)

val offset : k:int -> rep:int -> copy:int -> idx:int -> int
(** [offset ~k ~rep ~copy ~idx] is the index in {!encode}'s output of
    bit [idx] of copy [copy] (0 = [x], 1 = [y], 2 = the second [x]) in
    repetition [rep] (0-based).  [idx = 2^{2k}] names the '#' that ends
    the copy and [idx = -1] the '#' before it: for repetition 0, copy 0,
    the separator after [1^k].
    @raise Invalid_argument outside [0 <= rep < 2^k], [0 <= copy <= 2],
    [-1 <= idx <= 2^{2k}]. *)

val well_shaped : string -> bool
(** Condition (i) of the Theorem 3.4 proof alone: the input has the exact
    layout [1^k#(b#b#b#)^{2^k}] with blocks of length [2^{2k}] — no
    consistency or disjointness requirements.  It is {!parse}'s first
    pass alone, in place, with no copy.  This is the predicate the
    streaming checker A1 computes; the test suite cross-validates the two
    implementations on random mutations. *)

val parse : string -> (shape, string) result
(** Full offline parse: checks conditions (i), (ii) and (iii) of the
    Theorem 3.4 proof — the overall shape, [x = z] inside every
    repetition, and agreement of all repetitions.  Returns a reason on
    failure: the first defect of condition (i) in input order, else the
    first copy (in input order) that differs from its counterpart in
    repetition 0.  The input is read in place at {!offset}'s positions;
    beyond it, [parse] holds only the returned [x] and [y].  (This is
    the reference implementation; the streaming checkers A1/A2 exist
    to avoid holding the O(n) input.) *)

val member : string -> bool
(** Exact membership in L_DISJ: [parse] succeeds {e and} DISJ(x, y) = 1. *)

val disj : Mathx.Bitvec.t -> Mathx.Bitvec.t -> bool
(** The DISJ predicate itself. *)
