(** Packed bit vectors.

    Fixed-length vectors of bits backed by an [int array] (62 payload bits
    per word).  These represent the strings [x], [y] of the DISJ problem and
    the block decompositions used by the classical baselines. *)

type t

val create : int -> t
(** [create n] is the all-zero vector of length [n >= 0]. *)

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val copy : t -> t

val equal : t -> t -> bool
(** Structural equality of lengths and contents. *)

val of_string : string -> t
(** [of_string s] reads a ['0']/['1'] string, index 0 first.
    @raise Invalid_argument on any other character. *)

val to_string : t -> string
(** Inverse of {!of_string}. *)

val iter_words : (int -> int -> unit) -> t -> unit
(** [iter_words f v] applies [f bits len] to each storage word in
    order: [len] is the number of payload bits it holds (62, or fewer
    in the last word), bit [i] of [bits] is [v]'s bit
    [62 * word + i], and [bits] is zero above [len].  No call is made
    for the empty vector. *)

val random : Rng.t -> int -> t
(** [random rng n] draws each bit independently and uniformly. *)

val random_with_weight : Rng.t -> int -> int -> t
(** [random_with_weight rng n w] is a uniformly random vector of length [n]
    with exactly [w] ones.  Requires [0 <= w <= n]. *)

val popcount : t -> int
(** Number of set bits. *)

val intersection_count : t -> t -> int
(** [intersection_count x y] is [|{i | x_i = y_i = 1}|].
    @raise Invalid_argument on length mismatch. *)

val disjoint : t -> t -> bool
(** [disjoint x y] is the paper's [DISJ(x, y)]: true iff no index carries a
    one in both vectors. *)

val iteri : (int -> bool -> unit) -> t -> unit
(** [iteri f v] applies [f i v_i] for i = 0 .. length-1 in order. *)

val sub : t -> pos:int -> len:int -> t
(** [sub v ~pos ~len] extracts a contiguous block. *)

val ones : t -> int list
(** Indices of set bits, ascending. *)
