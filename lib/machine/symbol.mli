(** The ternary alphabet [Sigma = {0, 1, #}] of the paper, plus the work-tape
    blank. *)

type t = Zero | One | Hash

type work = Sym of t | Blank

val of_char : char -> t
(** @raise Invalid_argument on characters outside "01#". *)

val to_char : t -> char

val of_string : string -> t list
val to_string : t list -> string

val to_bit : t -> bool option
(** [Some b] for [Zero]/[One], [None] for [Hash]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val work_to_char : work -> char
val work_equal : work -> work -> bool
