(** Complex scalars for gate matrices and verification.

    A tiny value type ([re]/[im] float record) rather than [Stdlib.Complex]
    so that gate tables read naturally and no conversion layer is needed
    around the unboxed state-vector representation. *)

type t = { re : float; im : float }

val zero : t
val one : t
val i : t

val make : float -> float -> t
val re : float -> t
(** [re x] is the real scalar [x + 0i]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val conj : t -> t
val scale : float -> t -> t

val norm2 : t -> float
(** Squared modulus. *)

val abs : t -> float

val polar : float -> float -> t
(** [polar r theta] is [r * exp(i*theta)]. *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Componentwise comparison with tolerance (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
