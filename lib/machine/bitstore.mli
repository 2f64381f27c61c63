(** A bit array allocated through a {!Workspace} ledger.

    Packs [bits] bits into 62-bit registers, with the final register
    sized exactly so the metered footprint equals [bits] — the baselines'
    storage terms are what the space theorems are about, so they must not
    be inflated by rounding. *)

type t

val alloc : Workspace.t -> name:string -> bits:int -> t
(** @raise Invalid_argument if [bits < 1]. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit

val read : t -> int -> len:int -> int
(** [read t i ~len] packs bits [i .. i + len - 1] into an int, bit [i]
    least significant ([1 <= len <= 62]).
    @raise Invalid_argument if [len] is out of range or the run
    leaves the store. *)

val write : t -> int -> len:int -> int -> unit
(** [write t i ~len v] sets bits [i .. i + len - 1] to the low [len]
    bits of [v], bit [i] from the least significant; higher bits of [v]
    are ignored.  @raise Invalid_argument as {!read}. *)

val clear : t -> unit
val bits : t -> int
(** The metered footprint (= [length]). *)
