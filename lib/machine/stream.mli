(** One-way input streams.

    The online model's defining restriction: symbols arrive one at a time
    and can never be revisited.  A [Stream.t] yields symbols of the
    ternary alphabet; algorithms must not (and, through this interface,
    cannot) seek backwards. *)

type t

val of_string : string -> t
(** Stream over a string of '0'/'1'/'#', read in place: {!iter} and
    {!fold} allocate nothing per symbol.  A character outside the
    alphabet raises [Invalid_argument] (from {!Symbol.of_char}) when it
    is reached, leaving {!pos} at its index. *)

val of_fn : (int -> Symbol.t option) -> t
(** [of_fn f] yields [f 0, f 1, ...] until the first [None] — supports
    inputs generated on the fly, longer than memory. *)

val next : t -> Symbol.t option
(** The next symbol, or [None] at end of input. *)

val pos : t -> int
(** Number of symbols consumed so far. *)

val iter : (Symbol.t -> unit) -> t -> unit
(** Drains the stream. *)

val fold : ('a -> Symbol.t -> 'a) -> 'a -> t -> 'a
