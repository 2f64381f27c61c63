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

val max_bits : int
(** The most symbols {!next_bits} packs into one int: 62. *)

val next_bits : t -> int -> int * int
(** [next_bits t max] reads the run of '0'/'1' symbols that starts at
    {!pos}, up to [min max max_bits] of them, and returns
    [(bits, len)]: the [len] symbols read, packed least significant
    bit first (symbol [pos + i] is bit [i], set for a '1').  It stops
    {e before} a '#', a character outside the alphabet or the end of
    input, so [len = 0] says the next symbol, if any, is not a bit;
    {!next} then returns it or raises its error, with {!pos} at its
    index.  On a string it reads in place, eight bytes per load while
    they are all bits and lie within [max] (one mask test, one multiply
    to pack them), then a byte at a time; it allocates only the pair.
    A generator stream ({!of_fn}) returns at most one bit per call: it
    looks one symbol ahead and keeps a non-bit for {!next}, so its
    generator is still called once per position, in order. *)

val pos : t -> int
(** Number of symbols consumed so far. *)

val iter : (Symbol.t -> unit) -> t -> unit
(** Drains the stream. *)

val fold : ('a -> Symbol.t -> 'a) -> 'a -> t -> 'a
