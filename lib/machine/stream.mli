(** One-way input streams.

    The online model's defining restriction: symbols arrive one at a time
    and can never be revisited.  A [Stream.t] yields symbols of the
    ternary alphabet; algorithms must not (and, through this interface,
    cannot) seek backwards.

    A stream has one source: a run of strings of '0'/'1'/'#', read in
    place one after another.  A stored input is a run of one string
    ({!of_string}); a generated one hands out further strings on demand
    ({!of_chunks}), so it need never be held whole.  Every reader below
    takes the same path over both.  A character outside the alphabet
    raises [Invalid_argument] (from {!Symbol.of_char}) when it is
    reached, leaving {!pos} at its index in the whole input. *)

type t

val of_string : string -> t
(** The stream of one string. *)

val of_chunks : (unit -> string option) -> t
(** [of_chunks more] reads the strings [more ()] returns, in order,
    until the first [None]; after it, [more] is not called again.
    Empty strings are skipped.  The symbols are those of the strings'
    concatenation. *)

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
    input, so [len = 0] with [max >= 1] says the next symbol, if any,
    is not a bit; {!next} then returns it or raises its error, with
    {!pos} at its index.  A word also stops at the end of the string
    it started in, so a caller that wants a whole run loops until
    [len = 0].  It reads in place, eight bytes per load while they are
    all bits and lie within [max] (one mask test, one multiply to pack
    them), then a byte at a time; it allocates only the pair. *)

val pos : t -> int
(** Number of symbols consumed so far. *)

val iter : (Symbol.t -> unit) -> t -> unit
(** Drains the stream, with no option or closure per symbol. *)
