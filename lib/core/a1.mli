(** Procedure A1 (§3.2): the streaming syntax checker.

    Verifies condition (i) — the input has the exact shape
    [1^k#(x#y#z#)^{2^k}] with blocks of length [2^{2k}] — using O(k) bits
    of work memory: a handful of counters, all allocated through the
    space-metered {!Machine.Workspace}.

    Besides its verdict, A1 classifies every input symbol with a {!role}.
    The roles are a function of A1's own counters (information the online
    machine has anyway), and they are what procedures A2 and A3 key their
    streaming updates on.  Block bits travel as words: one role carries
    a run of consecutive bits of one block, so an observer sees every
    bit once, in input order, up to 62 at a time. *)

type segment = X | Y | Z

type role =
  | Prefix_one  (** a '1' of the leading run *)
  | Prefix_sep  (** the '#' ending the prefix; [k] is now known *)
  | Block_bits of { rep : int; seg : segment; idx : int; bits : int; len : int }
      (** the [len] bits at positions [idx .. idx + len - 1] of block
          [(rep, seg)]; bit [i] of [bits] (least significant first) is
          the symbol at [idx + i], set for a '1'.  [1 <= len <= 62]. *)
  | Block_sep of { rep : int; seg : segment }  (** '#' closing that block *)
  | Bad  (** symbol violates condition (i); the checker latches failure *)

type t

val create : Machine.Workspace.t -> t

val max_k : int
(** Largest accepted [k] (15): beyond it the fingerprint prime would
    overflow native integers.  Inputs claiming a longer 1-run are
    rejected as malformed. *)

val feed : t -> Machine.Symbol.t -> role
(** One symbol's role: the per-symbol reference {!drive} is checked
    against.  A block bit comes back as [Block_bits] with [len = 1]. *)

val k : t -> int option
(** Known after the prefix separator has been read. *)

val finished_ok : t -> bool
(** True iff the symbols fed so far form a {e complete} well-shaped input:
    condition (i) holds and nothing is missing.  This is A1's output bit. *)

val failed : t -> bool
(** True as soon as a structural violation has been seen. *)

val drive :
  Machine.Workspace.t ->
  ?max_k:int ->
  (int -> 'p) ->
  ('p -> role -> unit) ->
  Machine.Stream.t ->
  t * 'p option
(** The one online pass every A1-keyed machine makes.
    [drive ws start observe stream] creates A1 on [ws] and streams the
    input through it.  At the prefix separator, if A1 has read
    [k <= max_k] (default {!max_k}), it calls [start k] to set up the
    machine's procedures; from the separator's own role onward, every
    role goes to [observe].  Returns A1 and the procedures, if they were
    started.

    Inside a block it reads the input a word at a time
    ({!Machine.Stream.next_bits}): each [Block_bits] role runs at most
    up to the block end or up to the next index that is a multiple of
    62, whichever comes first, so a word never crosses either.  A word
    also ends where the stream's current string does, and the next
    word picks up from the next string; observers see shorter words,
    never different bits.  All other symbols go through {!feed} one at
    a time.  The roles, expanded bit
    by bit, A1's final state, and an input error (raised with
    {!Machine.Stream.pos} at the bad character, after every earlier
    role was observed) are those of feeding the stream symbol by
    symbol. *)

val iter_set_bits : (int -> unit) -> idx:int -> int -> unit
(** [iter_set_bits f ~idx bits] calls [f (idx + i)] for every set bit
    [i] of [bits], in increasing order: the ['1']s of a [Block_bits]
    word. *)
