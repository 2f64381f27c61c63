(** Register programs compiled to online Turing machines.

    Hand-writing OPTM transition tables does not scale past a few states,
    which limits how much of the paper's machinery can be exercised on
    {e real} machines.  This module closes the gap with a small
    imperative language — bounded binary registers, one-way input
    reads, conditional jumps, output emission — and a compiler that
    produces a genuine OPTM: registers live on the work tape as
    fixed-width binary fields, and every instruction expands into
    head-walking micro-states (seek, ripple-carry, bitwise compare).

    The compiled machine is a first-class OPTM: {!run} steps it on its
    transition table with the standard simulator's semantics, its
    work-tape footprint is the real Θ(registers · width) cell count, and
    as an {!Optm.t} ({!machine}) the Fact 2.2 / Theorem 3.6 census
    machinery applies to it unchanged.  A direct interpreter for the
    same language provides the reference semantics the compiler is
    tested against.

    Model notes: registers hold values modulo 2^width ({!Inc} wraps);
    reads consume one input symbol and branch on it; programs halt by
    {!Accept} or {!Reject}. *)

type instr =
  | Read of { on_zero : int; on_one : int; on_hash : int; on_eof : int }
      (** consume one input symbol and jump accordingly; at end of input
          jump to [on_eof] without consuming *)
  | Inc of { reg : int; next : int }  (** reg := reg + 1 mod 2^width *)
  | Reset of { reg : int; next : int }  (** reg := 0 *)
  | Set of { reg : int; value : int; next : int }  (** load a constant *)
  | Add of { dst : int; src : int; next : int }  (** dst += src mod 2^width *)
  | Sub of { dst : int; src : int; next : int }  (** dst -= src mod 2^width *)
  | Jump_if_eq of { reg_a : int; reg_b : int; if_eq : int; if_ne : int }
  | Jump_if_lt of { reg_a : int; reg_b : int; if_lt : int; if_ge : int }
      (** unsigned comparison *)
  | Jump_if_max of { reg : int; if_max : int; if_not : int }
      (** test reg = 2^width - 1 *)
  | Emit of { symbol : char; next : int }  (** write to the output tape *)
  | Goto of int
  | Accept
  | Reject

type t = {
  name : string;
  width : int;  (** bits per register, >= 1 *)
  registers : int;  (** number of registers, >= 1 *)
  code : instr array;
}

val validate : t -> unit
(** Checks jump targets and register indices.  @raise Failure. *)

(** {1 Reference semantics} *)

type run_result = {
  verdict : bool option;  (** [None] = ran past the step limit *)
  output : string;
  final_registers : int array;
}

val interpret : ?max_steps:int -> t -> string -> run_result
(** Direct execution (registers as integers) — the specification the
    compiled machine must match. *)

(** {1 Compilation} *)

type compiled
(** A compiled machine: its transition table, state count and name. *)

val compile : t -> compiled
(** The real Turing machine.  Control states are the micro-states of the
    seek/carry/compare walks; the work tape holds the registers, register
    [r] occupying cells [r*width .. (r+1)*width - 1], least significant
    bit first.

    The micro-states are enumerated eagerly from the start and their
    transitions compiled to a table of packed ints.  The table rests on
    one invariant of the micro-step semantics: each micro-state branches
    on exactly one symbol.  A micro-state about to run a [Read] branches
    on the input cell and writes back the work cell it saw; every other
    micro-state ignores the input cell.  A state therefore has four
    entries, not sixteen.  Every entry that does not halt is checked
    once, here, to step to a state of the table, so neither {!run} nor
    {!machine}'s [delta] checks a step's next state.

    Numbering: states are numbered in depth-first preorder from the
    first instruction's state (id 0), a state's entries visited in key
    order 0..3 and each new successor's states numbered before the next
    entry's; {!compile_reference} numbers them the same way, so the two
    tables agree id for id.

    Limits: the enumeration keys each micro-state on one non-negative
    int: 12 bits of kind, site, bit index, carried state and direction,
    then the head moves left, as many bits as [registers * width - 1]
    needs, then the pc.  A program whose
    [12 + bits (registers * width - 1) + bits (length code - 1)] exceeds
    [Sys.int_size - 1] (62 on 64-bit hosts) is refused before
    enumeration, where [bits v] is the bit length of [v].
    @raise Failure naming the program when it does not fit the key, or
    on an entry stepping outside the table. *)

val states : compiled -> int
(** Number of control states (size measure for reports). *)

val name : compiled -> string
(** ["compiled:"] followed by the program's name. *)

val run : ?max_steps:int -> compiled -> string -> bool option * Optm.stats
(** Runs the machine on its table: {!Optm.run_deterministic} on
    [machine c], without decoding a step or allocating per step.  Same
    verdict, stats, step limit (default 10^7) and [optm.*] {!Obs}
    records.  The input cell is read on every step, as there.
    @raise Invalid_argument from {!Symbol.of_char} at the step that
    finds the input head on a character outside [{0,1,#}]. *)

val run_with_output :
  ?max_steps:int -> compiled -> string -> (bool option * Optm.stats) * string
(** Like {!run}, also returning the output-tape contents. *)

val machine : compiled -> Optm.t
(** The same machine as an {!Optm.t}, for [Optm]'s generic consumers
    (configurations at a cut, breadth-first exploration, the Theorem 3.6
    reduction) and as {!run}'s differential reference: [delta] reads the
    table and decodes the entry into an {!Optm.step}, and raises
    [Invalid_argument] on a state past the table. *)

val compile_reference : t -> Optm.t
(** The slow reference for {!compile}, kept for differential tests: the
    same states, numbered the same way, but enumerated by probing all
    sixteen (input, work) pairs of each micro-state, and with a [delta]
    that re-derives the micro-step and looks up the next state's id on
    every call.  Where the one-symbol invariant holds, its [delta] equals
    that of {!machine} on {!compile}'s table on every state and every
    pair of symbols, and its state count is the same.
    @raise Failure from [delta] on a step to a micro-state the
    enumeration did not reach (impossible if the enumeration is
    complete). *)

(** {1 Worked programs} *)

val parity : t
(** Accepts inputs over [{0,1,#}] with an even number of 1s — one 1-bit
    register; compiled, it matches {!Machines.parity}'s language with a
    binary counter on the tape. *)

val run_length_equal : width:int -> t
(** Accepts [1^a#1^b] iff [a = b] (both below 2^width) — the classic
    log-space counting machine.  Its configuration census at the '#' cut
    is [a + 1]-ish (polynomial, log-cost messages), the designed contrast
    with {!Machines.copy_then_compare}'s 2^m. *)

val beacon : t
(** Emits "0#1#0" (an H gate in the Definition 2.3 wire format) for every
    1 read and accepts at end of input — exercises Emit. *)

val ldisj_shape : width:int -> t
(** Procedure A1 — condition (i) of the Theorem 3.4 proof — as a register
    program: accepts [1^k#(b#b#b#)^{2^k}] with blocks of length
    [2^{2k}], for [1 <= k <= (width-1)/2].  The overflow guard rejects a
    prefix [1^j] with [(width-1)/2 < j < 2^width], but the register
    counting the prefix wraps modulo [2^width] before the guard runs, so
    [j = k + c * 2^width] reads as [k]: at width 7, [1^129#] (and
    [1^257#]) followed by a valid k = 1 body is accepted too, though
    [Lang.Ldisj.well_shaped] calls it malformed.  Compiled, this is the
    paper's syntactic checker as a literal O(log n)-cell Turing machine;
    tests cross-validate it against both {!Lang}'s offline scanner and
    the streaming A1. *)

val fingerprint_eq : p:int -> t:int -> t
(** Accepts [u#v] iff the polynomial fingerprints agree:
    [F_u(t) = F_v(t) mod p], with [F_w(t) = sum_i w_i t^i] — procedure
    A2's streaming primitive (§3.2) as a literal Turing machine, using
    modular arithmetic (Add/Sub/Jump_if_lt) on tape registers.  Compiled,
    it is a few-thousand-state OPTM whose configuration census at the
    separator is O(p^2): logarithmic-cost messages, the collapse the
    randomized equality protocol exploits and Theorem 3.2 forbids for
    DISJ.  Requires [1 <= t < p] and sizes registers so [2p < 2^width]. *)
