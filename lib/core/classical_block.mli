(** The classical [O(n^{1/3})]-space recognizer of Proposition 3.7.

    Decomposes [x] and [y] into 2^k blocks of 2^k bits; repetition [i]
    (0-based) is used to test DISJ on block [i]: the block of [x] is
    stored verbatim (2^k bits) while it streams past, then compared
    against the corresponding block of [y].  After the 2^k repetitions,
    every block has been tested.  Shape and consistency are checked by
    the same A1 and A2 as the quantum algorithm.

    Space: [2^k] bits of block storage + O(k) counters = [Θ(n^{1/3})], and
    the answer is exact (error only from A2's fingerprints, one-sided,
    <= [2^{-2k}]). *)

type run = {
  accept : bool;
  space_bits : int;  (** peak metered classical bits *)
  storage_bits : int;  (** the block store alone: 2^k bits for {!run} *)
  k : int option;
  a1_ok : bool;
  a2_ok : bool;
  collision_found : bool;
}

val run : ?rng:Mathx.Rng.t -> string -> run
val run_stream : ?rng:Mathx.Rng.t -> Machine.Stream.t -> run

val run_blocks :
  name:string ->
  log_block:(int -> int) ->
  seed:int ->
  ?rng:Mathx.Rng.t ->
  Machine.Stream.t ->
  run
(** The block machine with blocks of [2^{log_block k}] bits: repetition
    [i] stores and tests block [i] of [x], so only the first
    [2^{2k - log_block k}] repetitions own a block.  Its registers are
    named [name.x] and [name.collision]; [seed] seeds the default rng.
    {!run_stream} is [log_block = Fun.id]; {!Naive} is the single block
    [log_block k = 2k]. *)
