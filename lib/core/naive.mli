(** The trivial classical recognizer: store all of [x] ([2^{2k}] bits),
    then test every [y] bit as it streams past.  It is the block machine
    of {!Classical_block} with a single block of [2^{2k}] bits, which
    repetition 0 owns.

    Exact (up to A2's one-sided fingerprint error) but uses [Θ(n^{2/3})]
    space — the "if the device can store the strings the problem is
    trivial" strawman from the paper's introduction, included as the top
    line of the space-separation experiment E8. *)

type run = Classical_block.run = {
  accept : bool;
  space_bits : int;
  storage_bits : int;  (** the x store alone: exactly [2^{2k}] *)
  k : int option;
  a1_ok : bool;
  a2_ok : bool;
  collision_found : bool;
}

val run : ?rng:Mathx.Rng.t -> string -> run
val run_stream : ?rng:Mathx.Rng.t -> Machine.Stream.t -> run
