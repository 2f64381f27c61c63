type run = Classical_block.run = {
  accept : bool;
  space_bits : int;
  storage_bits : int;
  k : int option;
  a1_ok : bool;
  a2_ok : bool;
  collision_found : bool;
}

let run_stream =
  Classical_block.run_blocks ~name:"naive" ~log_block:(fun k -> 2 * k) ~seed:0xA11E

let run ?rng input = run_stream ?rng (Machine.Stream.of_string input)
