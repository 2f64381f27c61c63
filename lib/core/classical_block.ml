open Machine
open Mathx

type run = {
  accept : bool;
  space_bits : int;
  storage_bits : int;
  k : int option;
  a1_ok : bool;
  a2_ok : bool;
  collision_found : bool;
}

type st = {
  a2 : A2.t;
  block : Bitstore.t;  (* the bits of x's current block *)
  collision : Workspace.reg;
  log_block : int;
}

let run_blocks ~name ~log_block ~seed ?rng stream =
  let rng = match rng with Some r -> r | None -> Rng.create seed in
  let ws = Workspace.create () in
  let start k =
    let a2 = A2.create ws rng ~k in
    let log_block = log_block k in
    let block = Bitstore.alloc ws ~name:(name ^ ".x") ~bits:(1 lsl log_block) in
    let collision = Workspace.alloc_flag ws ~name:(name ^ ".collision") in
    { a2; block; collision; log_block }
  in
  let observe s role =
    A2.observe s.a2 role;
    match role with
    | A1.Block_bits { rep; seg; idx; bits; len } -> begin
        (* Repetition [rep] owns block [rep]: indices
           [rep * 2^log_block, (rep+1) * 2^log_block).  The part of the
           word inside it is the run [a, b). *)
        let lo = rep lsl s.log_block and hi = (rep + 1) lsl s.log_block in
        let a = Int.max idx lo and b = Int.min (idx + len) hi in
        if a < b then begin
          let w = bits lsr (a - idx) in
          match seg with
          | A1.X -> Bitstore.write s.block (a - lo) ~len:(b - a) w
          | A1.Y ->
              let x = Bitstore.read s.block (a - lo) ~len:(b - a) in
              if w land x <> 0 then Workspace.set_flag ws s.collision true
          | A1.Z -> ()
        end
      end
    | A1.Prefix_one | A1.Prefix_sep | A1.Block_sep _ | A1.Bad -> ()
  in
  let a1, st = A1.drive ws start observe stream in
  let a1_ok = A1.finished_ok a1 in
  let a2_ok, collision_found, storage_bits =
    match st with
    | Some s ->
        (A2.verdict s.a2, Workspace.get_flag ws s.collision, Bitstore.bits s.block)
    | None -> (false, false, 0)
  in
  {
    accept = a1_ok && a2_ok && not collision_found;
    space_bits = Workspace.peak_classical_bits ws;
    storage_bits;
    k = A1.k a1;
    a1_ok;
    a2_ok;
    collision_found;
  }

let run_stream = run_blocks ~name:"block" ~log_block:Fun.id ~seed:0xB10C

let run ?rng input = run_stream ?rng (Stream.of_string input)
