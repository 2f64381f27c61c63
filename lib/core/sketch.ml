open Machine
open Mathx

type strategy = Bucket_filter | Subsample

type run = {
  claims_intersecting : bool;
  space_bits : int;
  strategy : strategy;
  budget : int;
}

type st = {
  m : int;
  bitmap : Bitstore.t;
  offset : Workspace.reg;  (* subsample window start / bucket hash offset *)
  stride : Workspace.reg;  (* bucket hash multiplier *)
  found : Workspace.reg;
}

let run ?rng ~strategy ~budget input =
  if budget < 1 then invalid_arg "Sketch.run: budget must be >= 1";
  let rng = match rng with Some r -> r | None -> Rng.create 0x5CE7 in
  let ws = Workspace.create () in
  let bucket s idx =
    (* Affine hash into [0, budget). *)
    let a = Workspace.get ws s.stride and b = Workspace.get ws s.offset in
    (((a * idx) + b) mod s.m) mod budget
  in
  let fresh_window s =
    Workspace.set ws s.offset (Rng.int rng s.m);
    Bitstore.clear s.bitmap
  in
  let start k =
    let m = 1 lsl (2 * k) in
    let s =
      {
        m;
        bitmap = Bitstore.alloc ws ~name:"sketch.bitmap" ~bits:budget;
        offset = Workspace.alloc ws ~name:"sketch.offset" ~bits:(max 1 (2 * k));
        stride = Workspace.alloc ws ~name:"sketch.stride" ~bits:(max 1 (2 * k));
        found = Workspace.alloc_flag ws ~name:"sketch.found";
      }
    in
    (* Random odd multiplier for the bucket hash; random window
       start for the subsample. *)
    Workspace.set ws s.stride ((Rng.int rng m) lor 1);
    Workspace.set ws s.offset (Rng.int rng m);
    s
  in
  let observe s = function
    | A1.Block_bits { rep; seg; idx; bits; _ } -> (
        let mark pos =
          match seg with
          | A1.X -> Bitstore.set s.bitmap pos true
          | A1.Y ->
              if Bitstore.get s.bitmap pos then Workspace.set_flag ws s.found true
          | A1.Z -> ()
        in
        match strategy with
        | Bucket_filter ->
            if rep = 0 then A1.iter_set_bits (fun idx -> mark (bucket s idx)) ~idx bits
        | Subsample ->
            A1.iter_set_bits
              (fun idx ->
                let pos = (idx - Workspace.get ws s.offset + s.m) mod s.m in
                if pos < budget then mark pos)
              ~idx bits)
    | A1.Block_sep { seg = A1.Z; _ } ->
        (* Repetition boundary: the subsample redraws its window. *)
        if strategy = Subsample then fresh_window s
    | _ -> ()
  in
  let _, st = A1.drive ws start observe (Stream.of_string input) in
  let claims =
    match st with Some s -> Workspace.get_flag ws s.found | None -> false
  in
  {
    claims_intersecting = claims;
    space_bits = Workspace.peak_classical_bits ws;
    strategy;
    budget;
  }
