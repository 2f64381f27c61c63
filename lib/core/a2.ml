open Machine
open Mathx

type t = {
  ws : Workspace.t;
  p : int;
  point_value : int;  (* the value of [point], fixed at creation like [p] *)
  recip : int;  (* [Fingerprint.reciprocal p point_value], likewise *)
  point : Workspace.reg;
  acc : Workspace.reg;  (* running fingerprint of the current block *)
  pow : Workspace.reg;  (* t^idx for the next bit *)
  this_fx : Workspace.reg;  (* F_x of the current repetition *)
  prev_fx : Workspace.reg;  (* F_x of the previous repetition *)
  prev_fy : Workspace.reg;
  ok : Workspace.reg;
  started : Workspace.reg;  (* repetition 0 has no predecessor *)
}

let create ws rng ~k =
  if k < 1 || k > A1.max_k then invalid_arg "A2.create: k out of range";
  let p = Primes.fingerprint_prime k in
  let bits = (4 * k) + 1 in
  let reg name = Workspace.alloc ws ~name ~bits in
  let point_value = Rng.int rng p in
  let t =
    {
      ws;
      p;
      point_value;
      recip = Fingerprint.reciprocal ~p ~point:point_value;
      point = reg "a2.point";
      acc = reg "a2.acc";
      pow = reg "a2.pow";
      this_fx = reg "a2.this_fx";
      prev_fx = reg "a2.prev_fx";
      prev_fy = reg "a2.prev_fy";
      ok = Workspace.alloc_flag ws ~name:"a2.ok";
      started = Workspace.alloc_flag ws ~name:"a2.started";
    }
  in
  Workspace.set ws t.point point_value;
  Workspace.set ws t.pow 1;
  Workspace.set_flag ws t.ok true;
  t

let reset_block t =
  Workspace.set t.ws t.acc 0;
  Workspace.set t.ws t.pow 1

let check t passed = if not passed then Workspace.set_flag t.ws t.ok false

let observe t (role : A1.role) =
  let ws = t.ws in
  match role with
  | A1.Prefix_one | A1.Prefix_sep -> ()
  | A1.Bad -> check t false
  | A1.Block_bits { bits; len; _ } ->
      let pow, acc =
        Fingerprint.fold_word ~p:t.p ~point:t.point_value ~recip:t.recip
          ~pow:(Workspace.get ws t.pow) ~acc:(Workspace.get ws t.acc) ~bits ~len
      in
      Workspace.set ws t.acc acc;
      Workspace.set ws t.pow pow
  | A1.Block_sep { seg; _ } -> begin
      let f = Workspace.get ws t.acc in
      (match seg with
      | A1.X ->
          Workspace.set ws t.this_fx f;
          if Workspace.get_flag ws t.started then
            check t (f = Workspace.get ws t.prev_fx)
      | A1.Y ->
          if Workspace.get_flag ws t.started then
            check t (f = Workspace.get ws t.prev_fy);
          Workspace.set ws t.prev_fy f
      | A1.Z ->
          let fx = Workspace.get ws t.this_fx in
          check t (f = fx);
          Workspace.set ws t.prev_fx fx;
          Workspace.set_flag ws t.started true);
      reset_block t
    end

let verdict t = Workspace.get_flag t.ws t.ok

let prime t = t.p
let point t = Workspace.get t.ws t.point
