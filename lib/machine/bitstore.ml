type t = { ws : Workspace.t; words : Workspace.reg array; length : int }

let alloc ws ~name ~bits =
  if bits < 1 then invalid_arg "Bitstore.alloc: need at least one bit";
  let nwords = (bits + 61) / 62 in
  let words =
    Array.init nwords (fun i ->
        let width = if i = nwords - 1 then bits - (62 * (nwords - 1)) else 62 in
        Workspace.alloc ws ~name:(Printf.sprintf "%s.%d" name i) ~bits:width)
  in
  { ws; words; length = bits }

let length t = t.length

let check t i ~len =
  if len < 1 || len > 62 || i < 0 || i > t.length - len then
    invalid_arg "Bitstore: index out of bounds"

let mask n = (1 lsl n) - 1

(* A run of at most 62 bits starting at [i] spans at most two
   registers: [n1] bits from register [i / 62] upward of offset
   [i mod 62], the rest from the bottom of the next one. *)
let read t i ~len =
  check t i ~len;
  let r = i / 62 and off = i mod 62 in
  let n1 = Int.min len (62 - off) in
  let low = (Workspace.get t.ws t.words.(r) lsr off) land mask n1 in
  if n1 = len then low
  else low lor ((Workspace.get t.ws t.words.(r + 1) land mask (len - n1)) lsl n1)

(* Register [r]'s bits under mask [m] become those of [v]. *)
let put t r m v =
  let current = Workspace.get t.ws t.words.(r) in
  Workspace.set t.ws t.words.(r) ((current land lnot m) lor (v land m))

let write t i ~len v =
  check t i ~len;
  let r = i / 62 and off = i mod 62 in
  let n1 = Int.min len (62 - off) in
  put t r (mask n1 lsl off) (v lsl off);
  if n1 < len then put t (r + 1) (mask (len - n1)) (v lsr n1)

let get t i = read t i ~len:1 = 1
let set t i b = write t i ~len:1 (Bool.to_int b)

let clear t = Array.iter (fun w -> Workspace.set t.ws w 0) t.words

let bits t = t.length
