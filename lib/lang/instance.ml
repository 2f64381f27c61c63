open Mathx

type label = In_language | Not_in_language of reason

and reason =
  | Intersecting of int
  | Malformed of string
  | Inconsistent of string

type t = { input : string; label : label; k : int }

let is_member t = t.label = In_language

let m_of_k k = 1 lsl (2 * k)

(* A uniformly random x, then y drawn bit by bit where x is 0. *)
let disjoint_vectors rng m =
  let x = Bitvec.random rng m in
  let y = Bitvec.create m in
  for i = 0 to m - 1 do
    if not (Bitvec.get x i) then Bitvec.set y i (Rng.bool rng)
  done;
  (x, y)

let disjoint_pair rng ~k =
  let x, y = disjoint_vectors rng (m_of_k k) in
  let input = Ldisj.encode { Ldisj.k; x; y } in
  { input; label = In_language; k }

let intersecting_pair rng ~k ~t =
  let m = m_of_k k in
  if t < 1 || t > m then invalid_arg "Instance.intersecting_pair: bad t";
  let x, y = disjoint_vectors rng m in
  (* Plant exactly t collisions on a random t-subset. *)
  let collide = Bitvec.random_with_weight rng m t in
  for i = 0 to m - 1 do
    if Bitvec.get collide i then begin
      Bitvec.set x i true;
      Bitvec.set y i true
    end
    else if Bitvec.get x i && Bitvec.get y i then Bitvec.set y i false
  done;
  let input = Ldisj.encode { Ldisj.k; x; y } in
  { input; label = Not_in_language (Intersecting t); k }

let sparse_pair rng ~k ~weight =
  let m = m_of_k k in
  let x = Bitvec.random_with_weight rng m weight in
  let y = Bitvec.random_with_weight rng m weight in
  let t = Bitvec.intersection_count x y in
  let input = Ldisj.encode { Ldisj.k; x; y } in
  let label = if t = 0 then In_language else Not_in_language (Intersecting t) in
  { input; label; k }

(* The base is parsed, in place, only to check it and learn k; the
   defect is one byte of a copy of its input, found through
   [Ldisj.offset]. *)
let corrupt_repetition rng ~base =
  match Ldisj.parse base.input with
  | Error reason ->
      Fmt.invalid_arg "Instance.corrupt_repetition: base is not well-formed (%s)" reason
  | Ok { Ldisj.k; _ } ->
      let victim_rep = Rng.int rng (1 lsl k) in
      let victim_copy = Rng.int rng 3 in
      let victim_bit = Rng.int rng (m_of_k k) in
      let b = Bytes.of_string base.input in
      let at = Ldisj.offset ~k ~rep:victim_rep ~copy:victim_copy ~idx:victim_bit in
      Bytes.set b at (if Bytes.get b at = '0' then '1' else '0');
      let what =
        Printf.sprintf "bit %d of copy %d in repetition %d flipped" victim_bit
          victim_copy victim_rep
      in
      (* [b] is this call's own copy and is not touched again. *)
      { input = Bytes.unsafe_to_string b; label = Not_in_language (Inconsistent what); k }

let malformed rng ~k =
  let m = m_of_k k in
  let base = disjoint_pair rng ~k in
  let s = base.input in
  let defect = Rng.int rng 5 in
  let replace at c =
    let b = Bytes.of_string s in
    Bytes.set b at c;
    Bytes.unsafe_to_string b
  in
  let input, what =
    match defect with
    | 0 -> (String.sub s 0 (String.length s - 1), "truncated final symbol")
    | 1 -> (s ^ "0", "trailing garbage")
    | 2 ->
        ( replace (Ldisj.offset ~k ~rep:0 ~copy:0 ~idx:(-1)) '0',
          "missing prefix separator" )
    | 3 ->
        ( replace (Ldisj.offset ~k ~rep:0 ~copy:0 ~idx:m) '1',
          "separator replaced inside repetition" )
    | _ ->
        (* Claim k+1 with blocks sized for k: length mismatch. *)
        ("1" ^ s, "inflated 1-run")
  in
  { input; label = Not_in_language (Malformed what); k }

let standard_suite rng ~k =
  let m = m_of_k k in
  let sqrt_m = max 1 (1 lsl k) in
  let member1 = disjoint_pair rng ~k in
  let member2 = disjoint_pair rng ~k in
  [
    member1;
    member2;
    intersecting_pair rng ~k ~t:1;
    intersecting_pair rng ~k ~t:sqrt_m;
    intersecting_pair rng ~k ~t:(max 1 (m / 4));
    corrupt_repetition rng ~base:member1;
    malformed rng ~k;
    malformed rng ~k;
  ]
