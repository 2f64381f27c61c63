let bits_per_word = 62

type t = { len : int; words : int array }

let words_for len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Array.make (max 1 (words_for len)) 0 }

let length t = t.len

let check_index t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check_index t i;
  (t.words.(i / bits_per_word) lsr (i mod bits_per_word)) land 1 = 1

let set t i b =
  check_index t i;
  let w = i / bits_per_word and off = i mod bits_per_word in
  if b then t.words.(w) <- t.words.(w) lor (1 lsl off)
  else t.words.(w) <- t.words.(w) land lnot (1 lsl off)

let copy t = { len = t.len; words = Array.copy t.words }

let equal a b = a.len = b.len && a.words = b.words

let of_string s =
  let t = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set t i true
      | _ -> invalid_arg "Bitvec.of_string: expected only '0' and '1'")
    s;
  t

let iter_words f t =
  let last = words_for t.len - 1 in
  for w = 0 to last do
    f t.words.(w) (if w < last then bits_per_word else t.len - (w * bits_per_word))
  done

let to_string t =
  let b = Bytes.create t.len in
  let pos = ref 0 in
  iter_words
    (fun bits len ->
      for i = 0 to len - 1 do
        Bytes.unsafe_set b (!pos + i) (if (bits lsr i) land 1 = 1 then '1' else '0')
      done;
      pos := !pos + len)
    t;
  Bytes.unsafe_to_string b

let random rng len =
  let t = create len in
  for w = 0 to Array.length t.words - 1 do
    t.words.(w) <- Rng.bits62 rng
  done;
  (* Clear the bits past [len] so that equality stays structural. *)
  let spare = t.len mod bits_per_word in
  if t.len = 0 then t.words.(0) <- 0
  else if spare <> 0 then begin
    let last = Array.length t.words - 1 in
    t.words.(last) <- t.words.(last) land ((1 lsl spare) - 1)
  end;
  t

let random_with_weight rng len w =
  if w < 0 || w > len then invalid_arg "Bitvec.random_with_weight";
  (* Partial Fisher–Yates over positions: choose w distinct indices. *)
  let positions = Array.init len Fun.id in
  let t = create len in
  for i = 0 to w - 1 do
    let j = i + Rng.int rng (len - i) in
    let tmp = positions.(i) in
    positions.(i) <- positions.(j);
    positions.(j) <- tmp;
    set t positions.(i) true
  done;
  t

let popcount_word w =
  let w = ref w and c = ref 0 in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let check_same_length a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let intersection_count a b =
  check_same_length a b;
  let acc = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(w) land b.words.(w))
  done;
  !acc

let disjoint a b =
  check_same_length a b;
  let rec go w =
    w >= Array.length a.words || (a.words.(w) land b.words.(w) = 0 && go (w + 1))
  in
  go 0

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitvec.sub";
  let r = create len in
  for i = 0 to len - 1 do
    if get t (pos + i) then set r i true
  done;
  r

let ones t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if get t i then acc := i :: !acc
  done;
  !acc
