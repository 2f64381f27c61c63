(* A string-backed stream reads its bytes in place: [iter], and so
   [fold], loops over them with no option or closure per symbol.
   [pos] moves past a symbol only once it has decoded, so a bad
   character leaves [pos] at its own index, as a raising generator
   does.  A generator is asked for each position once: [next_bits]
   may look one symbol ahead, and [ahead] holds that answer for
   [next]. *)
type gen = { f : int -> Symbol.t option; mutable ahead : Symbol.t option option }
type source = Bytes_of of string | Gen of gen
type t = { mutable pos : int; src : source }

let of_string s = { pos = 0; src = Bytes_of s }
let of_fn f = { pos = 0; src = Gen { f; ahead = None } }

let max_bits = 62

let pull g pos =
  match g.ahead with
  | Some answer ->
      g.ahead <- None;
      answer
  | None -> g.f pos

(* [Symbol.of_char], decoded here so the hot loop makes no call
   across modules (dev builds are [-opaque]); a bad character still
   goes to [Symbol.of_char] for its error. *)
let[@inline] decode c =
  match c with
  | '0' -> Symbol.Zero
  | '1' -> Symbol.One
  | '#' -> Symbol.Hash
  | c -> Symbol.of_char c

let next t =
  match t.src with
  | Bytes_of s ->
      if t.pos < String.length s then begin
        let sym = decode (String.unsafe_get s t.pos) in
        t.pos <- t.pos + 1;
        Some sym
      end
      else None
  | Gen g -> (
      match pull g t.pos with
      | Some sym ->
          t.pos <- t.pos + 1;
          Some sym
      | None -> None)

(* The string loop stops at the first byte that is not a bit and
   leaves it unread, so [next] then decodes it: a '#' as a symbol, a
   bad character as its error at its own [pos].  A generator hands out
   one bit per call, so an exception it raises still surfaces with
   every earlier symbol already returned.

   While eight bytes remain before [stop] they are loaded as one
   little-endian word: if clearing bit 0 of every byte leaves '0' in
   each, all eight are bits, and the multiply gathers bit 0 of byte
   [b] at bit [55 + b] (no two partial products meet, so nothing
   carries).  Any other word, and the last bytes, go through the byte
   loop. *)
let next_bits t max =
  let max = Int.min max max_bits in
  match t.src with
  | Bytes_of s ->
      let start = t.pos in
      let stop = Int.min (start + max) (String.length s) in
      let i = ref start and bits = ref 0 and words = ref true in
      while !words && !i + 8 <= stop do
        let w = String.get_int64_le s !i in
        if Int64.equal (Int64.logand w 0xFEFE_FEFE_FEFE_FEFEL) 0x3030_3030_3030_3030L
        then begin
          let low = Int64.to_int (Int64.logand w 0x0101_0101_0101_0101L) in
          bits := !bits lor (((low * 0x0081_0204_0810_2040) lsr 55) lsl (!i - start));
          i := !i + 8
        end
        else words := false
      done;
      let more = ref true in
      while !more && !i < stop do
        match String.unsafe_get s !i with
        | '0' -> incr i
        | '1' ->
            bits := !bits lor (1 lsl (!i - start));
            incr i
        | _ -> more := false
      done;
      t.pos <- !i;
      (!bits, !i - start)
  | Gen g ->
      if max < 1 then (0, 0)
      else begin
        let answer = pull g t.pos in
        match answer with
        | Some ((Symbol.Zero | Symbol.One) as sym) ->
            t.pos <- t.pos + 1;
            ((if sym = Symbol.One then 1 else 0), 1)
        | _ ->
            g.ahead <- Some answer;
            (0, 0)
      end

let pos t = t.pos

let iter f t =
  match t.src with
  | Bytes_of s ->
      while t.pos < String.length s do
        let sym = decode (String.unsafe_get s t.pos) in
        t.pos <- t.pos + 1;
        f sym
      done
  | Gen _ ->
      let rec loop () =
        match next t with
        | Some sym ->
            f sym;
            loop ()
        | None -> ()
      in
      loop ()

let fold f acc t =
  let acc = ref acc in
  iter (fun sym -> acc := f !acc sym) t;
  !acc
