(* One source representation: the string being read, the index of
   its next byte and the symbols before it.  Every reader works on
   [s] in place; when [s] is used up, [advance] asks for the next
   non-empty string, so the hot path pays one length compare to stay
   in the current one.  [pos] moves past a symbol only once it has
   decoded, so a bad character leaves [pos] at its own global index. *)
type t = {
  mutable s : string;
  mutable i : int;
  mutable base : int;
  mutable more : unit -> string option;
}

let no_more () = None
let of_string s = { s; i = 0; base = 0; more = no_more }
let of_chunks more = { s = ""; i = 0; base = 0; more }

let max_bits = 62

(* Moves to the next non-empty string; false, and no further calls to
   the source, once it is exhausted. *)
let rec advance t =
  match t.more () with
  | None ->
      t.more <- no_more;
      false
  | Some s ->
      t.base <- t.base + t.i;
      t.s <- s;
      t.i <- 0;
      String.length s > 0 || advance t

(* [Symbol.of_char], decoded here so the hot loop makes no call
   across modules (dev builds are [-opaque]); a bad character still
   goes to [Symbol.of_char] for its error. *)
let[@inline] decode c =
  match c with
  | '0' -> Symbol.Zero
  | '1' -> Symbol.One
  | '#' -> Symbol.Hash
  | c -> Symbol.of_char c

let rec next t =
  if t.i < String.length t.s then begin
    let sym = decode (String.unsafe_get t.s t.i) in
    t.i <- t.i + 1;
    Some sym
  end
  else if advance t then next t
  else None

(* The loop stops at the first byte that is not a bit, or at the end
   of the current string, and leaves it unread, so [next] then decodes
   it: a '#' as a symbol, a bad character as its error at its own
   [pos].

   While eight bytes remain before [stop] they are loaded as one
   little-endian word: if clearing bit 0 of every byte leaves '0' in
   each, all eight are bits, and the multiply gathers bit 0 of byte
   [b] at bit [55 + b] (no two partial products meet, so nothing
   carries).  Any other word, and the last bytes, go through the byte
   loop. *)
let next_bits t max =
  if t.i >= String.length t.s && not (advance t) then (0, 0)
  else begin
    let s = t.s and start = t.i in
    let stop = Int.min (start + Int.min max max_bits) (String.length s) in
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
    t.i <- !i;
    (!bits, !i - start)
  end

let pos t = t.base + t.i

(* [f] may itself read from [t], so the loop re-reads [t.s] rather
   than keeping a string that [advance] may have replaced. *)
let rec iter f t =
  while t.i < String.length t.s do
    let sym = decode (String.unsafe_get t.s t.i) in
    t.i <- t.i + 1;
    f sym
  done;
  if advance t then iter f t
