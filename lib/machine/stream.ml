(* A string-backed stream reads its bytes in place: [iter], and so
   [fold], loops over them with no option or closure per symbol.
   [pos] moves past a symbol only once it has decoded, so a bad
   character leaves [pos] at its own index, as a raising generator
   does. *)
type source = Bytes_of of string | Gen of (int -> Symbol.t option)
type t = { mutable pos : int; src : source }

let of_string s = { pos = 0; src = Bytes_of s }
let of_fn gen = { pos = 0; src = Gen gen }

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
  | Gen gen -> (
      match gen t.pos with
      | Some sym ->
          t.pos <- t.pos + 1;
          Some sym
      | None -> None)

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
