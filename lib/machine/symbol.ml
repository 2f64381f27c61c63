type t = Zero | One | Hash
type work = Sym of t | Blank

let of_char = function
  | '0' -> Zero
  | '1' -> One
  | '#' -> Hash
  | c -> Fmt.invalid_arg "Symbol.of_char: %c not in {0,1,#}" c

let to_char = function Zero -> '0' | One -> '1' | Hash -> '#'

let of_string s = List.init (String.length s) (fun i -> of_char s.[i])
let to_string syms =
  let arr = Array.of_list syms in
  String.init (Array.length arr) (fun i -> to_char arr.(i))

let to_bit = function Zero -> Some false | One -> Some true | Hash -> None

let equal a b = a = b
let pp fmt s = Format.pp_print_char fmt (to_char s)

let work_to_char = function Sym s -> to_char s | Blank -> '_'
let work_equal a b = a = b
