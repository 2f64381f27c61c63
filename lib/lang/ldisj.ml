open Mathx

type shape = { k : int; x : Bitvec.t; y : Bitvec.t }

let m_of_k k = 1 lsl (2 * k)
let reps_of_k k = 1 lsl k

let string_length ~k = k + 1 + (reps_of_k k * ((3 * m_of_k k) + 3))

let check_shape { k; x; y } =
  if k < 1 then invalid_arg "Ldisj: k must be >= 1";
  let m = m_of_k k in
  if Bitvec.length x <> m || Bitvec.length y <> m then
    Fmt.invalid_arg "Ldisj: strings must have length 2^(2k) = %d" m

(* The layout, defined once: [1^k#], then [x#], [y#], [x#] for each
   of the 2^k repetitions.  [x#] and [y#] are rendered once and shared
   by every repetition. *)
let pieces shape =
  check_shape shape;
  let x = Bitvec.to_string shape.x ^ "#" and y = Bitvec.to_string shape.y ^ "#" in
  (String.make shape.k '1' ^ "#")
  :: List.concat (List.init (reps_of_k shape.k) (fun _ -> [ x; y; x ]))

let encode shape = String.concat "" (pieces shape)

let disj x y = Bitvec.disjoint x y

let stream shape =
  let rest = ref (pieces shape) in
  Machine.Stream.of_chunks (fun () ->
      match !rest with
      | [] -> None
      | piece :: more ->
          rest := more;
          Some piece)

let offset ~k ~rep ~copy ~idx =
  let m = m_of_k k in
  if rep < 0 || rep >= reps_of_k k || copy < 0 || copy > 2 || idx < -1 || idx > m then
    invalid_arg "Ldisj.offset: position outside the layout";
  k + 1 + (((3 * rep) + copy) * (m + 1)) + idx

(* Shape scan: condition (i) only.  Returns k and the raw blocks. *)
let scan input =
  let ( let* ) r f = Result.bind r f in
  let n = String.length input in
  (* Leading 1^k. *)
  let k = ref 0 in
  while !k < n && input.[!k] = '1' do
    incr k
  done;
  let k = !k in
  let* () = if k >= 1 then Ok () else Error "no leading 1-run" in
  let* () = if k < 30 then Ok () else Error "k too large" in
  let* () =
    if k < n && input.[k] = '#' then Ok () else Error "missing '#' after 1^k"
  in
  let m = m_of_k k and reps = reps_of_k k in
  let expected = string_length ~k in
  let* () =
    if n = expected then Ok ()
    else Error (Printf.sprintf "length %d, expected %d for k=%d" n expected k)
  in
  (* Scan segments: for each repetition, x#y#z#. *)
  let read_block pos =
    let stop = pos + m in
    let rec check i =
      if i >= stop then Ok (Bitvec.of_string (String.sub input pos m))
      else
        match input.[i] with
        | '0' | '1' -> check (i + 1)
        | _ -> Error (Printf.sprintf "unexpected '#' inside block at %d" i)
    in
    let* v = check pos in
    if stop < n && input.[stop] = '#' then Ok v
    else Error (Printf.sprintf "missing '#' at %d" stop)
  in
  let rec read_reps r pos acc =
    if r >= reps then Ok (List.rev acc)
    else begin
      let* x = read_block pos in
      let* y = read_block (pos + m + 1) in
      let* z = read_block (pos + (2 * (m + 1))) in
      read_reps (r + 1) (pos + (3 * (m + 1))) ((x, y, z) :: acc)
    end
  in
  let* blocks = read_reps 0 (k + 1) [] in
  Ok (k, blocks)

let well_shaped input = Result.is_ok (scan input)

let parse input =
  let ( let* ) r f = Result.bind r f in
  let* k, blocks = scan input in
  match blocks with
  | [] -> Error "no repetitions"
  | (x0, y0, z0) :: rest ->
      let* () =
        if Bitvec.equal x0 z0 then Ok () else Error "x <> z in repetition 0"
      in
      let rec check_rest i = function
        | [] -> Ok ()
        | (x, y, z) :: more ->
            if not (Bitvec.equal x x0) then
              Error (Printf.sprintf "x differs in repetition %d" i)
            else if not (Bitvec.equal y y0) then
              Error (Printf.sprintf "y differs in repetition %d" i)
            else if not (Bitvec.equal z x0) then
              Error (Printf.sprintf "z differs in repetition %d" i)
            else check_rest (i + 1) more
      in
      let* () = check_rest 1 rest in
      Ok { k; x = x0; y = y0 }

let member input =
  match parse input with Ok { x; y; _ } -> disj x y | Error _ -> false

let in_complement input = not (member input)
