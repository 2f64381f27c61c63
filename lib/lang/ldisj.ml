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

(* Condition (i): [1^k#], the exact length, then each block's 2^{2k}
   bits and the '#' that ends it, in input order.  Every position read
   comes from [offset]; nothing is copied.  Returns k. *)
let shape_k input =
  let n = String.length input in
  let k = ref 0 in
  while !k < n && input.[!k] = '1' do
    incr k
  done;
  let k = !k in
  if k < 1 then Error "no leading 1-run"
  (* Above k = 20 the layout is longer than max_int and [string_length]
     wraps; below it, the reads that follow rely on every offset lying
     inside an input of the exact length. *)
  else if k > 20 then Error "k too large"
  else if k >= n || input.[k] <> '#' then Error "missing '#' after 1^k"
  else if n <> string_length ~k then
    Error (Printf.sprintf "length %d, expected %d for k=%d" n (string_length ~k) k)
  else
    let m = m_of_k k in
    let exception Bad of string in
    try
      for rep = 0 to reps_of_k k - 1 do
        for copy = 0 to 2 do
          let start = offset ~k ~rep ~copy ~idx:0 in
          for i = start to start + m - 1 do
            match String.unsafe_get input i with
            | '0' | '1' -> ()
            | _ -> raise (Bad (Printf.sprintf "unexpected '#' inside block at %d" i))
          done;
          let stop = offset ~k ~rep ~copy ~idx:m in
          if input.[stop] <> '#' then
            raise (Bad (Printf.sprintf "missing '#' at %d" stop))
        done
      done;
      Ok k
    with Bad reason -> Error reason

let well_shaped input = Result.is_ok (shape_k input)

(* Conditions (ii) and (iii): each copy is compared in place with its
   counterpart in repetition 0, in input order; only then are x and y
   built, once, from repetition 0. *)
let parse input =
  let ( let* ) = Result.bind in
  let* k = shape_k input in
  let m = m_of_k k in
  let start rep copy = offset ~k ~rep ~copy ~idx:0 in
  (* Block [copy] of repetition [rep] against block [copy0] of
     repetition 0, byte by byte. *)
  let agrees rep copy copy0 =
    let a = start rep copy and b = start 0 copy0 in
    let rec go i =
      i >= m
      || String.unsafe_get input (a + i) = String.unsafe_get input (b + i)
         && go (i + 1)
    in
    go 0
  in
  let* () = if agrees 0 2 0 then Ok () else Error "x <> z in repetition 0" in
  let rec check rep =
    let differs what = Error (Printf.sprintf "%s differs in repetition %d" what rep) in
    if rep >= reps_of_k k then Ok ()
    else if not (agrees rep 0 0) then differs "x"
    else if not (agrees rep 1 1) then differs "y"
    else if not (agrees rep 2 0) then differs "z"
    else check (rep + 1)
  in
  let* () = check 1 in
  let block copy = Bitvec.of_string (String.sub input (start 0 copy) m) in
  Ok { k; x = block 0; y = block 1 }

let member input =
  match parse input with Ok { x; y; _ } -> disj x y | Error _ -> false
