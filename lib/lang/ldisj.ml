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

(* A renderer that keeps the last four blocks it drew, keyed by
   content: [encode] repeats two vectors and
   [Instance.corrupt_repetition] adds a third, so each is rendered
   once, not 3 * 2^k times.  A key is a copy, so a [blocks] that
   hands back one vector with new contents is rendered afresh. *)
let block_renderer () =
  let cache = ref [] in
  fun v ->
    match List.find_opt (fun (key, _) -> Bitvec.equal key v) !cache with
    | Some (_, text) -> text
    | None ->
        let text = Bitvec.to_string v in
        cache := (Bitvec.copy v, text) :: List.filteri (fun i _ -> i < 3) !cache;
        text

let encode_with ~k ~blocks =
  if k < 1 then invalid_arg "Ldisj: k must be >= 1";
  let m = m_of_k k in
  let buf = Buffer.create (string_length ~k) in
  let render = block_renderer () in
  for _ = 1 to k do
    Buffer.add_char buf '1'
  done;
  Buffer.add_char buf '#';
  for r = 0 to reps_of_k k - 1 do
    let x, y, z = blocks r in
    if Bitvec.length x <> m || Bitvec.length y <> m || Bitvec.length z <> m then
      invalid_arg "Ldisj.encode_with: block length mismatch";
    List.iter
      (fun v ->
        Buffer.add_string buf (render v);
        Buffer.add_char buf '#')
      [ x; y; z ]
  done;
  Buffer.contents buf

let encode shape =
  check_shape shape;
  encode_with ~k:shape.k ~blocks:(fun _ -> (shape.x, shape.y, shape.x))

let disj x y = Bitvec.disjoint x y

let stream shape =
  check_shape shape;
  let { k; x; y } = shape in
  let m = m_of_k k in
  let seg_len = m + 1 in
  let rep_len = 3 * seg_len in
  let total = string_length ~k in
  let symbol_at pos =
    if pos >= total then None
    else if pos < k then Some Machine.Symbol.One
    else if pos = k then Some Machine.Symbol.Hash
    else begin
      let off = pos - k - 1 in
      let within = off mod rep_len in
      let seg = within / seg_len and idx = within mod seg_len in
      if idx = m then Some Machine.Symbol.Hash
      else begin
        let v = if seg = 1 then y else x in
        Some (Machine.Symbol.of_bit (Bitvec.get v idx))
      end
    end
  in
  Machine.Stream.of_fn symbol_at

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
