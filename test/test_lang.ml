(* Tests for the L_DISJ language machinery: encoding, exact parsing,
   membership, and the labelled instance generators. *)

open Mathx

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let shape_of rng k =
  let m = 1 lsl (2 * k) in
  let x = Bitvec.random rng m in
  let y = Bitvec.create m in
  for i = 0 to m - 1 do
    if not (Bitvec.get x i) then Bitvec.set y i (Rng.bool rng)
  done;
  { Lang.Ldisj.k; x; y }

(* --------------------------------------------------------------- encode *)

let test_string_length_formula () =
  List.iter
    (fun k ->
      let shape = shape_of (Rng.create k) k in
      check_int
        (Printf.sprintf "k=%d" k)
        (Lang.Ldisj.string_length ~k)
        (String.length (Lang.Ldisj.encode shape)))
    [ 1; 2; 3; 4 ]

let test_encode_k1_explicit () =
  let x = Bitvec.of_string "1010" and y = Bitvec.of_string "0101" in
  Alcotest.(check string) "layout" "1#1010#0101#1010#1010#0101#1010#"
    (Lang.Ldisj.encode { Lang.Ldisj.k = 1; x; y })

let test_parse_roundtrip () =
  let rng = Rng.create 8 in
  for k = 1 to 3 do
    let shape = shape_of rng k in
    match Lang.Ldisj.parse (Lang.Ldisj.encode shape) with
    | Ok parsed ->
        check_int "k" shape.Lang.Ldisj.k parsed.Lang.Ldisj.k;
        check "x" true (Bitvec.equal shape.Lang.Ldisj.x parsed.Lang.Ldisj.x);
        check "y" true (Bitvec.equal shape.Lang.Ldisj.y parsed.Lang.Ldisj.y)
    | Error e -> Alcotest.failf "parse failed: %s" e
  done

let test_parse_rejections () =
  let rng = Rng.create 9 in
  let good = Lang.Ldisj.encode (shape_of rng 1) in
  let cases =
    [
      ("", "empty", "no leading 1-run");
      ("0" ^ good, "leading zero", "no leading 1-run");
      (String.sub good 0 (String.length good - 1), "truncated", "length 31, expected 32 for k=1");
      (good ^ "#", "extended", "length 33, expected 32 for k=1");
      ("1" ^ good, "wrong k claim", "length 33, expected 207 for k=2");
      ("###", "only separators", "no leading 1-run");
      ("1#", "no repetitions", "length 2, expected 32 for k=1");
      ("110" ^ good, "no '#' after the 1-run", "missing '#' after 1^k");
      (String.make 30 '1' ^ "#", "k = 30", "k too large");
    ]
  in
  List.iter
    (fun (input, label, reason) ->
      Alcotest.(check (result reject string))
        label (Error reason)
        (Result.map (fun _ -> ()) (Lang.Ldisj.parse input)))
    cases;
  (* At k = 21, string_length wraps to 22 + 3 * 2^21.  An input of that
     length is rejected as k too large, before its length is compared
     with the wrapped figure or any block is read: a block of 2^42 bits
     would run past its end. *)
  let wrapped = String.make 21 '1' ^ "#" ^ String.make (3 lsl 21) '0' in
  check_int "wrapped length" (String.length wrapped) (Lang.Ldisj.string_length ~k:21);
  Alcotest.(check (result reject string))
    "k = 21 at the wrapped length" (Error "k too large")
    (Result.map (fun _ -> ()) (Lang.Ldisj.parse wrapped))

(* Every byte of the layout, changed alone, at k = 1..3.  A bit flipped
   0 <-> 1 breaks condition (ii) or (iii), and is reported at the first
   copy, in input order, that differs from repetition 0: a flip in x or
   z of repetition 0 as [x <> z], a flip in its y at repetition 1's y.
   A bit turned into '#', or a separator into '0', breaks condition (i)
   at that byte. *)
let test_parse_detects_inconsistency () =
  let x = Bitvec.of_string "0000" and y = Bitvec.of_string "1111" in
  let good = Lang.Ldisj.encode { Lang.Ldisj.k = 1; x; y } in
  let flip ~rep ~copy ~idx =
    let b = Bytes.of_string good in
    let at = Lang.Ldisj.offset ~k:1 ~rep ~copy ~idx in
    Bytes.set b at (if good.[at] = '0' then '1' else '0');
    Lang.Ldisj.parse (Bytes.to_string b)
  in
  let reason = function Error r -> r | Ok _ -> "accepted" in
  Alcotest.(check string) "different y in the second repetition"
    "y differs in repetition 1" (reason (flip ~rep:1 ~copy:1 ~idx:3));
  Alcotest.(check string) "z different from x inside a repetition"
    "x <> z in repetition 0" (reason (flip ~rep:0 ~copy:2 ~idx:3));
  let rng = Rng.create 19 in
  for k = 1 to 3 do
    let good = Lang.Ldisj.encode (shape_of rng k) and m = 1 lsl (2 * k) in
    let with_byte at c =
      let b = Bytes.of_string good in
      Bytes.set b at c;
      reason (Lang.Ldisj.parse (Bytes.to_string b))
    in
    for rep = 0 to (1 lsl k) - 1 do
      for copy = 0 to 2 do
        for idx = -1 to m do
          let at = Lang.Ldisj.offset ~k ~rep ~copy ~idx in
          let where = Printf.sprintf "k=%d rep=%d copy=%d idx=%d" k rep copy idx in
          if idx = -1 || idx = m then
            Alcotest.(check string) where
              (if at = k then "missing '#' after 1^k"
               else Printf.sprintf "missing '#' at %d" at)
              (with_byte at '0')
          else begin
            Alcotest.(check string) (where ^ " flipped")
              (match (rep, copy) with
              | 0, (0 | 2) -> "x <> z in repetition 0"
              | 0, _ -> "y differs in repetition 1"
              | _ ->
                  Printf.sprintf "%s differs in repetition %d"
                    [| "x"; "y"; "z" |].(copy) rep)
              (with_byte at (if good.[at] = '0' then '1' else '0'));
            Alcotest.(check string) (where ^ " to '#'")
              (Printf.sprintf "unexpected '#' inside block at %d" at)
              (with_byte at '#')
          end
        done
      done
    done
  done;
  (* Two defects: the first in input order is reported, and condition
     (i) is checked over the whole input first, so a '#' defect in a
     later repetition outranks an inconsistency in repetition 1. *)
  let k = 2 and m = 16 in
  let good = Lang.Ldisj.encode (shape_of rng k) in
  let flip b ~rep ~copy =
    let at = Lang.Ldisj.offset ~k ~rep ~copy ~idx:3 in
    Bytes.set b at (if Bytes.get b at = '0' then '1' else '0')
  in
  let both (r1, c1) (r2, c2) =
    let b = Bytes.of_string good in
    flip b ~rep:r1 ~copy:c1;
    flip b ~rep:r2 ~copy:c2;
    reason (Lang.Ldisj.parse (Bytes.to_string b))
  in
  List.iter
    (fun (first, second, expect) ->
      Alcotest.(check string) "first inconsistency in input order" expect
        (both first second))
    [
      ((1, 0), (1, 1), "x differs in repetition 1");
      ((2, 1), (2, 2), "y differs in repetition 2");
      ((1, 2), (2, 0), "z differs in repetition 1");
      ((3, 2), (3, 0), "x differs in repetition 3");
    ];
  let b = Bytes.of_string good in
  flip b ~rep:1 ~copy:1;
  let sep = Lang.Ldisj.offset ~k ~rep:3 ~copy:0 ~idx:m in
  Bytes.set b sep '0';
  Alcotest.(check string) "shape defect outranks an earlier inconsistency"
    (Printf.sprintf "missing '#' at %d" sep)
    (reason (Lang.Ldisj.parse (Bytes.to_string b)))

let test_member_semantics () =
  let x = Bitvec.of_string "1010" and y = Bitvec.of_string "0101" in
  check "disjoint pair is member" true
    (Lang.Ldisj.member (Lang.Ldisj.encode { Lang.Ldisj.k = 1; x; y }));
  let y_hit = Bitvec.of_string "1101" in
  check "intersecting pair is not" false
    (Lang.Ldisj.member (Lang.Ldisj.encode { Lang.Ldisj.k = 1; x; y = y_hit }))

let test_disj_predicate () =
  check "empty-ish" true (Lang.Ldisj.disj (Bitvec.create 4) (Bitvec.create 4));
  check "overlap" false
    (Lang.Ldisj.disj (Bitvec.of_string "0010") (Bitvec.of_string "0011"))

let test_stream_matches_encode () =
  let rng = Rng.create 16 in
  for k = 1 to 3 do
    let shape = shape_of rng k in
    let encoded = Lang.Ldisj.encode shape in
    let stream = Lang.Ldisj.stream shape in
    let buf = Buffer.create (String.length encoded) in
    Machine.Stream.iter (fun sym -> Buffer.add_char buf (Machine.Symbol.to_char sym)) stream;
    Alcotest.(check string) (Printf.sprintf "k=%d" k) encoded (Buffer.contents buf)
  done

let test_stream_feeds_recognizer () =
  (* The generated stream and the materialised string must be
     indistinguishable to the recognizer. *)
  let rng = Rng.create 17 in
  let shape = shape_of (Rng.split rng) 2 in
  let r_string =
    Oqsc.Recognizer.run ~rng:(Rng.create 99) (Lang.Ldisj.encode shape)
  in
  let r_stream =
    Oqsc.Recognizer.run_stream ~rng:(Rng.create 99) (Lang.Ldisj.stream shape)
  in
  check "same decision" true
    (r_string.Oqsc.Recognizer.accept = r_stream.Oqsc.Recognizer.accept);
  Alcotest.(check (float 1e-12)) "same exact probability"
    r_string.Oqsc.Recognizer.accept_probability
    r_stream.Oqsc.Recognizer.accept_probability

(* ------------------------------------------------------------ instances *)

let test_disjoint_pair_is_member () =
  let rng = Rng.create 10 in
  for k = 1 to 3 do
    for _ = 1 to 10 do
      let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      check "labelled member" true (Lang.Instance.is_member inst);
      check "oracle agrees" true (Lang.Ldisj.member inst.Lang.Instance.input)
    done
  done

let test_intersecting_pair_exact_t () =
  let rng = Rng.create 11 in
  List.iter
    (fun t ->
      let inst = Lang.Instance.intersecting_pair (Rng.split rng) ~k:2 ~t in
      check "not member" false (Lang.Instance.is_member inst);
      match Lang.Ldisj.parse inst.Lang.Instance.input with
      | Ok { Lang.Ldisj.x; y; _ } ->
          check_int "planted t" t (Bitvec.intersection_count x y)
      | Error e -> Alcotest.failf "should parse: %s" e)
    [ 1; 2; 7; 16 ]

let test_corrupt_repetition_rejected_by_parse () =
  let rng = Rng.create 12 in
  for _ = 1 to 20 do
    let base = Lang.Instance.disjoint_pair (Rng.split rng) ~k:2 in
    let c = Lang.Instance.corrupt_repetition (Rng.split rng) ~base in
    check "not member" false (Lang.Ldisj.member c.Lang.Instance.input);
    check "parse rejects" true (Result.is_error (Lang.Ldisj.parse c.Lang.Instance.input));
    check_int "same length as base" (String.length base.Lang.Instance.input)
      (String.length c.Lang.Instance.input)
  done

let test_malformed_rejected () =
  let rng = Rng.create 13 in
  for _ = 1 to 25 do
    let m = Lang.Instance.malformed (Rng.split rng) ~k:2 in
    check "not member" false (Lang.Ldisj.member m.Lang.Instance.input)
  done

let test_sparse_pair_label_matches_truth () =
  let rng = Rng.create 14 in
  for _ = 1 to 20 do
    let inst = Lang.Instance.sparse_pair (Rng.split rng) ~k:2 ~weight:3 in
    check "label = oracle" true
      (Lang.Instance.is_member inst = Lang.Ldisj.member inst.Lang.Instance.input)
  done

let test_standard_suite_composition () =
  let rng = Rng.create 15 in
  let suite = Lang.Instance.standard_suite rng ~k:2 in
  check_int "8 instances" 8 (List.length suite);
  let members = List.filter Lang.Instance.is_member suite in
  check_int "2 members" 2 (List.length members);
  List.iter
    (fun inst ->
      check "label = oracle" true
        (Lang.Instance.is_member inst = Lang.Ldisj.member inst.Lang.Instance.input))
    suite

(* ----------------------------------------------------------- properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"encode/parse roundtrip with random strings" ~count:60
      (pair (int_bound 255) (int_bound 255))
      (fun (xm, ym) ->
        let to_vec mask =
          let v = Bitvec.create 16 in
          for i = 0 to 15 do
            if mask lsr (i mod 8) land 1 = 1 && i < 8 then Bitvec.set v i true
          done;
          v
        in
        let shape = { Lang.Ldisj.k = 2; x = to_vec xm; y = to_vec ym } in
        match Lang.Ldisj.parse (Lang.Ldisj.encode shape) with
        | Ok p ->
            Bitvec.equal p.Lang.Ldisj.x shape.Lang.Ldisj.x
            && Bitvec.equal p.Lang.Ldisj.y shape.Lang.Ldisj.y
        | Error _ -> false);
    Test.make ~name:"member iff parse ok and disjoint" ~count:60
      (pair (int_bound 15) (int_bound 15))
      (fun (xm, ym) ->
        let to_vec mask =
          let v = Bitvec.create 4 in
          for i = 0 to 3 do
            if mask lsr i land 1 = 1 then Bitvec.set v i true
          done;
          v
        in
        let x = to_vec xm and y = to_vec ym in
        let input = Lang.Ldisj.encode { Lang.Ldisj.k = 1; x; y } in
        Lang.Ldisj.member input = (xm land ym = 0));
    Test.make ~name:"offset names every byte of encode" ~count:60
      (pair (int_range 1 3) (int_bound 1_000_000))
      (fun (k, seed) ->
        let rng = Rng.create seed in
        let shape = shape_of rng k in
        let input = Lang.Ldisj.encode shape and m = 1 lsl (2 * k) in
        let offset = Lang.Ldisj.offset ~k in
        let byte ~copy idx =
          if idx < 0 || idx = m then '#'
          else if Bitvec.get (if copy = 1 then shape.y else shape.x) idx then '1'
          else '0'
        in
        let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
        offset ~rep:0 ~copy:0 ~idx:(-1) = k
        && offset ~rep:((1 lsl k) - 1) ~copy:2 ~idx:m = String.length input - 1
        && List.for_all
             (fun rep ->
               List.for_all
                 (fun copy ->
                   List.for_all
                     (fun idx -> input.[offset ~rep ~copy ~idx] = byte ~copy idx)
                     (List.init (m + 2) (fun i -> i - 1)))
                 [ 0; 1; 2 ])
             (List.init (1 lsl k) Fun.id)
        && List.for_all raises
             [
               (fun () -> offset ~rep:(1 lsl k) ~copy:0 ~idx:0);
               (fun () -> offset ~rep:(-1) ~copy:0 ~idx:0);
               (fun () -> offset ~rep:0 ~copy:3 ~idx:0);
               (fun () -> offset ~rep:0 ~copy:0 ~idx:(m + 1));
               (fun () -> offset ~rep:0 ~copy:0 ~idx:(-2));
             ]);
  ]

let suite =
  [
    ("string length formula", `Quick, test_string_length_formula);
    ("encode k=1 explicit", `Quick, test_encode_k1_explicit);
    ("parse roundtrip", `Quick, test_parse_roundtrip);
    ("parse rejections", `Quick, test_parse_rejections);
    ("parse detects inconsistency", `Quick, test_parse_detects_inconsistency);
    ("member semantics", `Quick, test_member_semantics);
    ("disj predicate", `Quick, test_disj_predicate);
    ("stream = encode", `Quick, test_stream_matches_encode);
    ("stream feeds recognizer", `Quick, test_stream_feeds_recognizer);
    ("disjoint_pair members", `Quick, test_disjoint_pair_is_member);
    ("intersecting_pair exact t", `Quick, test_intersecting_pair_exact_t);
    ("corrupt_repetition", `Quick, test_corrupt_repetition_rejected_by_parse);
    ("malformed", `Quick, test_malformed_rejected);
    ("sparse_pair labels", `Quick, test_sparse_pair_label_matches_truth);
    ("standard suite", `Quick, test_standard_suite_composition);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
