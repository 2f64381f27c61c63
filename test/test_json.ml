(* Golden and property tests for the JSON emitter / parser / diff that
   back `run-all --json` and `--check`. *)

open Experiments

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let sample =
  Json.Obj
    [
      ("b", Json.Int 2);
      ( "a",
        Json.List
          [ Json.Str "x\"y"; Json.Float 0.25; Json.Null; Json.Bool true ] );
      ("c", Json.Obj []);
    ]

(* The emitter's exact bytes are the contract `--json` reproducibility
   rests on: sorted keys, two-space indent, fixed float format, trailing
   newline.  Changing any of this must be a deliberate golden update. *)
let test_golden_emit () =
  let expected =
    "{\n\
    \  \"a\": [\n\
    \    \"x\\\"y\",\n\
    \    0.25,\n\
    \    null,\n\
    \    true\n\
    \  ],\n\
    \  \"b\": 2,\n\
    \  \"c\": {}\n\
     }\n"
  in
  check_str "golden document" expected (Json.to_string sample)

let test_float_format () =
  check_str "integral float keeps .0" "{\n  \"x\": 2.0\n}\n"
    (Json.to_string (Json.Obj [ ("x", Json.Float 2.0) ]));
  check_str "non-finite becomes null" "{\n  \"x\": null\n}\n"
    (Json.to_string (Json.Obj [ ("x", Json.Float Float.nan) ]));
  check_str "one ulp off an integer prints as that integer" "{\n  \"x\": 1.0\n}\n"
    (Json.to_string (Json.Obj [ ("x", Json.Float (Float.succ 1.0)) ]));
  (* Exact and near integers on both sides of the 1e15 switch, twelve
     significant digits of a non-integer, and random magnitudes: each
     must come back as a [Float], never an [Int]. *)
  let rng = Mathx.Rng.create 5 in
  let near n = [ n; Float.pred n; Float.succ n; -.Float.succ n ] in
  let samples =
    List.concat_map near [ 0.0; 1.0; 7.0; 1e12; 1e15; 1e16; 123456789012.0 ]
    @ [ 123456789012.5; 0.5; 1e-300; Float.max_float; Float.min_float ]
    @ List.init 200 (fun i ->
          Float.ldexp (Mathx.Rng.float rng -. 0.5) ((i mod 120) - 60))
  in
  List.iter
    (fun v ->
      match Json.parse (Json.to_string (Json.Float v)) with
      | Ok (Json.Float _) -> ()
      | _ -> Alcotest.failf "%h does not re-parse as a Float" v)
    samples

let test_parse_roundtrip () =
  match Json.parse (Json.to_string sample) with
  | Error msg -> Alcotest.fail msg
  | Ok parsed ->
      check_str "canonical roundtrip" (Json.to_string sample)
        (Json.to_string parsed)

let test_parse_errors () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  check "truncated object" true (bad "{\"a\": 1");
  check "trailing garbage" true (bad "{} x");
  check "bare word" true (bad "flse")

let test_parse_unicode_escape () =
  (match Json.parse {|"\u0041\u00e9\u00C9"|} with
  | Ok (Json.Str s) -> check_str "four hex digits decode" "A\xc3\xa9\xc3\x89" s
  | _ -> Alcotest.fail "a well-formed \\u escape should parse");
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  check "digit separator" true (bad {|"\u00_4"|});
  check "non-hex character" true (bad {|"\u00g4"|});
  check "sign" true (bad {|"\u+041"|});
  check "short escape" true (bad {|"\u04"|})

let test_diff_identical () =
  Alcotest.(check (list string)) "no drift against itself" []
    (Json.diff sample sample)

let test_diff_tolerance () =
  let base = Json.Obj [ ("v", Json.Float 100.0) ] in
  let close = Json.Obj [ ("v", Json.Float 102.0) ] in
  let far = Json.Obj [ ("v", Json.Float 140.0) ] in
  Alcotest.(check (list string)) "within tolerance" []
    (Json.diff ~tolerance:5.0 base close);
  check "beyond tolerance flagged" true
    (Json.diff ~tolerance:5.0 base far <> []);
  (* Int vs Float compare as numbers. *)
  Alcotest.(check (list string)) "int ~ float" []
    (Json.diff ~tolerance:5.0
       (Json.Obj [ ("v", Json.Int 100) ])
       (Json.Obj [ ("v", Json.Float 101.0) ]))

let test_diff_structure () =
  let base = Json.Obj [ ("s", Json.Str "hello"); ("n", Json.Int 1) ] in
  check "string change flagged" true
    (Json.diff base (Json.Obj [ ("s", Json.Str "bye"); ("n", Json.Int 1) ])
    <> []);
  check "missing key flagged" true
    (Json.diff base (Json.Obj [ ("n", Json.Int 1) ]) <> []);
  check "array length change flagged" true
    (Json.diff
       (Json.List [ Json.Int 1 ])
       (Json.List [ Json.Int 1; Json.Int 2 ])
    <> [])

let test_diff_serialization_precision () =
  (* A float carries more precision than its 12-significant-digit
     serialized form; parsing the document back and diffing against the
     original must still report zero drift, or a run could never gate
     against its own baseline at --tolerance 0. *)
  let doc = Json.Obj [ ("v", Json.Float 0.5962068045632149) ] in
  match Json.parse (Json.to_string doc) with
  | Error msg -> Alcotest.fail msg
  | Ok parsed ->
      Alcotest.(check (list string)) "round-trip drifts 0%" []
        (Json.diff ~tolerance:0.0 parsed doc)

let test_diff_ignored_keys () =
  (* wall_ms is telemetry: a baseline recorded with --timing must check
     cleanly against a run without it, and vice versa. *)
  let with_timing =
    Json.Obj [ ("id", Json.Str "e1"); ("wall_ms", Json.Float 12.5) ]
  in
  let without = Json.Obj [ ("id", Json.Str "e1") ] in
  Alcotest.(check (list string)) "wall_ms ignored both ways" []
    (Json.diff with_timing without @ Json.diff without with_timing)

let test_diff_ignored_at_depth () =
  (* wall_ms is ignored however deeply it nests (run-all puts it on
     every result row).  It is the only telemetry key: r_square and
     generated_at drift like any other key. *)
  let doc wall r2 stamp gated =
    Json.Obj
      [
        ("generated_at", Json.Str stamp);
        ( "results",
          Json.List
            [
              Json.Obj
                [
                  ("id", Json.Str "e1");
                  ("wall_ms", Json.Float wall);
                  ( "body",
                    Json.Obj
                      [
                        ("r_square", Json.Float r2); ("gated", Json.Int gated);
                      ] );
                ];
            ] );
      ]
  in
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check (list string)) "wall_ms drift at any depth is silent" []
    (Json.diff (doc 1.0 0.99 "a" 7) (doc 250.0 0.99 "a" 7));
  (* r_square drift at depth reports, and names its key. *)
  (match Json.diff (doc 1.0 0.99 "a" 7) (doc 250.0 0.42 "a" 7) with
  | [ d ] -> check "the r_square drift names its key" true (has_sub d "r_square")
  | drifts ->
      Alcotest.failf "wanted one r_square drift, got %d" (List.length drifts));
  (* ... as does a gated sibling, never the wall_ms beside it. *)
  let drifts = Json.diff (doc 1.0 0.99 "a" 7) (doc 250.0 0.99 "a" 8) in
  Alcotest.(check int) "exactly the gated sibling reports" 1 (List.length drifts);
  check "the drift names the gated key, not the telemetry" true
    (match drifts with
    | [ d ] -> has_sub d "gated" && not (has_sub d "wall_ms")
    | _ -> false);
  Alcotest.(check int) "r_square, generated_at and gated all report" 3
    (List.length (Json.diff (doc 1.0 0.99 "a" 7) (doc 250.0 0.42 "b" 8)));
  (* An ignored-named key inside an ARRAY element's object is still
     ignored: the filter applies at every object, whatever its depth. *)
  Alcotest.(check (list string)) "custom ignore list respected" []
    (Json.diff ~ignored:[ "id" ]
       (Json.Obj [ ("id", Json.Str "a") ])
       (Json.Obj [ ("id", Json.Str "b") ]))

let prop_ignored_any_depth =
  (* Wrap a drifting telemetry leaf in random layers of objects/arrays;
     the diff must stay silent as long as the drift sits under an
     ignored key, and must report once a sibling gated key drifts. *)
  let gen = QCheck.Gen.(pair (list_size (int_bound 6) (int_bound 2)) (oneofl Json.default_ignored)) in
  QCheck.Test.make ~name:"ignored keys are ignored at any nesting depth"
    ~count:200 (QCheck.make gen) (fun (layers, key) ->
      let wrap tele =
        List.fold_left
          (fun acc layer ->
            match layer with
            | 0 -> Json.Obj [ ("layer", acc) ]
            | 1 -> Json.List [ acc; Json.Null ]
            | _ -> Json.Obj [ ("a", acc); ("sibling", Json.Int 5) ])
          (Json.Obj [ (key, Json.Float tele); ("g", Json.Int 7) ])
          layers
      in
      (* Telemetry drifts only: silent. *)
      Json.diff (wrap 1.0) (wrap 250.0) = []
      &&
      (* Gated sibling drifts at the same depth: reported. *)
      let base = Json.Obj [ (key, Json.Int 1); ("g", Json.Int 5) ] in
      let cur = Json.Obj [ (key, Json.Int 99); ("g", Json.Int 6) ] in
      List.length (Json.diff base cur) = 1)

let prop_roundtrip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) small_signed_int;
                map (fun f -> Json.Float f) (float_bound_inclusive 1e6);
                map (fun s -> Json.Str s) string_printable;
              ]
          in
          if n = 0 then leaf
          else
            oneof
              [
                leaf;
                map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_bound 4)
                     (pair string_printable (self (n / 2))));
              ]))
  in
  QCheck.Test.make ~name:"parse . to_string = canonical identity" ~count:200
    (QCheck.make gen) (fun doc ->
      (* The compact line form is the same walk: it parses back to a
         value that pretty-prints to the same bytes. *)
      List.for_all
        (fun emit ->
          match Json.parse (emit doc) with
          | Error _ -> false
          | Ok parsed -> Json.to_string parsed = Json.to_string doc)
        [ Json.to_string; Json.to_line ])

(* ------------------------------------------------- decoder fuzzing *)

(* Every decoder built on [Json.Decode], fed committed and freshly
   emitted documents with one random mutation each: a member dropped, a
   key "zz" added, or a value retyped, anywhere in the tree.  A decoder
   must answer Ok or Error and never raise; the wire decoders must also
   name an added top-level key. *)

module Protocol = Serve.Protocol

(* A shard seed is one document of a complete set: the mutated copy
   replaces the [i]th member and the whole set goes to the merge. *)
type target = Request | Reply | Shard of (string * Json.t) list * int | Log | Trace

let fuzz_seeds =
  lazy
    (let mix =
       In_channel.with_open_text
         (Filename.concat (Filename.dirname Sys.executable_name)
            "../examples/serve_mix.ndjson")
         In_channel.input_all
       |> String.split_on_char '\n'
       |> List.filter (fun l -> String.trim l <> "")
     in
     let parsed line =
       match Json.parse line with Ok j -> j | Error m -> failwith m
     in
     let server = Serve.Server.create () in
     let replies =
       List.concat_map
         (fun l -> (Serve.Server.submit_line server l).Serve.Server.replies)
         mix
       @ Serve.Server.finish server
     in
     let seed = 2006 in
     let experiments =
       List.init 2 (fun index ->
           ( Printf.sprintf "exp_%d.json" index,
             Json.of_results ~shard:(index, 2) ~seed ~quick:true
               (Registry.results ~quick:true ~seed
                  ~only:(Merge.assign { Merge.index; count = 2 } [ "e2"; "e13" ])
                  ()) ))
     in
     let audit =
       List.init 2 (fun index ->
           ( Printf.sprintf "sa_%d.json" index,
             Space_audit.shard_to_json ~timing:true ~shard:(index, 2) ~seed
               ~quick:true
               (Space_audit.rows ~quick:true ~shard:(index, 2) ~seed ()) ))
     in
     let shard_seeds set = List.mapi (fun i (_, doc) -> (Shard (set, i), doc)) set in
     let trace =
       let module T = Obs.Trace in
       T.start ();
       T.with_span ~args:[ ("k", T.Int 3) ] "admit" (fun () ->
           T.instant "tick";
           T.flow_start ~id:7 "req");
       T.with_span "dispatch" (fun () ->
           T.counter "gc" [ ("words", 7.0) ];
           T.flow_end ~id:7 "req");
       Chrome_trace.document (T.stop ())
     in
     List.map (fun l -> (Request, parsed l)) mix
     @ List.map (fun r -> (Reply, Protocol.reply_to_json r)) replies
     @ shard_seeds experiments @ shard_seeds audit
     @ [
         ( Log,
           parsed
             {|{"code":"bad_request","conn":0,"event":"rejected","id":null,"latency_ms":0.0,"op":null,"queue_depth":0,"seq":0,"ts_ms":1.5}|}
         );
         (Trace, trace);
       ])

let decode target doc =
  let joined = Result.map_error (String.concat "; ") in
  match target with
  | Request ->
      Protocol.parse_line (Json.to_line doc)
      |> Result.map ignore
      |> Result.map_error (fun e -> e.Protocol.message)
  | Reply -> Result.map ignore (Protocol.reply_of_json doc)
  | Shard (set, i) ->
      Result.map ignore
        (Merge.merge
           (List.mapi (fun j (label, d) -> (label, if i = j then doc else d)) set))
  | Log -> joined (Result.map ignore (Serve.Reqlog.lint [ Json.to_line doc ]))
  | Trace -> joined (Result.map ignore (Chrome_trace.lint doc))

(* The [n]th node (preorder, wrapping) satisfying [p] becomes [f node]. *)
let map_nth p f n doc =
  let rec count v =
    (if p v then 1 else 0)
    +
    match v with
    | Json.List xs -> List.fold_left (fun a x -> a + count x) 0 xs
    | Json.Obj kvs -> List.fold_left (fun a (_, x) -> a + count x) 0 kvs
    | _ -> 0
  in
  let total = count doc in
  if total = 0 then doc
  else
    let left = ref (n mod total) in
    let rec go v =
      if p v && (decr left; !left = -1) then f v
      else
        match v with
        | Json.List xs -> Json.List (List.map go xs)
        | Json.Obj kvs -> Json.Obj (List.map (fun (k, x) -> (k, go x)) kvs)
        | v -> v
    in
    go doc

type mutation = Drop of int * int | Add of int | Retype of int

let mutate m doc =
  let is_obj = function Json.Obj _ -> true | _ -> false in
  match m with
  | Drop (n, j) ->
      map_nth
        (function Json.Obj (_ :: _) -> true | _ -> false)
        (function
          | Json.Obj kvs ->
              Json.Obj (List.filteri (fun i _ -> i <> j mod List.length kvs) kvs)
          | v -> v)
        n doc
  | Add n ->
      map_nth is_obj
        (function Json.Obj kvs -> Json.Obj (kvs @ [ ("zz", Json.Int 1) ]) | v -> v)
        n doc
  | Retype n ->
      map_nth
        (fun _ -> true)
        (function
          | Json.Null -> Json.Bool false
          | Json.Bool _ -> Json.Int 1
          | Json.Int i -> Json.Str (string_of_int i)
          | Json.Float f -> Json.Str (string_of_float f)
          | Json.Str s -> Json.Int (String.length s)
          | Json.List _ -> Json.Obj []
          | Json.Obj _ -> Json.List [])
        n doc

let prop_decoders_total =
  let gen =
    QCheck.Gen.(
      let node = oneof [ return 0; int_bound 10_000 ] in
      pair (int_bound 10_000)
        (oneof
           [
             map2 (fun n j -> Drop (n, j)) node (int_bound 50);
             map (fun n -> Add n) node;
             map (fun n -> Retype n) node;
           ]))
  in
  let show (i, m) =
    Printf.sprintf "seed %d, %s" i
      (match m with
      | Drop (n, j) -> Printf.sprintf "drop member %d of object %d" j n
      | Add n -> Printf.sprintf "add zz to object %d" n
      | Retype n -> Printf.sprintf "retype node %d" n)
  in
  QCheck.Test.make ~name:"every decoder answers Ok/Error on mutated documents"
    ~count:400 (QCheck.make ~print:show gen) (fun (i, m) ->
      let seeds = Lazy.force fuzz_seeds in
      let target, doc = List.nth seeds (i mod List.length seeds) in
      let wire_root_add =
        m = Add 0 && match target with Request | Reply -> true | _ -> false
      in
      match decode target (mutate m doc) with
      | exception e ->
          QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)
      | Error msg when wire_root_add ->
          let has_sub s sub =
            let n = String.length s and k = String.length sub in
            let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
            at 0
          in
          has_sub msg "zz"
          || QCheck.Test.fail_reportf "added top-level key not named: %s" msg
      | Ok _ when wire_root_add ->
          QCheck.Test.fail_report "an added top-level key was accepted"
      | Ok _ | Error _ -> true)

let suite =
  [
    ("golden emit", `Quick, test_golden_emit);
    ("float format", `Quick, test_float_format);
    ("parse roundtrip", `Quick, test_parse_roundtrip);
    ("parse errors", `Quick, test_parse_errors);
    ("parse unicode escapes strictly", `Quick, test_parse_unicode_escape);
    ("diff identical", `Quick, test_diff_identical);
    ("diff tolerance", `Quick, test_diff_tolerance);
    ("diff structure", `Quick, test_diff_structure);
    ("diff serialization precision", `Quick, test_diff_serialization_precision);
    ("diff ignored keys", `Quick, test_diff_ignored_keys);
    ("diff ignored at depth", `Quick, test_diff_ignored_at_depth);
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_ignored_any_depth;
    QCheck_alcotest.to_alcotest prop_decoders_total;
  ]
