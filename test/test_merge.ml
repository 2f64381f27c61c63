(* Sharding and merge coverage: the I/N spec parser, the round-robin
   partition law (qcheck), shard-document plumbing on the experiments /
   space-audit emitters, and the merge tool's central contract — any
   order of a complete shard set recombines into bytes identical to the
   unsharded document, while incomplete, duplicated, overlapping, or
   mismatched sets fail with a pointed message. *)

open Experiments

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let seed = 424242

(* Cheap experiments only: e2/e5/e13 finish in milliseconds on quick. *)
let only = [ "e2"; "e5"; "e13" ]

let full_doc () =
  Json.of_results ~seed ~quick:true (Registry.results ~quick:true ~seed ~only ())

let shard_doc spec =
  let selected = Merge.assign spec only in
  Json.of_results
    ~shard:(spec.Merge.index, spec.Merge.count)
    ~seed ~quick:true
    (Registry.results ~quick:true ~seed ~only:selected ())

let shard_docs count =
  List.init count (fun index ->
      let spec = { Merge.index; count } in
      (Printf.sprintf "shard_%d.json" index, shard_doc spec))

(* Documents are cheap to tamper with in memory: replace one envelope
   field of a [Json.Obj]. *)
let set_field name value = function
  | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = name then (k, value) else (k, v)) fields)
  | doc -> doc

let expect_error ~substring docs =
  match Merge.merge docs with
  | Ok _ -> Alcotest.failf "merge unexpectedly succeeded (wanted %S)" substring
  | Error msg ->
      check
        (Printf.sprintf "error %S mentions %S" msg substring)
        true
        (let nh = String.length msg and nn = String.length substring in
         let rec at i =
           i + nn <= nh && (String.sub msg i nn = substring || at (i + 1))
         in
         at 0)

(* ------------------------------------------------------------- parser *)

let test_parse_valid () =
  (match Merge.parse_spec "0/3" with
  | Ok { Merge.index = 0; count = 3 } -> ()
  | _ -> Alcotest.fail "0/3 should parse");
  (match Merge.parse_spec "2/3" with
  | Ok { Merge.index = 2; count = 3 } -> ()
  | _ -> Alcotest.fail "2/3 should parse");
  (match Merge.parse_spec "0/1" with
  | Ok { Merge.index = 0; count = 1 } -> ()
  | _ -> Alcotest.fail "0/1 should parse");
  check_str "to_string round-trips" "2/3"
    (match Merge.parse_spec "2/3" with
    | Ok spec -> Merge.to_string spec
    | Error e -> e)

let test_parse_invalid () =
  let rejected ~mentions s =
    match Merge.parse_spec s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error msg ->
        check
          (Printf.sprintf "%S error mentions %S" s mentions)
          true
          (let nh = String.length msg and nn = String.length mentions in
           let rec at i =
             i + nn <= nh && (String.sub msg i nn = mentions || at (i + 1))
           in
           at 0);
        check (Printf.sprintf "%S error shows the format" s) true
          (let nn = String.length "I/N" and nh = String.length msg in
           let rec at i =
             i + nn <= nh && (String.sub msg i nn = "I/N" || at (i + 1))
           in
           at 0)
  in
  rejected ~mentions:"out of range" "3/3";
  rejected ~mentions:"out of range" "5/2";
  rejected ~mentions:"out of range" "-1/3";
  rejected ~mentions:"N must be >= 1" "0/0";
  rejected ~mentions:"N must be >= 1" "0/-2";
  rejected ~mentions:"malformed" "a/3";
  rejected ~mentions:"malformed" "1/b";
  rejected ~mentions:"malformed" "1";
  rejected ~mentions:"malformed" "";
  rejected ~mentions:"malformed" "1/2/3"

(* -------------------------------------------------- partition (qcheck) *)

let prop_partition =
  let gen = QCheck.Gen.(pair (int_range 1 6) (list_size (int_bound 20) int)) in
  QCheck.Test.make ~name:"round-robin sharding is a stable partition"
    ~count:200 (QCheck.make gen) (fun (count, items) ->
      let shards =
        List.init count (fun index -> Merge.assign { Merge.index; count } items)
      in
      (* Every position lands in exactly one shard... *)
      List.iteri
        (fun position _ ->
          let owners =
            List.length
              (List.filter
                 (fun index -> Merge.keeps { Merge.index; count } position)
                 (List.init count Fun.id))
          in
          if owners <> 1 then
            QCheck.Test.fail_reportf "position %d owned by %d shards" position
              owners)
        items;
      (* ...so the shard sizes add back up... *)
      List.length items = List.fold_left (fun n s -> n + List.length s) 0 shards
      (* ...and the assignment is stable across calls. *)
      && List.for_all2 ( = ) shards
           (List.init count (fun index ->
                Merge.assign { Merge.index; count } items)))

let prop_merge_any_order =
  (* Shard documents are built once; the property shuffles their order
     (including duplications-free permutations drawn from random swaps)
     and asserts the merged bytes never change. *)
  let full = lazy (Json.to_string (full_doc ())) in
  let docs2 = lazy (shard_docs 2) in
  let docs3 = lazy (shard_docs 3) in
  let docs4 = lazy (shard_docs 4) (* more shards than experiments *) in
  let gen = QCheck.Gen.(pair (oneofl [ 2; 3; 4 ]) (list_size (return 8) (int_bound 100))) in
  QCheck.Test.make ~name:"merging any shard order reproduces the unsharded bytes"
    ~count:60 (QCheck.make gen) (fun (count, swaps) ->
      let docs =
        Array.of_list
          (Lazy.force (match count with 2 -> docs2 | 3 -> docs3 | _ -> docs4))
      in
      let n = Array.length docs in
      List.iter
        (fun s ->
          let i = s mod n and j = s * 7 mod n in
          let t = docs.(i) in
          docs.(i) <- docs.(j);
          docs.(j) <- t)
        swaps;
      match Merge.merge (Array.to_list docs) with
      | Error msg -> QCheck.Test.fail_reportf "merge failed: %s" msg
      | Ok merged -> Json.to_string merged = Lazy.force full)

(* -------------------------------------------------- merge validation *)

let test_merge_identity_bytes () =
  (* The deterministic core of the tentpole, without the shuffling. *)
  let full = Json.to_string (full_doc ()) in
  List.iter
    (fun count ->
      match Merge.merge (shard_docs count) with
      | Error msg -> Alcotest.failf "merge N=%d failed: %s" count msg
      | Ok merged ->
          check_str
            (Printf.sprintf "N=%d merged = unsharded bytes" count)
            full (Json.to_string merged))
    [ 1; 2; 3 ]

let test_shard_field_present () =
  match shard_doc { Merge.index = 1; count = 2 } with
  | Json.Obj fields -> (
      match List.assoc_opt "shard" fields with
      | Some (Json.Obj s) ->
          check "shard.index" true (List.assoc "index" s = Json.Int 1);
          check "shard.of" true (List.assoc "of" s = Json.Int 2)
      | _ -> Alcotest.fail "sharded document must carry a shard object")
  | _ -> Alcotest.fail "document must be an object"

let test_merge_rejects_incomplete () =
  match shard_docs 3 with
  | [ s0; s1; _ ] -> expect_error ~substring:"missing shard(s) 2" [ s0; s1 ]
  | _ -> Alcotest.fail "expected three shards"

let test_merge_rejects_duplicate () =
  match shard_docs 2 with
  | [ s0; s1 ] -> expect_error ~substring:"duplicate shard 0/2" [ s0; s0; s1 ]
  | _ -> Alcotest.fail "expected two shards"

let test_merge_rejects_unsharded_input () =
  expect_error ~substring:"not a shard document"
    [ ("full.json", full_doc ()) ];
  (* A malformed provenance field is named by its JSON path. *)
  match shard_docs 2 with
  | [ s0; (label, d1) ] ->
      expect_error ~substring:"shard_1.json: shard.index: expected an int"
        [
          s0;
          ( label,
            set_field "shard"
              (Json.Obj [ ("index", Json.Str "1"); ("of", Json.Int 2) ])
              d1 );
        ]
  | _ -> Alcotest.fail "expected two shards"

let test_merge_rejects_empty () =
  expect_error ~substring:"no input" []

let test_merge_rejects_seed_mismatch () =
  match shard_docs 2 with
  | [ s0; (label, d1) ] ->
      expect_error ~substring:"seed"
        [ s0; (label, set_field "seed" (Json.Int 7) d1) ]
  | _ -> Alcotest.fail "expected two shards"

let test_merge_rejects_quick_mismatch () =
  match shard_docs 2 with
  | [ s0; (label, d1) ] ->
      expect_error ~substring:"quick"
        [ s0; (label, set_field "quick" (Json.Bool false) d1) ]
  | _ -> Alcotest.fail "expected two shards"

let test_merge_rejects_version_skew () =
  match shard_docs 2 with
  | [ s0; (label, d1) ] ->
      expect_error ~substring:"version skew"
        [ s0; (label, set_field "version" (Json.Int 99) d1) ]
  | _ -> Alcotest.fail "expected two shards"

let test_merge_rejects_kind_mismatch () =
  let audit =
    Space_audit.shard_to_json ~shard:(1, 2) ~seed ~quick:true
      (Space_audit.rows ~quick:true ~shard:(1, 2) ~seed ())
  in
  match shard_docs 2 with
  | [ s0; _ ] ->
      expect_error ~substring:"kind" [ s0; ("audit.json", audit) ]
  | _ -> Alcotest.fail "expected two shards"

let test_merge_rejects_unmergeable_kind () =
  (* Only the experiments and space-audit kinds merge: a complete,
     well-formed shard set of any other kind is rejected by kind. *)
  let bench index =
    ( Printf.sprintf "bench_%d.json" index,
      Json.Obj
        [
          ("kind", Json.Str "oqsc-bench");
          ("version", Json.Int 1);
          ("seed", Json.Int seed);
          ("quick", Json.Bool true);
          Merge.json_field { Merge.index; count = 2 };
          ( "kernels",
            Json.List
              [
                Json.Obj
                  [
                    ("name", Json.Str (Printf.sprintf "k%d" index));
                    ("ns_per_run", Json.Float 1.0);
                    ("r_square", Json.Float 1.0);
                  ];
              ] );
        ] )
  in
  match Merge.merge [ bench 0; bench 1 ] with
  | Ok _ -> Alcotest.fail "an oqsc-bench shard set merged"
  | Error msg ->
      check_str "the error lists only the mergeable kinds"
        "bench_0.json: unsupported document kind \"oqsc-bench\" (mergeable \
         kinds: oqsc-experiments, oqsc-space-audit)"
        msg

let test_merge_rejects_overlap () =
  (* Forge shard 1 out of shard 0's payload: indices complete, ids not
     disjoint. *)
  match shard_docs 2 with
  | [ ((_, d0) as s0); _ ] ->
      let forged =
        set_field "shard"
          (Json.Obj [ ("index", Json.Int 1); ("of", Json.Int 2) ])
          d0
      in
      expect_error ~substring:"overlapping shards" [ s0; ("forged.json", forged) ]
  | _ -> Alcotest.fail "expected two shards"

let test_merge_rejects_unknown_id () =
  match shard_docs 2 with
  | [ s0; (label, d1) ] ->
      let tampered =
        match d1 with
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (function
                   | "experiments", Json.List (Json.Obj e :: rest) ->
                       ( "experiments",
                         Json.List
                           (Json.Obj
                              (List.map
                                 (fun (k, v) ->
                                   if k = "id" then (k, Json.Str "e99")
                                   else (k, v))
                                 e)
                           :: rest) )
                   | kv -> kv)
                 fields)
        | doc -> doc
      in
      expect_error ~substring:"valid ids" [ s0; (label, tampered) ]
  | _ -> Alcotest.fail "expected two shards"

(* ------------------------------------------------------- space-audit *)

let test_audit_shard_rows_match_full_sweep () =
  let strip (r : Space_audit.row) = { r with Space_audit.wall_ms = 0.0 } in
  let full = List.map strip (Space_audit.rows ~quick:true ~seed ()) in
  let recombined =
    List.concat_map
      (fun index ->
        List.map strip (Space_audit.rows ~quick:true ~shard:(index, 2) ~seed ()))
      [ 0; 1 ]
    |> List.sort (fun (a : Space_audit.row) b ->
           compare a.Space_audit.k b.Space_audit.k)
  in
  (* Skipped rows burn their PRNG splits, so measured rows are the very
     rows the full sweep produces — the property merge relies on. *)
  check "sharded rows = full-sweep rows" true (full = recombined)

let test_audit_merge_identity_bytes () =
  let full =
    Json.to_string
      (Space_audit.to_json ~seed ~quick:true (Space_audit.audit ~quick:true ~seed ()))
  in
  let shard index =
    ( Printf.sprintf "sa_%d.json" index,
      Space_audit.shard_to_json ~shard:(index, 2) ~seed ~quick:true
        (Space_audit.rows ~quick:true ~shard:(index, 2) ~seed ()) )
  in
  match Merge.merge [ shard 1; shard 0 ] with
  | Error msg -> Alcotest.failf "audit merge failed: %s" msg
  | Ok merged ->
      check_str "merged audit = unsharded bytes" full (Json.to_string merged)

let test_audit_shard_doc_has_no_verdict () =
  match
    Space_audit.shard_to_json ~shard:(0, 2) ~seed ~quick:true
      (Space_audit.rows ~quick:true ~shard:(0, 2) ~seed ())
  with
  | Json.Obj fields ->
      check "no fit in a shard document" true (List.assoc_opt "fit" fields = None);
      check "no verdict in a shard document" true
        (List.assoc_opt "verdict" fields = None);
      check "shard field present" true (List.assoc_opt "shard" fields <> None)
  | _ -> Alcotest.fail "document must be an object"

(* ----------------------------------------------------- --only guard *)

let test_validate_only () =
  check "all valid ids pass" true (Registry.validate_only Registry.ids = Ok ());
  check "empty selection passes validation" true (Registry.validate_only [] = Ok ());
  match Registry.validate_only [ "e2"; "e99"; "nope" ] with
  | Ok () -> Alcotest.fail "unknown ids must be rejected"
  | Error msg ->
      let mentions sub =
        let nh = String.length msg and nn = String.length sub in
        let rec at i = i + nn <= nh && (String.sub msg i nn = sub || at (i + 1)) in
        at 0
      in
      check "names every offender" true (mentions "e99" && mentions "nope");
      check "lists the catalogue" true (mentions "valid ids" && mentions "e15")

let suite =
  [
    ("parse_spec accepts I/N", `Quick, test_parse_valid);
    ("parse_spec rejects malformed specs", `Quick, test_parse_invalid);
    ("merged bytes = unsharded bytes (N=1,2,3)", `Quick, test_merge_identity_bytes);
    ("shard provenance field emitted", `Quick, test_shard_field_present);
    ("merge rejects incomplete sets", `Quick, test_merge_rejects_incomplete);
    ("merge rejects duplicate shards", `Quick, test_merge_rejects_duplicate);
    ("merge rejects unsharded inputs", `Quick, test_merge_rejects_unsharded_input);
    ("merge rejects empty input", `Quick, test_merge_rejects_empty);
    ("merge rejects seed mismatch", `Quick, test_merge_rejects_seed_mismatch);
    ("merge rejects quick mismatch", `Quick, test_merge_rejects_quick_mismatch);
    ("merge rejects version skew", `Quick, test_merge_rejects_version_skew);
    ("merge rejects kind mismatch", `Quick, test_merge_rejects_kind_mismatch);
    ("merge rejects an unmergeable kind", `Quick, test_merge_rejects_unmergeable_kind);
    ("merge rejects overlapping payloads", `Quick, test_merge_rejects_overlap);
    ("merge rejects unknown experiment ids", `Quick, test_merge_rejects_unknown_id);
    ("audit shard rows match the full sweep", `Quick, test_audit_shard_rows_match_full_sweep);
    ("audit merge = unsharded bytes", `Quick, test_audit_merge_identity_bytes);
    ("audit shard documents defer the verdict", `Quick, test_audit_shard_doc_has_no_verdict);
    ("validate_only names offenders", `Quick, test_validate_only);
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_partition; prop_merge_any_order ]
