(* CLI-level coverage for the parallel experiment runner: --only
   filtering, JSON determinism across parallel/sequential execution, and
   the --check regression gate, exercised through the same library calls
   the binary makes (on --quick settings). *)

open Experiments

let check = Alcotest.(check bool)
let seed = 424242

(* Cheap experiments only: e2/e5/e13 finish in milliseconds on quick. *)
let only = [ "e2"; "e5"; "e13" ]
let run ?domains () = Registry.results ~quick:true ~seed ?domains ~only ()

let doc results = Json.to_string (Json.of_results ~seed ~quick:true results)

let test_only_order () =
  (* Catalogue order is preserved regardless of the order given. *)
  let rs = Registry.results ~quick:true ~seed ~only:[ "e13"; "e2" ] () in
  Alcotest.(check (list string)) "catalogue order" [ "e2"; "e13" ]
    (List.map (fun (r : Report.t) -> r.Report.id) rs)

let test_only_unknown () =
  check "unknown id raises before any work" true
    (match Registry.results ~quick:true ~seed ~only:[ "e2"; "e99" ] () with
    | exception Not_found -> true
    | _ -> false)

let test_json_deterministic () =
  Alcotest.(check string) "two runs, same bytes" (doc (run ())) (doc (run ()))

let test_parallel_equals_sequential () =
  Alcotest.(check string) "parallel = sequential, same bytes"
    (doc (run ~domains:1 ()))
    (doc (run ~domains:2 ()))

let test_results_shape () =
  List.iter
    (fun (r : Report.t) ->
      check (r.Report.id ^ " has a table") true (r.Report.body.Report.tables <> []);
      check (r.Report.id ^ " wall-clock recorded") true (r.Report.wall_ms >= 0.0);
      Alcotest.(check int) (r.Report.id ^ " seed recorded") seed r.Report.seed;
      List.iter
        (fun (tb : Report.table) ->
          List.iter
            (fun row ->
              Alcotest.(check int)
                (r.Report.id ^ " row arity")
                (List.length tb.Report.header)
                (List.length row))
            tb.Report.rows)
        r.Report.body.Report.tables)
    (run ())

let test_check_roundtrip () =
  let current = Json.of_results ~seed ~quick:true (run ()) in
  Alcotest.(check (list string)) "self-baseline passes" []
    (Json.diff ~tolerance:0.0 current current)

(* Multiply the first float leaf found by 1.5: a perturbed baseline. *)
let rec perturb = function
  | Json.Float f -> (Json.Float (f *. 1.5), true)
  | Json.Int i when i > 0 -> (Json.Int (i * 2), true)
  | Json.List items ->
      let items, changed =
        List.fold_left
          (fun (acc, changed) item ->
            if changed then (item :: acc, true)
            else
              let item, changed = perturb item in
              (item :: acc, changed))
          ([], false) items
      in
      (Json.List (List.rev items), changed)
  | Json.Obj fields ->
      let fields, changed =
        List.fold_left
          (fun (acc, changed) (k, v) ->
            if changed then ((k, v) :: acc, true)
            else
              let v, changed = perturb v in
              ((k, v) :: acc, changed))
          ([], false) fields
      in
      (Json.Obj (List.rev fields), changed)
  | v -> (v, false)

let test_check_detects_perturbation () =
  let current = Json.of_results ~seed ~quick:true (run ()) in
  let perturbed, changed = perturb current in
  check "found a numeric cell to perturb" true changed;
  check "perturbed baseline fails" true
    (Json.diff ~tolerance:5.0 perturbed current <> [])

let test_timing_flag_checks_cleanly () =
  (* A baseline written with --timing still gates a run without it. *)
  let results = run () in
  let with_timing = Json.of_results ~timing:true ~seed ~quick:true results in
  let without = Json.of_results ~seed ~quick:true results in
  Alcotest.(check (list string)) "wall_ms never compared" []
    (Json.diff ~tolerance:0.0 with_timing without)

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

(* An experiment's bytes do not depend on what else ran: each entry of
   the full quick document equals the one entry of that id's
   single-experiment document (what serve's run op and the golden
   --only pins emit). *)
let test_selection_independent () =
  let seed = 2006 in
  let entries doc =
    match doc with
    | Json.Obj fields -> (
        match List.assoc_opt "experiments" fields with
        | Some (Json.List entries) -> List.map Json.to_string entries
        | _ -> Alcotest.fail "document has no experiments list")
    | _ -> Alcotest.fail "document must be an object"
  in
  let full =
    entries (Json.of_results ~seed ~quick:true (Registry.results ~quick:true ~seed ()))
  in
  Alcotest.(check int) "one entry per id" (List.length Registry.ids) (List.length full);
  List.iter2
    (fun id entry ->
      Alcotest.(check (list string))
        (id ^ " entry = its single-id document's entry")
        [ entry ]
        (entries (Registry.document ~quick:true ~seed id)))
    Registry.ids full

let suite =
  [
    ("--only preserves catalogue order", `Quick, test_only_order);
    ("--only rejects unknown ids", `Quick, test_only_unknown);
    ("validate_only names offenders", `Quick, test_validate_only);
    ("entry bytes independent of the selection", `Quick, test_selection_independent);
    ("json deterministic across runs", `Quick, test_json_deterministic);
    ("parallel = sequential bytes", `Quick, test_parallel_equals_sequential);
    ("result shapes", `Quick, test_results_shape);
    ("--check self-baseline passes", `Quick, test_check_roundtrip);
    ("--check flags perturbation", `Quick, test_check_detects_perturbation);
    ("--timing baseline compatible", `Quick, test_timing_flag_checks_cleanly);
  ]
