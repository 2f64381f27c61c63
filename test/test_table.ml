(* Tests for the table renderer and the experiment registry plumbing. *)

let check = Alcotest.(check bool)

let render ~title ~header rows =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Experiments.Table.print fmt ~title ~header rows;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_alignment () =
  let out =
    render ~title:"t" ~header:[ "a"; "long-header"; "c" ]
      [ [ "1"; "2"; "3" ]; [ "wide-cell"; "x"; "y" ] ]
  in
  let lines = String.split_on_char '\n' out in
  let data_lines =
    List.filter
      (fun l ->
        String.length l > 0 && (String.length l < 2 || String.sub l 0 2 <> "=="))
      lines
  in
  (* Header and both data rows render at equal width (trailing pad). *)
  match data_lines with
  | header :: _sep :: r1 :: r2 :: _ ->
      check "rows equal width" true
        (String.length r1 = String.length r2 && String.length header = String.length r1)
  | _ -> Alcotest.fail "unexpected table layout"

(* Exact-bytes golden: column widths, two-space gutter, trailing pad,
   title and separator lines.  A renderer change must update this
   deliberately (EXPERIMENTS.md quotes this format verbatim). *)
let test_golden () =
  let out =
    render ~title:"t" ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let expected = "\n== t ==\na    bb\n-------\n1    2 \n333  4 \n" in
  Alcotest.(check string) "golden table" expected out

let test_golden_cells () =
  (* The Report cell -> text mapping the table renderer consumes. *)
  Alcotest.(check string) "null" "-" (Experiments.Report.to_text Experiments.Report.null);
  Alcotest.(check string) "bool" "true"
    (Experiments.Report.to_text (Experiments.Report.bool true));
  Alcotest.(check string) "int" "42"
    (Experiments.Report.to_text (Experiments.Report.int 42));
  Alcotest.(check string) "float default" "3.142"
    (Experiments.Report.to_text (Experiments.Report.float 3.14159));
  Alcotest.(check string) "float custom text" "3.14"
    (Experiments.Report.to_text
       (Experiments.Report.float ~text:"3.14" 3.14159));
  Alcotest.(check string) "prob" "0.250"
    (Experiments.Report.to_text (Experiments.Report.prob 0.25))

let test_arity_guard () =
  Alcotest.check_raises "short row rejected"
    (Invalid_argument "Table.print: row arity mismatch") (fun () ->
      ignore (render ~title:"t" ~header:[ "a"; "b" ] [ [ "only-one" ] ]))

let test_formatters () =
  Alcotest.(check string) "float" "3.142" (Experiments.Table.fmt_float 3.14159);
  Alcotest.(check string) "prob" "0.250" (Experiments.Table.fmt_prob 0.25)

let test_registry_unknown_id () =
  check "result raises Not_found" true
    (match
       Experiments.Report.render Format.str_formatter
         (Experiments.Registry.result "e99")
     with
    | exception Not_found -> true
    | () -> false)

let test_registry_ids_well_formed () =
  List.iteri
    (fun i id -> check id true (id = Printf.sprintf "e%d" (i + 1)))
    Experiments.Registry.ids

let suite =
  [
    ("alignment", `Quick, test_alignment);
    ("golden render", `Quick, test_golden);
    ("golden cells", `Quick, test_golden_cells);
    ("arity guard", `Quick, test_arity_guard);
    ("formatters", `Quick, test_formatters);
    ("registry unknown id", `Quick, test_registry_unknown_id);
    ("registry id scheme", `Quick, test_registry_ids_well_formed);
  ]
