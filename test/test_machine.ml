(* Tests for the OPTM substrate: workspace metering, stream one-wayness,
   machine semantics, configuration enumeration and censuses. *)

open Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------ workspace *)

let test_workspace_alloc_and_peaks () =
  let ws = Workspace.create () in
  let a = Workspace.alloc ws ~name:"a" ~bits:10 in
  let b = Workspace.alloc ws ~name:"b" ~bits:5 in
  check_int "current" 15 (Workspace.classical_bits ws);
  Workspace.free ws b;
  check_int "after free" 10 (Workspace.classical_bits ws);
  check_int "peak survives free" 15 (Workspace.peak_classical_bits ws);
  Workspace.set ws a 1023;
  check_int "get" 1023 (Workspace.get ws a)

let test_workspace_width_enforced () =
  let ws = Workspace.create () in
  let r = Workspace.alloc ws ~name:"r" ~bits:3 in
  Workspace.set ws r 7;
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Workspace.set: value 8 does not fit 3 bits (r)") (fun () ->
      Workspace.set ws r 8);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Workspace.set: value -1 does not fit 3 bits (r)") (fun () ->
      Workspace.set ws r (-1))

let test_workspace_duplicate_names () =
  let ws = Workspace.create () in
  let _ = Workspace.alloc ws ~name:"x" ~bits:1 in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Workspace.alloc: duplicate register name \"x\"") (fun () ->
      ignore (Workspace.alloc ws ~name:"x" ~bits:1))

let test_workspace_qubits_and_total () =
  let ws = Workspace.create () in
  let _ = Workspace.alloc ws ~name:"c" ~bits:8 in
  Workspace.alloc_qubits ws 5;
  check_int "qubits" 5 (Workspace.qubits ws);
  check_int "peak total" 13 (Workspace.peak_total_bits ws)

let test_workspace_snapshot_distinguishes () =
  let ws = Workspace.create () in
  let r = Workspace.alloc ws ~name:"r" ~bits:8 in
  Workspace.set ws r 5;
  let snap5 = Workspace.snapshot ws in
  Workspace.set ws r 6;
  let snap6 = Workspace.snapshot ws in
  check "different values, different snapshots" false (String.equal snap5 snap6);
  Workspace.set ws r 5;
  Alcotest.(check string) "same value, same snapshot" snap5 (Workspace.snapshot ws)

let test_workspace_flags_and_incr () =
  let ws = Workspace.create () in
  let f = Workspace.alloc_flag ws ~name:"f" in
  check "flag starts false" false (Workspace.get_flag ws f);
  Workspace.set_flag ws f true;
  check "flag set" true (Workspace.get_flag ws f);
  let c = Workspace.alloc ws ~name:"c" ~bits:4 in
  Workspace.incr ws c;
  Workspace.incr ws c;
  check_int "incr" 2 (Workspace.get ws c);
  Workspace.free ws c;
  Alcotest.check_raises "use after free" (Invalid_argument "Workspace.get: register freed")
    (fun () -> ignore (Workspace.get ws c))

(* ------------------------------------------------------------- bitstore *)

let test_workspace_name_reuse () =
  let ws = Workspace.create () in
  let a = Workspace.alloc ws ~name:"a" ~bits:4 in
  let _b = Workspace.alloc ws ~name:"b" ~bits:4 in
  Workspace.free ws a;
  let a' = Workspace.alloc ws ~name:"a" ~bits:6 in
  Workspace.set ws a' 63;
  check_int "the reused name is a fresh register" 63 (Workspace.get ws a');
  Alcotest.(check string) "snapshot lists live registers in allocation order"
    "b:4=0;a:6=63;" (Workspace.snapshot ws);
  Alcotest.check_raises "a live duplicate still raises"
    (Invalid_argument "Workspace.alloc: duplicate register name \"b\"") (fun () ->
      ignore (Workspace.alloc ws ~name:"b" ~bits:1));
  Alcotest.check_raises "so does the reallocated name"
    (Invalid_argument "Workspace.alloc: duplicate register name \"a\"") (fun () ->
      ignore (Workspace.alloc ws ~name:"a" ~bits:1))

let test_workspace_foreign_register () =
  let ws1 = Workspace.create () and ws2 = Workspace.create () in
  let r = Workspace.alloc ws1 ~name:"r" ~bits:4 in
  let own = Workspace.alloc ws2 ~name:"r" ~bits:4 in
  let invalid = Invalid_argument "Workspace: invalid register" in
  Alcotest.check_raises "get" invalid (fun () -> ignore (Workspace.get ws2 r));
  Alcotest.check_raises "set" invalid (fun () -> Workspace.set ws2 r 1);
  Alcotest.check_raises "free" invalid (fun () -> Workspace.free ws2 r);
  check_int "the other workspace's footprint is untouched" 4
    (Workspace.classical_bits ws2);
  check_int "nor its register" 0 (Workspace.get ws2 own);
  Workspace.set ws1 r 9;
  check_int "the owner still works" 9 (Workspace.get ws1 r)

let test_workspace_freed_register () =
  let ws = Workspace.create () in
  let r = Workspace.alloc ws ~name:"r" ~bits:4 in
  Workspace.free ws r;
  Alcotest.check_raises "get" (Invalid_argument "Workspace.get: register freed")
    (fun () -> ignore (Workspace.get ws r));
  Alcotest.check_raises "set" (Invalid_argument "Workspace.set: register freed")
    (fun () -> Workspace.set ws r 1);
  Alcotest.check_raises "incr" (Invalid_argument "Workspace.get: register freed")
    (fun () -> Workspace.incr ws r);
  Alcotest.check_raises "free" (Invalid_argument "Workspace.free: register already freed")
    (fun () -> Workspace.free ws r)

let test_workspace_width_edges () =
  let ws = Workspace.create () in
  let w = Workspace.alloc ws ~name:"w" ~bits:62 in
  Workspace.set ws w max_int;
  check_int "62 bits hold max_int" max_int (Workspace.get ws w);
  Alcotest.check_raises "62 bits reject -1"
    (Invalid_argument "Workspace.set: value -1 does not fit 62 bits (w)") (fun () ->
      Workspace.set ws w (-1));
  Alcotest.check_raises "62 bits reject min_int"
    (Invalid_argument
       (Printf.sprintf "Workspace.set: value %d does not fit 62 bits (w)" min_int))
    (fun () -> Workspace.set ws w min_int);
  check_int "a rejected value leaves the register alone" max_int (Workspace.get ws w);
  let f = Workspace.alloc ws ~name:"f" ~bits:1 in
  Workspace.set ws f 1;
  check_int "1 bit holds 1" 1 (Workspace.get ws f);
  Workspace.set ws f 0;
  check_int "1 bit holds 0" 0 (Workspace.get ws f);
  Alcotest.check_raises "1 bit rejects 2"
    (Invalid_argument "Workspace.set: value 2 does not fit 1 bits (f)") (fun () ->
      Workspace.set ws f 2);
  Alcotest.check_raises "1 bit rejects -1"
    (Invalid_argument "Workspace.set: value -1 does not fit 1 bits (f)") (fun () ->
      Workspace.set ws f (-1))

let test_bitstore_exact_footprint () =
  let ws = Workspace.create () in
  let _ = Bitstore.alloc ws ~name:"s" ~bits:100 in
  check_int "charged exactly 100" 100 (Workspace.classical_bits ws)

let test_bitstore_roundtrip () =
  let ws = Workspace.create () in
  let s = Bitstore.alloc ws ~name:"s" ~bits:130 in
  List.iter (fun i -> Bitstore.set s i true) [ 0; 61; 62; 123; 129 ];
  List.iter (fun i -> check (string_of_int i) true (Bitstore.get s i)) [ 0; 61; 62; 123; 129 ];
  check "unset bit" false (Bitstore.get s 64);
  Bitstore.set s 62 false;
  check "cleared" false (Bitstore.get s 62);
  Bitstore.clear s;
  check "all cleared" false (Bitstore.get s 0);
  Alcotest.check_raises "oob" (Invalid_argument "Bitstore: index out of bounds")
    (fun () -> ignore (Bitstore.get s 130))

(* --------------------------------------------------------------- stream *)

let test_stream_sequential () =
  let s = Stream.of_string "01#" in
  Alcotest.(check (option char)) "0" (Some '0')
    (Option.map Symbol.to_char (Stream.next s));
  Alcotest.(check (option char)) "1" (Some '1')
    (Option.map Symbol.to_char (Stream.next s));
  check_int "pos" 2 (Stream.pos s);
  Alcotest.(check (option char)) "#" (Some '#')
    (Option.map Symbol.to_char (Stream.next s));
  check "eof" true (Stream.next s = None);
  check "still eof" true (Stream.next s = None)

(* A run of strings served through [of_chunks]. *)
let chunked pieces =
  let rest = ref pieces in
  Stream.of_chunks (fun () ->
      match !rest with
      | [] -> None
      | piece :: more ->
          rest := more;
          Some piece)

(* [split str cuts] cuts [str] at the positions in [cuts] (any order,
   clamped to its length); a repeated cut gives an empty string. *)
let split str cuts =
  let n = String.length str in
  let cuts = List.sort compare (List.map (fun c -> Int.max 0 (Int.min n c)) cuts) in
  let rec go from = function
    | [] -> [ String.sub str from (n - from) ]
    | c :: more -> String.sub str from (c - from) :: go c more
  in
  go 0 cuts

let test_stream_of_chunks () =
  let asked = ref 0 in
  let source pieces =
    let rest = ref pieces in
    fun () ->
      incr asked;
      match !rest with
      | [] -> None
      | piece :: more ->
          rest := more;
          Some piece
  in
  let s = Stream.of_chunks (source [ ""; "01"; ""; "#1"; "x0" ]) in
  check "a word stops at the end of its string" true (Stream.next_bits s 62 = (0b10, 2));
  check "empty strings are skipped" true (Stream.next s = Some Symbol.Hash);
  check "the rest of that string" true (Stream.next_bits s 62 = (1, 1));
  check_int "pos counts across strings" 4 (Stream.pos s);
  check "stops before a bad character first in a string" true
    (Stream.next_bits s 62 = (0, 0));
  Alcotest.check_raises "next raises at it"
    (Invalid_argument "Symbol.of_char: x not in {0,1,#}") (fun () ->
      ignore (Stream.next s));
  check_int "pos at the bad character" 4 (Stream.pos s);
  asked := 0;
  let e = Stream.of_chunks (source [ "1"; "" ]) in
  let count = ref 0 in
  Stream.iter (fun _ -> incr count) e;
  check_int "iter drains" 1 !count;
  check "end" true (Stream.next e = None && Stream.next_bits e 62 = (0, 0));
  check_int "the source is not asked again after its None" 3 !asked;
  (* A callback may read on from the stream it is called from. *)
  let reentrant s =
    let b = Buffer.create 8 in
    Stream.iter
      (fun c ->
        Buffer.add_char b (Symbol.to_char c);
        Buffer.add_char b (match Stream.next s with Some c -> Symbol.to_char c | None -> '.'))
      s;
    Buffer.contents b
  in
  Alcotest.(check string) "iter's callback reads across strings"
    (reentrant (Stream.of_string "0#1#0"))
    (reentrant (chunked [ "0#"; "1"; "#0" ]))

(* Everything a consumer sees of a stream: [prefix] calls to [next]
   with the position after each, then a resumed [iter] (with the
   position inside the callback), then the final position.  A bad
   character ends the run with its message, and the position it left
   is the last entry. *)
let observe_stream ~prefix s =
  let seen = ref [] in
  let note x = seen := x :: !seen in
  let sym c = String.make 1 (Symbol.to_char c) in
  (try
     for _ = 1 to prefix do
       note (match Stream.next s with Some c -> sym c | None -> "eof");
       note (string_of_int (Stream.pos s))
     done;
     note "resume";
     Stream.iter (fun c -> note (sym c ^ string_of_int (Stream.pos s))) s
   with Invalid_argument m -> note m);
  note (string_of_int (Stream.pos s));
  List.rev !seen

(* The outcome of one [next], with an error as its text. *)
let next_outcome s =
  match Stream.next s with
  | sym -> Ok (Option.map Symbol.to_char sym)
  | exception Invalid_argument m -> Error m

(* Reads [chunked (split str cuts)] by [next_bits], with the [maxes]
   in turn (then 62), and by [next] whenever a word is empty, as
   [A1.drive] does.  Every word must be the pair [of_string] gives on
   the rest of the string the read starts in (a word may stop at a
   string's end, and nowhere else that [of_string] would not), every
   symbol and error the one [of_string] gives on the rest of the
   input, and [pos] must follow. *)
let chunks_agree str cuts maxes =
  let n = String.length str in
  let ends =
    List.rev
      (snd
         (List.fold_left
            (fun (at, ends) piece ->
              let at = at + String.length piece in
              (at, if piece = "" then ends else at :: ends))
            (0, []) (split str cuts)))
  in
  let rest_from p stop = Stream.of_string (String.sub str p (stop - p)) in
  let s = chunked (split str cuts) in
  let rec go maxes =
    let max, more = match maxes with m :: more -> (m, more) | [] -> (62, []) in
    let p = Stream.pos s in
    let stop = Option.value ~default:n (List.find_opt (fun e -> e > p) ends) in
    let ((_, len) as word) = Stream.next_bits s max in
    if word <> Stream.next_bits (rest_from p stop) max || Stream.pos s <> p + len then false
    else if len > 0 || max < 1 then go more
    else
      match (next_outcome s, next_outcome (rest_from p n)) with
      | (Ok (Some _) as got), want -> got = want && Stream.pos s = p + 1 && go more
      | (Ok None as got), want -> got = want && Stream.pos s = n
      | (Error _ as got), want -> got = want && Stream.pos s = p && next_outcome s = got
  in
  go maxes

let stream_qcheck_tests =
  let open QCheck in
  (* A string and cuts in it, with one before its first bad character
     when [at_bad], so a string can start with one. *)
  let with_cuts str =
    Gen.(
      let* cuts = list_size (0 -- 6) (0 -- String.length str) and* at_bad = bool in
      return
        (match String.index_opt str 'x' with
        | Some i when at_bad -> i :: cuts
        | _ -> cuts))
  in
  let print_cuts str cuts =
    Printf.sprintf "%S cut at %s" str (String.concat " " (List.map string_of_int cuts))
  in
  let iter_case =
    make
      ~print:(fun (str, cuts, prefix) ->
        Printf.sprintf "%s, prefix %d" (print_cuts str cuts) prefix)
      Gen.(
        let* str = string_size ~gen:(oneofl [ '0'; '1'; '#'; 'x' ]) (0 -- 40) in
        let* cuts = with_cuts str and* prefix = 0 -- 45 in
        return (str, cuts, prefix))
  in
  (* Bit runs of up to 40 between '#', 'x' or '\xb1', so a cut falls
     inside an eight-byte load as often as not. *)
  let words_case =
    make
      ~print:(fun (str, cuts, maxes) ->
        Printf.sprintf "%s, max %s" (print_cuts str cuts)
          (String.concat " " (List.map string_of_int maxes)))
      Gen.(
        let segment =
          let* run = string_size ~gen:(oneofl [ '0'; '1' ]) (0 -- 40) in
          let* stop = oneofl [ ""; "#"; "#"; "x"; "\xb1" ] in
          return (run ^ stop)
        in
        let* str = map (String.concat "") (list_size (1 -- 4) segment) in
        let* cuts = with_cuts str and* maxes = list_size (0 -- 12) (-1 -- 70) in
        return (str, cuts, maxes))
  in
  (* Drains a stream the way A1.drive does: a run of bits, up to the
     next of [maxes], while there is one, else one symbol through
     [next].  Returns the symbols read, the error that ended the run (or
     "eof") and the final position. *)
  let drain_by_bits maxes s =
    let out = Buffer.create 16 in
    let rec go maxes =
      let max, rest = match maxes with m :: rest -> (m, rest) | [] -> (62, []) in
      let bits, len = Stream.next_bits s max in
      if len > Int.max 0 (Int.min max Stream.max_bits) || bits lsr len <> 0 then
        Alcotest.failf "next_bits %d returned (%d, %d)" max bits len;
      for i = 0 to len - 1 do
        Buffer.add_char out (if (bits lsr i) land 1 = 1 then '1' else '0')
      done;
      if len > 0 then go rest
      else
        match Stream.next s with
        | Some c ->
            Buffer.add_char out (Symbol.to_char c);
            go rest
        | None -> ()
    in
    let ending = try go maxes; "eof" with Invalid_argument m -> m in
    (Buffer.contents out, ending, Stream.pos s)
  in
  let by_symbol s =
    let out = Buffer.create 16 in
    let ending =
      try Stream.iter (fun c -> Buffer.add_char out (Symbol.to_char c)) s; "eof"
      with Invalid_argument m -> m
    in
    (Buffer.contents out, ending, Stream.pos s)
  in
  let bits_case =
    pair
      (string_gen_of_size Gen.(0 -- 150) (Gen.oneofl [ '0'; '1'; '1'; '0'; '#'; 'x' ]))
      (list_of_size Gen.(0 -- 8) (int_range (-1) 70))
  in
  (* Runs of up to 140 bits with one '#' or bad character somewhere, so
     the string reader's eight-byte loads are reached, cut short by
     [max] and by the non-bit; the first [max] of 1..7 starts every
     later read off a multiple of 8.  '\xb1' is '1' with the top bit
     set, the bit a 63-bit int drops from the eighth byte. *)
  let long_run_case =
    let gen =
      Gen.(
        let* n = 0 -- 140 in
        let* run = string_size ~gen:(oneofl [ '0'; '1' ]) (return n) in
        let* at = 0 -- n and* stop = oneofl [ "#"; "x"; "\xb1" ] in
        let* first = 1 -- 7 and* maxes = list_size (0 -- 8) (-1 -- 70) in
        return
          ( String.sub run 0 at ^ stop ^ String.sub run at (n - at),
            first :: maxes ))
    in
    make
      ~print:(fun (str, maxes) ->
        Printf.sprintf "%S, max %s" str
          (String.concat " " (List.map string_of_int maxes)))
      gen
  in
  [
    Test.make ~name:"stream of_chunks = of_string, iter" ~count:300 iter_case
      (fun (str, cuts, prefix) ->
        observe_stream ~prefix (chunked (split str cuts))
        = observe_stream ~prefix (Stream.of_string str));
    Test.make ~name:"stream of_chunks = of_string, words" ~count:500 words_case
      (fun (str, cuts, maxes) -> chunks_agree str cuts maxes);
    Test.make ~name:"stream next_bits = next, on of_string and of_chunks" ~count:300
      (pair bits_case (list_of_size Gen.(0 -- 6) (int_bound 150)))
      (fun ((str, maxes), cuts) ->
        let reference = by_symbol (Stream.of_string str) in
        drain_by_bits maxes (Stream.of_string str) = reference
        && drain_by_bits maxes (chunked (split str cuts)) = reference);
    Test.make ~name:"stream next_bits = next, on long bit runs" ~count:500
      long_run_case (fun (str, maxes) ->
        drain_by_bits maxes (Stream.of_string str) = by_symbol (Stream.of_string str));
  ]

let test_stream_bad_char_position () =
  let s = Stream.of_string "01x1" in
  let seen = ref 0 in
  Alcotest.check_raises "iter raises"
    (Invalid_argument "Symbol.of_char: x not in {0,1,#}") (fun () ->
      Stream.iter (fun _ -> incr seen) s);
  check_int "symbols before it" 2 !seen;
  check_int "pos stays at the bad character" 2 (Stream.pos s);
  Alcotest.check_raises "next raises again"
    (Invalid_argument "Symbol.of_char: x not in {0,1,#}") (fun () ->
      ignore (Stream.next s))

let test_stream_next_bits () =
  let s = Stream.of_string "0110#1x" in
  check "the whole run" true (Stream.next_bits s 62 = (0b0110, 4));
  check_int "pos after the run" 4 (Stream.pos s);
  check "stops before '#'" true (Stream.next_bits s 62 = (0, 0));
  check "'#' is next" true (Stream.next s = Some Symbol.Hash);
  check "max 0 reads nothing" true (Stream.next_bits s 0 = (0, 0));
  check "stops before a bad character" true (Stream.next_bits s 62 = (1, 1));
  check_int "pos at the bad character" 6 (Stream.pos s);
  let long = Stream.of_string (String.make 100 '1') in
  check "at most max_bits" true (Stream.next_bits long 100 = (max_int, 62));
  check "at most max" true (Stream.next_bits long 3 = (0b111, 3))

let test_bitstore_words () =
  let ws = Workspace.create () in
  let s = Bitstore.alloc ws ~name:"s" ~bits:130 in
  (* A run across the register boundary at 62, and one ending at the
     last bit; bits outside a run are left alone. *)
  Bitstore.write s 60 ~len:5 0b10111;
  Bitstore.write s 125 ~len:5 (-1);
  check_int "read back" 0b10111 (Bitstore.read s 60 ~len:5);
  check_int "read the tail" 0b11111 (Bitstore.read s 125 ~len:5);
  check "bit 62 via get" true (Bitstore.get s 62);
  check "bit 63 via get" false (Bitstore.get s 63);
  check_int "wider read" (0b10111 lsl 2) (Bitstore.read s 58 ~len:62);
  Bitstore.write s 61 ~len:2 0;
  check_int "partial overwrite" 0b10001 (Bitstore.read s 60 ~len:5);
  List.iter
    (fun (i, len) ->
      Alcotest.check_raises (Printf.sprintf "read %d ~len:%d" i len)
        (Invalid_argument "Bitstore: index out of bounds") (fun () ->
          ignore (Bitstore.read s i ~len)))
    [ (126, 5); (-1, 2); (0, 0); (0, 63) ]

let test_symbol_conversions () =
  Alcotest.(check char) "one" '1' (Symbol.to_char (Symbol.of_char '1'));
  Alcotest.(check char) "hash" '#' (Symbol.to_char (Symbol.of_char '#'));
  check "bit of one" true (Symbol.to_bit Symbol.One = Some true);
  check "bit of hash" true (Symbol.to_bit Symbol.Hash = None);
  Alcotest.check_raises "bad char" (Invalid_argument "Symbol.of_char: x not in {0,1,#}")
    (fun () -> ignore (Symbol.of_char 'x'));
  Alcotest.(check string) "roundtrip list" "01#10"
    (Symbol.to_string (Symbol.of_string "01#10"))

(* ----------------------------------------------------------------- optm *)

let test_machines_validate () =
  Optm.validate Machines.parity;
  Optm.validate Machines.fair_coin;
  Optm.validate (Machines.copy_then_compare ~m:4);
  Optm.validate Machines.remember_first

let test_parity_machine () =
  List.iter
    (fun (input, expected) ->
      let verdict, stats = Optm.run_deterministic Machines.parity input in
      check input true (verdict = Some expected);
      check "halts" true stats.Optm.halted)
    [ ("", true); ("1", false); ("11", true); ("0110", true); ("10101", false); ("0#0", true) ]

let test_fair_coin_statistics () =
  let rng = Mathx.Rng.create 3 in
  let p = Optm.acceptance_probability ~trials:2000 Machines.fair_coin rng "" in
  check "about one half" true (Float.abs (p -. 0.5) < 0.05)

let test_fair_coin_is_probabilistic () =
  Alcotest.check_raises "deterministic run rejects branching"
    (Invalid_argument "Optm.run_deterministic: machine is probabilistic") (fun () ->
      ignore (Optm.run_deterministic Machines.fair_coin ""))

let test_copy_then_compare_semantics () =
  let m = Machines.copy_then_compare ~m:4 in
  List.iter
    (fun (input, expected) ->
      let verdict, _ = Optm.run_deterministic m input in
      check input true (verdict = Some expected))
    [
      ("0110#0110", true);
      ("0110#0111", false);
      ("0110#011", false);
      ("0110#01101", false);
      ("#", true);  (* empty block equals empty block *)
      ("0110", false);  (* no separator *)
      ("0#0", true);
      ("1#0", false);
    ]

let test_remember_first_semantics () =
  let m = Machines.remember_first in
  List.iter
    (fun (input, expected) ->
      let verdict, _ = Optm.run_deterministic m input in
      check input true (verdict = Some expected))
    [ ("11", true); ("10", false); ("1", true); ("0110", true); ("0111", false); ("010", true) ]

let test_space_accounting () =
  let _, stats = Optm.run_deterministic (Machines.copy_then_compare ~m:6) "010101#010101" in
  (* Sentinel + 6 stored bits. *)
  check "work cells ~ block length" true
    (stats.Optm.peak_work_cells >= 7 && stats.Optm.peak_work_cells <= 9);
  let _, stats_parity = Optm.run_deterministic Machines.parity "101010" in
  check "parity uses O(1) cells" true (stats_parity.Optm.peak_work_cells <= 1)

let test_reachable_configs_deterministic_line () =
  (* A deterministic machine visits exactly one configuration per step. *)
  let configs = Optm.reachable_configs Machines.parity "1010" in
  check_int "5 configs (one per position incl. start)" 5 (List.length configs)

let test_configs_at_cut_copy_machine () =
  (* Over all inputs u#u with |u| = 3, the configurations at the cut just
     after '#' are pairwise distinct: the machine must remember u. *)
  let m = Machines.copy_then_compare ~m:3 in
  let seen = Hashtbl.create 8 in
  for v = 0 to 7 do
    let u = String.init 3 (fun i -> if v lsr i land 1 = 1 then '1' else '0') in
    let input = u ^ "#" ^ u in
    List.iter
      (fun (c : Optm.config) ->
        Hashtbl.replace seen (c.Optm.state, c.Optm.work_pos, c.Optm.work) ())
      (Optm.configs_at_cut m input ~cut:4)
  done;
  check_int "2^3 distinct configurations" 8 (Hashtbl.length seen)

let test_fact22_bound () =
  (* The bound must dominate any measured census. *)
  let bound = Optm.fact_2_2_log2_bound ~n:9 ~s:5 ~states:4 in
  check "bound above measured" true (bound >= 3.0)

let test_nonhalting_is_cut_off () =
  let spin =
    {
      Optm.name = "spin";
      num_states = 1;
      start_state = 0;
      delta =
        (fun ~state:_ ~input:_ ~work ->
          Optm.Branch
            [
              ( { Optm.next_state = 0; write = work; work_move = Optm.Stay;
                  advance_input = false; emit = None },
                1.0 );
            ]);
    }
  in
  let verdict, stats = Optm.run_deterministic ~max_steps:100 spin "1" in
  check "no verdict" true (verdict = None);
  check "did not halt" false stats.Optm.halted

(* --------------------------------------------------------------- census *)

let test_census_accumulator () =
  let c = Census.create () in
  Census.record c ~cut:3 "a";
  Census.record c ~cut:3 "b";
  Census.record c ~cut:3 "a";
  Census.record c ~cut:7 "z";
  check_int "distinct at 3" 2 (Census.distinct c ~cut:3);
  check_int "distinct at 7" 1 (Census.distinct c ~cut:7);
  check_int "unseen cut" 0 (Census.distinct c ~cut:99);
  Alcotest.(check (list int)) "cuts" [ 3; 7 ] (Census.cuts c);
  Alcotest.(check (float 1e-9)) "log2 at 3" 1.0 (Census.log2_distinct c ~cut:3);
  Alcotest.(check (float 1e-9)) "total bits" 1.0 (Census.total_protocol_bits c);
  Alcotest.(check (float 1e-9)) "max bits" 1.0 (Census.max_cut_bits c)

let suite =
  [
    ("workspace alloc/peaks", `Quick, test_workspace_alloc_and_peaks);
    ("workspace width enforced", `Quick, test_workspace_width_enforced);
    ("workspace duplicate names", `Quick, test_workspace_duplicate_names);
    ("workspace qubits", `Quick, test_workspace_qubits_and_total);
    ("workspace snapshots", `Quick, test_workspace_snapshot_distinguishes);
    ("workspace flags/incr/free", `Quick, test_workspace_flags_and_incr);
    ("workspace name reuse after free", `Quick, test_workspace_name_reuse);
    ("workspace foreign register", `Quick, test_workspace_foreign_register);
    ("workspace freed register", `Quick, test_workspace_freed_register);
    ("workspace width edges", `Quick, test_workspace_width_edges);
    ("bitstore exact footprint", `Quick, test_bitstore_exact_footprint);
    ("bitstore roundtrip", `Quick, test_bitstore_roundtrip);
    ("stream sequential", `Quick, test_stream_sequential);
    ("stream of_chunks", `Quick, test_stream_of_chunks);
    ("stream bad character position", `Quick, test_stream_bad_char_position);
    ("symbol conversions", `Quick, test_symbol_conversions);
    ("machines validate", `Quick, test_machines_validate);
    ("parity machine", `Quick, test_parity_machine);
    ("fair coin statistics", `Quick, test_fair_coin_statistics);
    ("fair coin branching", `Quick, test_fair_coin_is_probabilistic);
    ("copy-then-compare", `Quick, test_copy_then_compare_semantics);
    ("remember-first", `Quick, test_remember_first_semantics);
    ("space accounting", `Quick, test_space_accounting);
    ("reachable configs", `Quick, test_reachable_configs_deterministic_line);
    ("configs at cut", `Quick, test_configs_at_cut_copy_machine);
    ("fact 2.2 bound", `Quick, test_fact22_bound);
    ("non-halting cut off", `Quick, test_nonhalting_is_cut_off);
    ("census accumulator", `Quick, test_census_accumulator);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) stream_qcheck_tests
  @ [
      ("stream next_bits", `Quick, test_stream_next_bits);
      ("bitstore words", `Quick, test_bitstore_words);
    ]
