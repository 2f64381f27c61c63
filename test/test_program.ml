(* Tests for the register-program language and its Turing-machine
   compiler: interpreter semantics, compiler/interpreter agreement
   (including on the output tape), and the tape-level properties of the
   compiled machines. *)

open Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let verdict_str = function Some true -> "accept" | Some false -> "reject" | None -> "diverge"

let agree p input =
  let reference = Program.interpret p input in
  let machine = Program.compile p in
  let (verdict, _), output = Program.run_with_output machine input in
  Alcotest.(check string)
    (Printf.sprintf "verdict on %S" input)
    (verdict_str reference.Program.verdict)
    (verdict_str verdict);
  Alcotest.(check string)
    (Printf.sprintf "output on %S" input)
    reference.Program.output output

(* ---------------------------------------------------------- interpreter *)

let test_interpret_parity () =
  List.iter
    (fun (input, expected) ->
      let r = Program.interpret Program.parity input in
      check input true (r.Program.verdict = Some expected))
    [ ("", true); ("1", false); ("11", true); ("0101", true); ("111", false) ]

let test_interpret_registers_wrap () =
  (* Width-1 register: two increments return to zero. *)
  let r = Program.interpret Program.parity "11" in
  check_int "wrapped to 0" 0 r.Program.final_registers.(0)

let test_interpret_run_length () =
  let p = Program.run_length_equal ~width:4 in
  List.iter
    (fun (input, expected) ->
      let r = Program.interpret p input in
      check input true (r.Program.verdict = Some expected))
    [
      ("111#111", true); ("11#111", false); ("#", true); ("1#", false);
      ("0", false); ("111#1111", false);
    ]

let test_interpret_emits () =
  let r = Program.interpret Program.beacon "101" in
  Alcotest.(check string) "two beacons" "0#1#00#1#0" r.Program.output

let test_interpret_step_cap () =
  let spin =
    { Program.name = "spin"; width = 1; registers = 1; code = [| Program.Goto 0 |] }
  in
  let r = Program.interpret ~max_steps:50 spin "" in
  check "diverges" true (r.Program.verdict = None)

let test_validate_rejects () =
  let bad target =
    { Program.name = "bad"; width = 1; registers = 1; code = [| Program.Goto target |] }
  in
  check "bad target" true
    (match Program.validate (bad 5) with exception Failure _ -> true | () -> false);
  let bad_reg =
    {
      Program.name = "badreg"; width = 1; registers = 1;
      code = [| Program.Inc { reg = 3; next = 0 } |];
    }
  in
  check "bad register" true
    (match Program.validate bad_reg with exception Failure _ -> true | () -> false)

(* ------------------------------------------------------------- compiler *)

let test_compiled_machines_validate () =
  let decoded p = Program.machine (Program.compile p) in
  Optm.validate (decoded Program.parity);
  Optm.validate (decoded (Program.run_length_equal ~width:3));
  Optm.validate (decoded Program.beacon)

let test_compiler_agrees_on_catalogue () =
  List.iter (agree Program.parity) [ ""; "1"; "11"; "10101"; "1#1#"; "0000" ];
  List.iter
    (agree (Program.run_length_equal ~width:4))
    [ "111#111"; "11#111"; "#"; "1#"; "111111#111111"; "0"; "1111#111" ];
  List.iter (agree Program.beacon) [ ""; "1"; "101"; "111" ]

let test_compiled_space_is_registers_times_width () =
  let p = Program.run_length_equal ~width:5 in
  let machine = Program.compile p in
  let _, stats = Program.run machine "1111#1111" in
  (* 2 registers x 5 bits; the head may step one past the last field. *)
  check "tape = register file" true
    (stats.Optm.peak_work_cells >= 5 && stats.Optm.peak_work_cells <= 11)

let test_compiled_counter_on_tape () =
  (* After counting 5 ones, register 0 holds binary 101 on the tape. *)
  let p = Program.run_length_equal ~width:3 in
  let machine = Program.machine (Program.compile p) in
  let configs = Optm.configs_at_cut machine "11111#11111" ~cut:6 in
  match configs with
  | [ c ] ->
      (* LSB first: 5 = 101 -> cells "101". *)
      Alcotest.(check string) "binary counter on tape" "101"
        (String.sub (c.Optm.work ^ "___") 0 3)
  | other -> Alcotest.failf "expected one cut config, got %d" (List.length other)

let test_deterministic_cut_matches_bfs () =
  (* The linear fast path and the exhaustive BFS find the same cut
     configuration on deterministic machines. *)
  let machine = Program.machine (Program.compile (Program.run_length_equal ~width:3)) in
  for a = 0 to 5 do
    let run = String.make a '1' in
    let input = run ^ "#" ^ run in
    let bfs = Optm.configs_at_cut machine input ~cut:(a + 1) in
    let fast = Optm.config_at_cut_deterministic machine input ~cut:(a + 1) in
    match (bfs, fast) with
    | [ c ], Some c' -> check (Printf.sprintf "a=%d" a) true (c = c')
    | [], None -> ()
    | _ -> Alcotest.fail "fast path disagrees with BFS"
  done

let test_census_is_polynomial () =
  (* Over 1^a#1^a for a = 0..7, the cut census is exactly 8: one
     configuration per counter value — log-cost messages, unlike the
     copy machine's 2^m. *)
  let p = Program.run_length_equal ~width:3 in
  let machine = Program.machine (Program.compile p) in
  let seen = Hashtbl.create 16 in
  for a = 0 to 7 do
    let run = String.make a '1' in
    List.iter
      (fun (c : Optm.config) ->
        Hashtbl.replace seen (c.Optm.state, c.Optm.work_pos, c.Optm.work) ())
      (Optm.configs_at_cut machine (run ^ "#" ^ run) ~cut:(a + 1))
  done;
  check_int "census = family size" 8 (Hashtbl.length seen)

let test_compiled_states_reported () =
  let states p = Program.states (Program.compile p) in
  check "parity compiles small" true (states Program.parity < 20);
  (* Bit-compare walks are O(width) states per bit, so the control grows
     quadratically in the register width. *)
  check "growth is at most quadratic" true
    (states (Program.run_length_equal ~width:8)
    <= 16 * states (Program.run_length_equal ~width:2))

(* The compiled transition table against the slow reference that
   re-derives each micro-step: same state count, and the same step for
   every state and every (input, work) pair.  A micro-state that looked
   at both symbols would break the table's four-entries-per-state layout
   and show up here. *)
let all_inputs = [ None; Some Symbol.Zero; Some Symbol.One; Some Symbol.Hash ]

let all_works =
  [ Symbol.Blank; Symbol.Sym Symbol.Zero; Symbol.Sym Symbol.One; Symbol.Sym Symbol.Hash ]

(* The first state whose step differs between [compile p]'s table and
   [compile_reference p], or a state-count mismatch. *)
let table_mismatch p =
  let fast = Program.machine (Program.compile p) and slow = Program.compile_reference p in
  if fast.Optm.num_states <> slow.Optm.num_states then
    Some
      (Printf.sprintf "%d states, reference %d" fast.Optm.num_states slow.Optm.num_states)
  else
    let differs state =
      List.exists
        (fun input ->
          List.exists
            (fun work -> fast.Optm.delta ~state ~input ~work <> slow.Optm.delta ~state ~input ~work)
            all_works)
        all_inputs
    in
    Seq.find differs (Seq.init fast.Optm.num_states Fun.id)
    |> Option.map (Printf.sprintf "delta differs in state %d")

let check_table_matches p =
  Option.iter (Alcotest.failf "%s: %s" p.Program.name) (table_mismatch p)

let test_table_matches_reference () =
  List.iter
    (fun p ->
      check_table_matches p;
      let fast = Program.machine (Program.compile p) in
      check (p.Program.name ^ " rejects a state past the table") true
        (match
           fast.Optm.delta ~state:fast.Optm.num_states ~input:None ~work:Symbol.Blank
         with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      Program.parity;
      Program.run_length_equal ~width:5;
      Program.beacon;
      Program.fingerprint_eq ~p:17 ~t:3;
      Program.ldisj_shape ~width:7;
    ]

(* The compiler keys micro-states on ints: the moves field is as wide as
   the register file's cell count needs and the pc sits above it, below
   the sign bit.  At width 1 and four instructions (two pc bits) a file of
   2^48 cells just fits, and the pc reaches bit 61; one more cell or one
   more instruction does not fit and is refused, naming the program.  No
   step walks past register 1, so each compiles in microseconds. *)
let limit_probe ~registers ~len =
  let code =
    [|
      Program.Inc { reg = 0; next = 1 };
      Program.Add { dst = 1; src = 0; next = 2 };
      Program.Jump_if_lt { reg_a = 1; reg_b = 0; if_lt = 3; if_ge = len - 1 };
    |]
  in
  {
    Program.name = Printf.sprintf "limit-r%d-l%d" registers len;
    width = 1;
    registers;
    code = Array.append code (Array.make (len - 3) Program.Accept);
  }

let test_key_limit () =
  let inside = limit_probe ~registers:(1 lsl 48) ~len:4 in
  check_table_matches inside;
  check "inside compiles" true (Program.states (Program.compile inside) > 4);
  List.iter
    (fun p ->
      match Program.compile p with
      | _ -> Alcotest.failf "%s compiled past the key's limit" p.Program.name
      | exception Failure msg ->
          check (Printf.sprintf "%S names the program" msg) true
            (String.starts_with ~prefix:("Program " ^ p.Program.name ^ ":") msg))
    [
      limit_probe ~registers:((1 lsl 48) + 1) ~len:4;
      limit_probe ~registers:(1 lsl 48) ~len:5;
      limit_probe ~registers:max_int ~len:4;
    ]

(* After a warm-up, compiling the 11,492-state A1 machine promotes little
   besides its table (four words per state): the enumeration's index and
   stack are flat int arrays, and the micro-state decoded at each visit
   dies young. *)
let test_compile_promotes_its_table () =
  let p = Program.ldisj_shape ~width:7 in
  ignore (Program.compile p);
  Gc.minor ();
  let _, before, _ = Gc.counters () in
  let c = Program.compile p in
  let _, after, _ = Gc.counters () in
  let table = 4 * Program.states c in
  let promoted = after -. before in
  if promoted >= 2.0 *. float_of_int table then
    Alcotest.failf "compile promoted %.0f words for a %d-word table" promoted table

(* ------------------------------------------------------ arithmetic ops *)

let arith_probe ~width code =
  { Program.name = "probe"; width; registers = 3; code }

let run_regs p input =
  (Program.interpret p input).Program.final_registers

let test_set_add_sub_semantics () =
  let p =
    arith_probe ~width:5
      [|
        Program.Set { reg = 0; value = 13; next = 1 };
        Program.Set { reg = 1; value = 7; next = 2 };
        Program.Add { dst = 0; src = 1; next = 3 };
        Program.Sub { dst = 0; src = 1; next = 4 };
        Program.Accept;
      |]
  in
  let regs = run_regs p "" in
  check_int "13 + 7 - 7" 13 regs.(0);
  (* Wrap-around. *)
  let p2 =
    arith_probe ~width:3
      [|
        Program.Set { reg = 0; value = 6; next = 1 };
        Program.Set { reg = 1; value = 5; next = 2 };
        Program.Add { dst = 0; src = 1; next = 3 };
        Program.Accept;
      |]
  in
  check_int "6 + 5 mod 8" 3 (run_regs p2 "").(0);
  let p3 =
    arith_probe ~width:3
      [|
        Program.Set { reg = 0; value = 2; next = 1 };
        Program.Set { reg = 1; value = 5; next = 2 };
        Program.Sub { dst = 0; src = 1; next = 3 };
        Program.Accept;
      |]
  in
  check_int "2 - 5 mod 8" 5 (run_regs p3 "").(0)

let test_jump_if_lt () =
  let make a b =
    arith_probe ~width:4
      [|
        Program.Set { reg = 0; value = a; next = 1 };
        Program.Set { reg = 1; value = b; next = 2 };
        Program.Jump_if_lt { reg_a = 0; reg_b = 1; if_lt = 3; if_ge = 4 };
        Program.Accept;
        Program.Reject;
      |]
  in
  List.iter
    (fun (a, b) ->
      let expected = a < b in
      let r = Program.interpret (make a b) "" in
      check (Printf.sprintf "interp %d < %d" a b) true (r.Program.verdict = Some expected);
      let v, _ = Program.run (Program.compile (make a b)) "" in
      check (Printf.sprintf "compiled %d < %d" a b) true (v = Some expected))
    [ (0, 0); (0, 1); (1, 0); (7, 8); (8, 7); (15, 15); (5, 13); (13, 5) ]

let test_arith_compiled_matches_interpreter () =
  (* Random (a, b) through Set/Add/Sub on both backends. *)
  let rng = Mathx.Rng.create 85 in
  for _ = 1 to 30 do
    let a = Mathx.Rng.int rng 32 and b = Mathx.Rng.int rng 32 in
    let p =
      arith_probe ~width:6
        [|
          Program.Set { reg = 0; value = a; next = 1 };
          Program.Set { reg = 1; value = b; next = 2 };
          Program.Add { dst = 0; src = 1; next = 3 };
          Program.Add { dst = 0; src = 0; next = 4 };  (* doubling: dst = src *)
          Program.Sub { dst = 0; src = 1; next = 5 };
          Program.Accept;
        |]
    in
    let expected = (((a + b) * 2) - b) land 63 in
    check_int "interp" expected (run_regs p "").(0);
    let machine = Program.compile p in
    let v, _ = Program.run machine "" in
    check "compiled accepts" true (v = Some true);
    (* Read the register straight off the final tape. *)
    let configs = Optm.reachable_configs (Program.machine machine) "" in
    let final =
      List.fold_left
        (fun acc (c : Optm.config) -> if c.Optm.state > acc.Optm.state then acc else c)
        (List.hd configs) configs
    in
    ignore final
  done

(* ---------------------------------------------------------- ldisj shape *)

let test_ldisj_shape_agrees_with_scanner () =
  let machine = Program.compile (Program.ldisj_shape ~width:7) in
  let rng = Mathx.Rng.create 87 in
  for k = 1 to 2 do
    for _ = 1 to 8 do
      let base =
        (Lang.Instance.disjoint_pair (Mathx.Rng.split rng) ~k).Lang.Instance.input
      in
      let cases =
        [
          base;
          String.sub base 0 (String.length base - 1);
          base ^ "0";
          (let b = Bytes.of_string base in
           Bytes.set b (Mathx.Rng.int rng (String.length base))
             [| '0'; '1'; '#' |].(Mathx.Rng.int rng 3);
           Bytes.to_string b);
        ]
      in
      List.iter
        (fun input ->
          let expect = Lang.Ldisj.well_shaped input in
          let v, _ = Program.run ~max_steps:2_000_000 machine input in
          check (Printf.sprintf "k=%d len=%d" k (String.length input)) true
            (v = Some expect))
        cases
    done
  done

let test_ldisj_shape_space_logarithmic () =
  let machine = Program.compile (Program.ldisj_shape ~width:7) in
  let rng = Mathx.Rng.create 88 in
  let cells k =
    let input = (Lang.Instance.disjoint_pair rng ~k).Lang.Instance.input in
    let _, stats = Program.run ~max_steps:5_000_000 machine input in
    stats.Optm.peak_work_cells
  in
  let c1 = cells 1 and c3 = cells 3 in
  (* n grows ~50x from k=1 to k=3; the tape must not. *)
  check_int "same register file" c1 c3;
  check "O(log n) cells" true (c3 <= 71)

let test_ldisj_shape_rejects_oversized_k () =
  (* Width 5 caps k at 2; a k=3 claim must be rejected by the guard, not
     wrap silently. *)
  let machine = Program.compile (Program.ldisj_shape ~width:5) in
  let rng = Mathx.Rng.create 89 in
  let input = (Lang.Instance.disjoint_pair rng ~k:3).Lang.Instance.input in
  let v, _ = Program.run ~max_steps:2_000_000 machine input in
  check "overflow guard rejects" true (v = Some false)

(* ---------------------------------------------------------- fingerprint *)

let reference_fingerprint ~p ~t u =
  let acc = ref 0 and pw = ref 1 in
  String.iter
    (fun c ->
      if c = '1' then acc := (!acc + !pw) mod p;
      pw := !pw * t mod p)
    u;
  !acc

let test_fingerprint_machine_semantics () =
  let p = 17 and t = 3 in
  let prog = Program.fingerprint_eq ~p ~t in
  let machine = Program.compile prog in
  Optm.validate (Program.machine machine);
  let rng = Mathx.Rng.create 86 in
  for _ = 1 to 25 do
    let len = Mathx.Rng.int rng 6 in
    let word () =
      String.init len (fun _ -> if Mathx.Rng.bool rng then '1' else '0')
    in
    let u = word () and v = word () in
    let input = u ^ "#" ^ v in
    let expected =
      reference_fingerprint ~p ~t u = reference_fingerprint ~p ~t v
    in
    let vi = (Program.interpret ~max_steps:10_000_000 prog input).Program.verdict in
    check (Printf.sprintf "interp %s" input) true (vi = Some expected);
    let vc, _ = Program.run machine input in
    check (Printf.sprintf "compiled %s" input) true (vc = Some expected)
  done

let test_fingerprint_census_is_sketch_sized () =
  (* Over all u of length 5, the census at '#' stays far below 2^5 —
     bounded by the distinct (acc, pow) sketch values. *)
  let machine = Program.machine (Program.compile (Program.fingerprint_eq ~p:17 ~t:3)) in
  let seen = Hashtbl.create 64 in
  for v = 0 to 31 do
    let u = String.init 5 (fun i -> if v lsr i land 1 = 1 then '1' else '0') in
    match Optm.config_at_cut_deterministic machine (u ^ "#" ^ u) ~cut:6 with
    | Some c -> Hashtbl.replace seen (c.Optm.state, c.Optm.work_pos, c.Optm.work) ()
    | None -> ()
  done;
  check "census collapses" true (Hashtbl.length seen < 32)

(* Well-formed random programs over every instruction kind.  Most jump
   targets point forward and only a [Read] that consumes a symbol may
   jump anywhere, so most programs halt; one target in eight is
   arbitrary, so some loop forever. *)
let program_gen =
  let open QCheck.Gen in
  let* width = int_range 1 4 in
  let* registers = int_range 1 4 in
  let* len = int_range 2 12 in
  let reg = int_bound (registers - 1) in
  let anywhere = int_bound (len - 1) in
  let forward pc = frequency [ (7, int_range (pc + 1) (len - 1)); (1, anywhere) ] in
  let instr pc =
    if pc = len - 1 then oneofl [ Program.Accept; Program.Reject ]
    else
      let next = forward pc in
      frequency
        [
          ( 3,
            let+ on_zero = anywhere and+ on_one = anywhere and+ on_hash = anywhere
            and+ on_eof = next in
            Program.Read { on_zero; on_one; on_hash; on_eof } );
          (2, let+ reg = reg and+ next = next in Program.Inc { reg; next });
          (1, let+ reg = reg and+ next = next in Program.Reset { reg; next });
          ( 1,
            let+ reg = reg and+ value = int_bound ((1 lsl width) - 1) and+ next = next in
            Program.Set { reg; value; next } );
          (1, let+ dst = reg and+ src = reg and+ next = next in Program.Add { dst; src; next });
          (1, let+ dst = reg and+ src = reg and+ next = next in Program.Sub { dst; src; next });
          ( 1,
            let+ reg_a = reg and+ reg_b = reg and+ if_eq = next and+ if_ne = next in
            Program.Jump_if_eq { reg_a; reg_b; if_eq; if_ne } );
          ( 1,
            let+ reg_a = reg and+ reg_b = reg and+ if_lt = next and+ if_ge = next in
            Program.Jump_if_lt { reg_a; reg_b; if_lt; if_ge } );
          ( 1,
            let+ reg = reg and+ if_max = next and+ if_not = next in
            Program.Jump_if_max { reg; if_max; if_not } );
          ( 1,
            let+ symbol = oneofl [ '0'; '1'; '#' ] and+ next = next in
            Program.Emit { symbol; next } );
          (1, map (fun next -> Program.Goto next) next);
          (1, oneofl [ Program.Accept; Program.Reject ]);
        ]
  in
  let rec code pc acc =
    if pc < 0 then return (Array.of_list acc)
    else
      let* i = instr pc in
      code (pc - 1) (i :: acc)
  in
  let+ code = code (len - 1) [] in
  { Program.name = "random"; width; registers; code }

let show_instr = function
  | Program.Read { on_zero; on_one; on_hash; on_eof } ->
      Printf.sprintf "read 0->%d 1->%d #->%d eof->%d" on_zero on_one on_hash on_eof
  | Program.Inc { reg; next } -> Printf.sprintf "inc r%d ->%d" reg next
  | Program.Reset { reg; next } -> Printf.sprintf "reset r%d ->%d" reg next
  | Program.Set { reg; value; next } -> Printf.sprintf "set r%d %d ->%d" reg value next
  | Program.Add { dst; src; next } -> Printf.sprintf "add r%d r%d ->%d" dst src next
  | Program.Sub { dst; src; next } -> Printf.sprintf "sub r%d r%d ->%d" dst src next
  | Program.Jump_if_eq { reg_a; reg_b; if_eq; if_ne } ->
      Printf.sprintf "eq r%d r%d ->%d/%d" reg_a reg_b if_eq if_ne
  | Program.Jump_if_lt { reg_a; reg_b; if_lt; if_ge } ->
      Printf.sprintf "lt r%d r%d ->%d/%d" reg_a reg_b if_lt if_ge
  | Program.Jump_if_max { reg; if_max; if_not } ->
      Printf.sprintf "max r%d ->%d/%d" reg if_max if_not
  | Program.Emit { symbol; next } -> Printf.sprintf "emit %c ->%d" symbol next
  | Program.Goto next -> Printf.sprintf "goto %d" next
  | Program.Accept -> "accept"
  | Program.Reject -> "reject"

let show_program (p : Program.t) =
  Printf.sprintf "width %d, %d registers: %s" p.Program.width p.Program.registers
    (String.concat "; "
       (List.mapi (fun pc i -> Printf.sprintf "%d: %s" pc (show_instr i))
          (Array.to_list p.Program.code)))

(* Interpreter step cap, and the compiled machine's cap per interpreter
   step: no instruction takes more than [w] round trips across a
   register file of [registers * w] cells. *)
let interpret_cap = 2_000
let micro_steps_per_step (p : Program.t) =
  let w = p.Program.width in
  4 * w * ((p.Program.registers * w) + 2)

(* [Program.run] against the simulator on the decoded view: the same
   verdict, stats, output and [optm.*] records, or the same exception. *)
let differential_programs =
  [
    Program.parity;
    Program.run_length_equal ~width:5;
    Program.beacon;
    Program.fingerprint_eq ~p:17 ~t:3;
    Program.ldisj_shape ~width:5;
    Program.ldisj_shape ~width:7;
  ]

let differential_machines = lazy (Array.of_list (List.map Program.compile differential_programs))

(* Members of L_DISJ's shape at k = 1, 2, so the shape machines also run
   long accepting paths, not only early rejections. *)
let shape_members =
  lazy
    (let rng = Mathx.Rng.create 92 in
     List.init 4 (fun i ->
         (Lang.Instance.disjoint_pair (Mathx.Rng.split rng) ~k:(1 + (i land 1))).Lang.Instance.input))

let observed run =
  let sink = Obs.create () in
  let result =
    match Obs.Scope.with_sink sink run with
    | r -> Ok r
    | exception Invalid_argument msg -> Error msg
  in
  ( result,
    Obs.count sink "optm.runs",
    Obs.count sink "optm.steps",
    Obs.gauge_level sink "optm.work_cells",
    Obs.gauge_peak sink "optm.work_cells" )

let stepper_matches_simulator (index, input, max_steps) =
  let compiled = (Lazy.force differential_machines).(index) in
  let machine = Program.machine compiled in
  observed (fun () -> Program.run ?max_steps compiled input)
  = observed (fun () -> Optm.run_deterministic ?max_steps machine input)
  && observed (fun () -> Program.run_with_output ?max_steps compiled input)
     = observed (fun () -> Optm.run_deterministic_with_output ?max_steps machine input)

let differential_case =
  let open QCheck.Gen in
  let symbol = oneofl [ '0'; '1'; '#' ] in
  let* index = int_bound (List.length differential_programs - 1) in
  let* base =
    frequency
      [
        (3, string_size ~gen:symbol (int_bound 40));
        (1, oneofl (Lazy.force shape_members));
      ]
  in
  let* input =
    frequency
      [
        (3, return base);
        ( 1,
          let+ pos = int_bound (String.length base) and+ bad = oneofl [ 'x'; '2'; ' '; '\n' ] in
          if pos = String.length base then base ^ String.make 1 bad
          else String.mapi (fun i c -> if i = pos then bad else c) base );
      ]
  in
  let+ max_steps = frequency [ (3, return None); (1, map Option.some (int_bound 300)) ] in
  (index, input, max_steps)

let show_case (index, input, max_steps) =
  Printf.sprintf "%s on %S, max_steps %s" (List.nth differential_programs index).Program.name
    input
    (match max_steps with None -> "default" | Some n -> string_of_int n)

let test_run_allocates_per_run () =
  (* The stepper allocates its tape, the stats and the result, never a
     step: a run of 421,471 steps allocates a few dozen words. *)
  let machine = Program.compile (Program.ldisj_shape ~width:7) in
  let input =
    (Lang.Instance.disjoint_pair (Mathx.Rng.create 93) ~k:3).Lang.Instance.input
  in
  ignore (Program.run machine input);
  let before = Gc.minor_words () in
  let v, stats = Program.run machine input in
  let words = Gc.minor_words () -. before in
  check "accepts" true (v = Some true);
  check "a long run" true (stats.Optm.steps > 400_000);
  if words > 1_000.0 then
    Alcotest.failf "%.0f minor words over %d steps" words stats.Optm.steps

let qcheck_tests =
  let open QCheck in
  let input_gen =
    string_gen_of_size (Gen.int_range 0 30) (Gen.oneofl [ '0'; '1'; '#' ])
  in
  let program_and_input =
    make
      ~print:(fun (p, input) -> Printf.sprintf "%s on %S" (show_program p) input)
      Gen.(pair program_gen (string_size ~gen:(oneofl [ '0'; '1'; '#' ]) (int_bound 12)))
  in
  [
    Test.make ~name:"table stepper = simulator on the decoded view" ~count:400
      (make ~print:show_case differential_case)
      stepper_matches_simulator;
    Test.make ~name:"compiled table = reference on random programs" ~count:300
      (make ~print:show_program program_gen)
      (fun p ->
        match table_mismatch p with
        | None -> true
        | Some why -> Test.fail_report why);
    Test.make ~name:"compiled random program = interpreter" ~count:300 ~max_gen:1_000
      ~if_assumptions_fail:(`Fatal, 0.5) program_and_input
      (fun (p, input) ->
        let reference = Program.interpret ~max_steps:interpret_cap p input in
        let machine = Program.compile p in
        match reference.Program.verdict with
        | None ->
            (* Every instruction is at least one machine step, so the
               machine cannot halt within the interpreter's cap either.
               The case is checked, then discarded: it is no pass. *)
            let (v, _), _ =
              Program.run_with_output ~max_steps:interpret_cap machine input
            in
            if v <> None then Test.fail_report "machine halts where the interpreter diverges";
            assume_fail ()
        | Some _ ->
            let (v, _), output =
              Program.run_with_output
                ~max_steps:(interpret_cap * micro_steps_per_step p)
                machine input
            in
            v = reference.Program.verdict && String.equal output reference.Program.output);
    Test.make ~name:"compiled parity = interpreter on random inputs" ~count:150
      input_gen
      (fun input ->
        let reference = Program.interpret Program.parity input in
        let v, _ = Program.run (Program.compile Program.parity) input in
        v = reference.Program.verdict);
    Test.make ~name:"compiled run-length = interpreter on random inputs" ~count:100
      input_gen
      (fun input ->
        let p = Program.run_length_equal ~width:5 in
        let reference = Program.interpret p input in
        let v, _ = Program.run (Program.compile p) input in
        v = reference.Program.verdict);
    Test.make ~name:"compiled beacon output = interpreter output" ~count:100
      input_gen
      (fun input ->
        let reference = Program.interpret Program.beacon input in
        let (_, _), out = Program.run_with_output (Program.compile Program.beacon) input in
        out = reference.Program.output);
  ]

let suite =
  [
    ("interpret parity", `Quick, test_interpret_parity);
    ("registers wrap", `Quick, test_interpret_registers_wrap);
    ("interpret run-length", `Quick, test_interpret_run_length);
    ("interpret emits", `Quick, test_interpret_emits);
    ("interpret step cap", `Quick, test_interpret_step_cap);
    ("validate rejects", `Quick, test_validate_rejects);
    ("compiled machines validate", `Quick, test_compiled_machines_validate);
    ("compiler agrees with interpreter", `Quick, test_compiler_agrees_on_catalogue);
    ("compiled space = register file", `Quick, test_compiled_space_is_registers_times_width);
    ("binary counter on the tape", `Quick, test_compiled_counter_on_tape);
    ("census is polynomial", `Quick, test_census_is_polynomial);
    ("deterministic cut = BFS", `Quick, test_deterministic_cut_matches_bfs);
    ("compiled state counts", `Quick, test_compiled_states_reported);
    ("transition table = reference", `Quick, test_table_matches_reference);
    ("stepper allocates per run", `Quick, test_run_allocates_per_run);
    ("micro-state key limit", `Quick, test_key_limit);
    ("compile promotes its table", `Quick, test_compile_promotes_its_table);
    ("set/add/sub semantics", `Quick, test_set_add_sub_semantics);
    ("jump_if_lt", `Quick, test_jump_if_lt);
    ("arith compiled = interpreter", `Quick, test_arith_compiled_matches_interpreter);
    ("ldisj shape = scanner", `Slow, test_ldisj_shape_agrees_with_scanner);
    ("ldisj shape space", `Quick, test_ldisj_shape_space_logarithmic);
    ("ldisj shape overflow guard", `Quick, test_ldisj_shape_rejects_oversized_k);
    ("fingerprint machine", `Slow, test_fingerprint_machine_semantics);
    ("fingerprint census", `Slow, test_fingerprint_census_is_sketch_sized);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
