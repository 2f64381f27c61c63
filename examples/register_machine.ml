(* Writing your own online Turing machine with the register-program
   language, and watching the compiler turn it into tape-level reality.

   The program below accepts inputs whose number of 1s is divisible by 3
   — a language a DFA does with 3 states; doing it with a binary counter
   shows register arithmetic living on the work tape of the compiled
   machine.

   Run with:  dune exec examples/register_machine.exe *)

open Machine

let mod3_ones =
  (* Registers: 0 counter, 1 the constant 3 (reused as scratch zero at
     the end). *)
  {
    Program.name = "ones-mod-3";
    width = 3;
    registers = 2;
    code =
      [|
        (* 0 *) Program.Set { reg = 1; value = 3; next = 1 };
        (* 1 *) Program.Read { on_zero = 1; on_one = 2; on_hash = 1; on_eof = 5 };
        (* 2 *) Program.Inc { reg = 0; next = 3 };
        (* 3 *) Program.Jump_if_eq { reg_a = 0; reg_b = 1; if_eq = 4; if_ne = 1 };
        (* 4 *) Program.Reset { reg = 0; next = 1 };
        (* 5: accept iff counter = 0 *)
        Program.Reset { reg = 1; next = 6 };
        (* 6 *) Program.Jump_if_eq { reg_a = 0; reg_b = 1; if_eq = 7; if_ne = 8 };
        (* 7 *) Program.Accept;
        (* 8 *) Program.Reject;
      |];
  }

let () =
  Program.validate mod3_ones;
  let compiled = Program.compile mod3_ones in
  Printf.printf "program: %d instructions -> compiled OPTM with %d control states\n\n"
    (Array.length mod3_ones.Program.code)
    (Program.states compiled);

  Printf.printf "%-14s %-10s %-10s %-8s %s\n" "input" "interp" "compiled" "steps" "tape cells";
  List.iter
    (fun input ->
      let reference = Program.interpret mod3_ones input in
      let verdict, stats = Program.run compiled input in
      let show = function Some true -> "accept" | Some false -> "reject" | None -> "spin" in
      Printf.printf "%-14s %-10s %-10s %-8d %d\n"
        (Printf.sprintf "%S" input)
        (show reference.Program.verdict)
        (show verdict) stats.Optm.steps stats.Optm.peak_work_cells)
    [ ""; "1"; "111"; "110111"; "111111"; "10101#01" ];

  (* The tape really holds the binary counter: inspect the configuration
     right after the machine scans the 5th symbol of "11111". *)
  (match Optm.config_at_cut_deterministic (Program.machine compiled) "11111" ~cut:4 with
  | Some c ->
      Printf.printf
        "\nat the 5th symbol of \"11111\": control state %d, work tape %S\n\
         (cells 0-2: the counter, LSB first — 3 ones counted, just reset to 0;\n\
         \ cells 3-5: the constant 3 = \"110\")\n"
        c.Optm.state c.Optm.work
  | None -> ());
  print_endline
    "\nthe same Program API produced the A1-shape and fingerprint machines of experiment E15."
