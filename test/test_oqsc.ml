(* Tests for the paper's core algorithms: A1, A2, A3, the combined
   Theorem 3.4 recognizer, amplification, and the classical baselines. *)

open Mathx

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let feed_string a1 s =
  String.fold_left (fun acc c -> Oqsc.A1.feed a1 (Machine.Symbol.of_char c) :: acc) [] s
  |> List.rev

(* ------------------------------------------------------------------- A1 *)

let test_a1_accepts_wellformed () =
  let rng = Rng.create 40 in
  for k = 1 to 3 do
    let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
    let ws = Machine.Workspace.create () in
    let a1 = Oqsc.A1.create ws in
    ignore (feed_string a1 inst.Lang.Instance.input);
    check (Printf.sprintf "k=%d ok" k) true (Oqsc.A1.finished_ok a1);
    check "k detected" true (Oqsc.A1.k a1 = Some k)
  done

let test_a1_roles_sequence_k1 () =
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let roles = feed_string a1 "1#01" in
  match roles with
  | [ Oqsc.A1.Prefix_one; Oqsc.A1.Prefix_sep;
      Oqsc.A1.Block_bits { rep = 0; seg = Oqsc.A1.X; idx = 0; bits = 0; len = 1 };
      Oqsc.A1.Block_bits { rep = 0; seg = Oqsc.A1.X; idx = 1; bits = 1; len = 1 } ] ->
      ()
  | _ -> Alcotest.fail "unexpected role sequence"

let test_a1_role_progression () =
  (* Drive a full k=1 input and verify rep/seg counters advance. *)
  let input = "1#0101#0000#0101#0101#0000#0101#" in
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let seps =
    List.filter_map
      (function Oqsc.A1.Block_sep { rep; seg } -> Some (rep, seg) | _ -> None)
      (feed_string a1 input)
  in
  Alcotest.(check int) "6 block separators" 6 (List.length seps);
  check "last sep is rep1/Z" true
    (List.nth seps 5 = (1, Oqsc.A1.Z));
  check "finished" true (Oqsc.A1.finished_ok a1)

let test_a1_rejects_malformed () =
  let cases =
    [
      "#1010";  (* no 1-run *)
      "0#";  (* starts with 0 *)
      "1#010";  (* short block *)
      "1#01011";  (* long block, no separator *)
      "1#0101#0000#0101#";  (* only one repetition of two *)
      "1#0101#0000#0101#0101#0000#0101##";  (* trailing garbage *)
    ]
  in
  List.iter
    (fun input ->
      let ws = Machine.Workspace.create () in
      let a1 = Oqsc.A1.create ws in
      ignore (feed_string a1 input);
      check input false (Oqsc.A1.finished_ok a1))
    cases

let test_a1_latches_failure () =
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  ignore (feed_string a1 "0");
  check "failed" true (Oqsc.A1.failed a1);
  (* Everything after a failure is Bad. *)
  check "bad role" true (Oqsc.A1.feed a1 Machine.Symbol.One = Oqsc.A1.Bad)

let test_a1_space_is_logarithmic () =
  (* A1's registers are a fixed set of counters: the footprint must not
     depend on the input length. *)
  let footprint k =
    let rng = Rng.create (50 + k) in
    let inst = Lang.Instance.disjoint_pair rng ~k in
    let ws = Machine.Workspace.create () in
    let a1 = Oqsc.A1.create ws in
    ignore (feed_string a1 inst.Lang.Instance.input);
    Machine.Workspace.peak_classical_bits ws
  in
  check_int "same footprint k=1 vs k=4" (footprint 1) (footprint 4)

let test_a1_rejects_oversized_k () =
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  ignore (feed_string a1 (String.make (Oqsc.A1.max_k + 1) '1'));
  check "too-long 1-run fails" true (Oqsc.A1.failed a1)

(* Cross-validation: the streaming A1 and the offline shape scanner are
   two independent implementations of condition (i); they must agree on
   everything we can throw at them. *)
let a1_verdict input =
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  ignore (feed_string a1 input);
  Oqsc.A1.finished_ok a1

let test_a1_drive () =
  (* Procedures that record every role they observe; returns A1, the k
     of each [start] call, and the observed roles. *)
  let drive ?max_k input =
    let starts = ref [] in
    let a1, seen =
      Oqsc.A1.drive (Machine.Workspace.create ()) ?max_k
        (fun k ->
          starts := k :: !starts;
          ref [])
        (fun seen role -> seen := role :: !seen)
        (Machine.Stream.of_string input)
    in
    (a1, !starts, Option.map (fun seen -> List.rev !seen) seen)
  in
  let inst = Lang.Instance.disjoint_pair (Rng.create 44) ~k:2 in
  let input = inst.Lang.Instance.input in
  let a1, starts, roles = drive input in
  check "one start, with A1's k" true (starts = [ 2 ] && Oqsc.A1.k a1 = Some 2);
  (match roles with
  | Some (Oqsc.A1.Prefix_sep :: rest) ->
      let symbols = function Oqsc.A1.Block_bits { len; _ } -> len | _ -> 1 in
      check_int "every symbol after the separator" (String.length input - 3)
        (List.fold_left (fun n role -> n + symbols role) 0 rest)
  | _ -> Alcotest.fail "the first observed role is not Prefix_sep");
  List.iter
    (fun (what, max_k, input) ->
      let _, starts, roles = drive ?max_k input in
      check ("no start: " ^ what) true (starts = [] && roles = None))
    [
      ("leading '#'", None, "#" ^ input);
      ("leading '0'", None, "0" ^ input);
      ("16 ones", None, String.make 16 '1' ^ "#0");
      ("k > max_k", Some 1, input);
    ]

(* ------------------------------------------- drive = feed, word by word *)

(* The symbol-by-symbol reference for [A1.drive]: every symbol through
   [A1.feed], with [drive]'s start and observe rules. *)
let drive_by_feed ws ~max_k start observe stream =
  let a1 = Oqsc.A1.create ws in
  let procs = ref None in
  Machine.Stream.iter
    (fun sym ->
      match (Oqsc.A1.feed a1 sym, !procs) with
      | (Oqsc.A1.Prefix_sep as role), _ ->
          let k = Option.get (Oqsc.A1.k a1) in
          if k <= max_k then begin
            let p = start k in
            procs := Some p;
            observe p role
          end
      | role, Some p -> observe p role
      | _, None -> ())
    stream;
  (a1, !procs)

(* A word role as the one-bit roles [feed] gives for its symbols. *)
let expand = function
  | Oqsc.A1.Block_bits { rep; seg; idx; bits; len } ->
      List.init len (fun i ->
          Oqsc.A1.Block_bits
            { rep; seg; idx = idx + i; bits = (bits lsr i) land 1; len = 1 })
  | role -> [ role ]

(* The cut rule: a word is 1..62 bits and crosses neither the block
   end nor an index that is a multiple of 62. *)
let word_ok ~k = function
  | Oqsc.A1.Block_bits { idx; len; bits; _ } ->
      len >= 1
      && (idx mod 62) + len <= 62
      && idx + len <= 1 lsl (2 * k)
      && bits lsr len = 0
  | _ -> true

type pipeline = {
  roles : Oqsc.A1.role list;  (* expanded *)
  words_ok : bool;
  a1 : (bool * bool * int option) option;  (* None after an input error *)
  error : string option;
  pos : int;
  snapshot : string;
  a2 : bool option;
  a3 : int64 option;
}

(* A1 + A2 + A3 over one input, by [drive] or by [feed]; A3 runs for
   k <= 3 so the inputs stay small. *)
let pipeline ~by_word ~cuts input =
  let ws = Machine.Workspace.create () in
  let rng = Rng.create 97 in
  let roles = ref [] and ks = ref [] and procs = ref None in
  let start k =
    ks := k :: !ks;
    let a2 = Oqsc.A2.create ws rng ~k in
    let a3 = if k <= 3 then Some (Oqsc.A3.create ws rng ~k) else None in
    procs := Some (a2, a3);
    (a2, a3)
  in
  let observe (a2, a3) role =
    roles := role :: !roles;
    Oqsc.A2.observe a2 role;
    Option.iter (fun a3 -> Oqsc.A3.observe a3 role) a3
  in
  let stream =
    match cuts with
    | None -> Machine.Stream.of_string input
    | Some cuts -> Test_machine.chunked (Test_machine.split input cuts)
  in
  let max_k = 4 in
  let a1, error =
    match
      if by_word then Oqsc.A1.drive ws ~max_k start observe stream
      else drive_by_feed ws ~max_k start observe stream
    with
    | a1, _ -> (Some (Oqsc.A1.finished_ok a1, Oqsc.A1.failed a1, Oqsc.A1.k a1), None)
    | exception Invalid_argument m -> (None, Some m)
  in
  let roles = List.rev !roles in
  {
    roles = List.concat_map expand roles;
    words_ok =
      (match !ks with [ k ] -> List.for_all (word_ok ~k) roles | _ -> roles = []);
    a1;
    error;
    pos = Machine.Stream.pos stream;
    snapshot = Machine.Workspace.snapshot ws;
    a2 = Option.map (fun (a2, _) -> Oqsc.A2.verdict a2) !procs;
    a3 =
      Option.bind !procs (fun (_, a3) ->
          Option.map (fun a3 -> Int64.bits_of_float (Oqsc.A3.prob_output_zero a3)) a3);
  }

(* Inputs of every kind the pass must treat alike: members,
   intersecting pairs, corrupted repetitions, the malformed catalogue,
   random {0,1,#} strings with and without a valid prefix, and members
   with a character outside the alphabet. *)
let drive_input ~seed ~kind =
  let rng = Rng.create seed in
  let k = 1 + Rng.int rng 4 in
  let member () =
    (Lang.Instance.disjoint_pair (Rng.split rng) ~k).Lang.Instance.input
  in
  let random_string len =
    String.init len (fun _ -> "0101#".[Rng.int rng 5])
  in
  match kind with
  | 0 -> member ()
  | 1 ->
      let t = 1 + Rng.int rng (1 lsl (2 * k)) in
      (Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t).Lang.Instance.input
  | 2 ->
      let base = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      (Lang.Instance.corrupt_repetition (Rng.split rng) ~base).Lang.Instance.input
  | 3 -> (Lang.Instance.malformed (Rng.split rng) ~k).Lang.Instance.input
  | 4 -> String.make k '1' ^ "#" ^ random_string (Rng.int rng (4 lsl (2 * k)))
  | 5 -> random_string (Rng.int rng 40)
  | _ ->
      let b = Bytes.of_string (member ()) in
      Bytes.set b (Rng.int rng (Bytes.length b)) "x2 ".[Rng.int rng 3];
      Bytes.to_string b

(* A2's word fold against the per-bit chain it replaces. *)
let chained_step ~prime ~point ~pow ~acc ~bits ~len =
  let pow = ref pow and acc = ref acc in
  for i = 0 to len - 1 do
    if (bits lsr i) land 1 = 1 then acc := Modarith.addmod !acc !pow prime;
    pow := Modarith.mulmod !pow point prime
  done;
  (!pow, !acc)

(* The primes on both sides of Shoup's limit: 2^31 - 1 is the largest
   with a reciprocal, and the prime after 2^31 the smallest without. *)
let boundary_primes = [ (1 lsl 31) - 1; Primes.next_prime (1 lsl 31) ]

let step_case =
  let open QCheck.Gen in
  let* prime =
    oneof
      [ map Primes.fingerprint_prime (int_range 1 8); oneofl boundary_primes ]
  in
  let residue = int_bound (prime - 1) in
  let operand = oneof [ return 0; return 1; return (prime - 1); residue ] in
  let* point = operand and* pow = operand and* acc = operand in
  let ones = (1 lsl 62) - 1 in
  let* bits = oneof [ return 0; return ones; map (fun b -> b land ones) int ] in
  return (prime, point, pow, acc, bits)

let drive_qcheck_tests =
  let open QCheck in
  (* [cuts], when given, are fractions (in 1/1000) of the input's
     length at which [drive]'s input is split into [of_chunks]
     strings; [feed] always reads the stored string. *)
  let case =
    make
      ~print:(fun (seed, kind, cuts) ->
        Printf.sprintf "seed %d kind %d cuts %s" seed kind
          (match cuts with
          | None -> "none"
          | Some cuts -> String.concat " " (List.map string_of_int cuts)))
      Gen.(
        triple (int_bound 1_000_000) (int_bound 6)
          (opt (list_size (0 -- 8) (int_bound 1000))))
  in
  [
    Test.make ~name:"a2 word step = chained mulmod/addmod" ~count:500
      (make
         ~print:(fun (prime, point, pow, acc, bits) ->
           Printf.sprintf "p %d point %d pow %d acc %d bits %#x" prime point pow acc
             bits)
         step_case)
      (fun (prime, point, pow, acc, bits) ->
        (* Every prefix of the word, so every [len] 0..62 and every
           remainder modulo the lane count: a step that leaves a value
           in [p, 2p) can be absorbed by the next one, so only checking
           the end would miss it. *)
        List.for_all
          (fun len ->
            Fingerprint.fold_word ~p:prime ~point
              ~recip:(Fingerprint.reciprocal ~p:prime ~point)
              ~pow ~acc ~bits ~len
            = chained_step ~prime ~point ~pow ~acc ~bits ~len)
          (List.init 63 Fun.id));
    Test.make ~name:"a1 drive = feed, with A2 and A3" ~count:200 case
      (fun (seed, kind, cuts) ->
        let input = drive_input ~seed ~kind in
        let cuts =
          Option.map (List.map (fun c -> c * String.length input / 1000)) cuts
        in
        let by_word = pipeline ~by_word:true ~cuts input in
        let by_symbol = pipeline ~by_word:false ~cuts:None input in
        by_word.words_ok && by_word = { by_symbol with words_ok = true });
  ]

let test_a1_agrees_with_offline_scanner () =
  let rng = Rng.create 67 in
  let agree label input =
    check
      (Printf.sprintf "%s: %S" label (String.sub input 0 (min 24 (String.length input))))
      (Lang.Ldisj.well_shaped input) (a1_verdict input)
  in
  for _ = 1 to 40 do
    let k = 1 + Rng.int rng 2 in
    let base = (Lang.Instance.disjoint_pair (Rng.split rng) ~k).Lang.Instance.input in
    agree "valid" base;
    (* Single-character mutation. *)
    let mutated = Bytes.of_string base in
    let pos = Rng.int rng (String.length base) in
    let replacement = [| '0'; '1'; '#' |].(Rng.int rng 3) in
    Bytes.set mutated pos replacement;
    agree "mutated" (Bytes.to_string mutated);
    (* Truncation. *)
    agree "truncated" (String.sub base 0 (Rng.int rng (String.length base)));
    (* Extension. *)
    agree "extended" (base ^ String.make (1 + Rng.int rng 3) '0')
  done;
  (* Short random strings over the full alphabet. *)
  for _ = 1 to 300 do
    let len = Rng.int rng 40 in
    let s =
      String.init len (fun _ -> [| '0'; '1'; '#' |].(Rng.int rng 3))
    in
    agree "random" s
  done

(* ------------------------------------------------------------------- A2 *)

let run_a2 rng input =
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let a2 = ref None in
  String.iter
    (fun c ->
      let role = Oqsc.A1.feed a1 (Machine.Symbol.of_char c) in
      (match role with
      | Oqsc.A1.Prefix_sep ->
          a2 := Some (Oqsc.A2.create ws rng ~k:(Option.get (Oqsc.A1.k a1)))
      | _ -> ());
      match !a2 with Some p -> Oqsc.A2.observe p role | None -> ())
    input;
  Option.get !a2

let test_a2_passes_consistent () =
  let rng = Rng.create 41 in
  for k = 1 to 3 do
    for _ = 1 to 5 do
      let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      let a2 = run_a2 (Rng.split rng) inst.Lang.Instance.input in
      check "consistent passes" true (Oqsc.A2.verdict a2)
    done
  done

let test_a2_passes_intersecting_but_consistent () =
  (* A2 checks consistency only; intersecting-but-consistent inputs pass. *)
  let rng = Rng.create 42 in
  let inst = Lang.Instance.intersecting_pair (Rng.split rng) ~k:2 ~t:3 in
  let a2 = run_a2 (Rng.split rng) inst.Lang.Instance.input in
  check "consistency is orthogonal to DISJ" true (Oqsc.A2.verdict a2)

let test_a2_catches_corruption () =
  let rng = Rng.create 43 in
  let caught = ref 0 and trials = 200 in
  for _ = 1 to trials do
    let base = Lang.Instance.disjoint_pair (Rng.split rng) ~k:2 in
    let c = Lang.Instance.corrupt_repetition (Rng.split rng) ~base in
    let a2 = run_a2 (Rng.split rng) c.Lang.Instance.input in
    if not (Oqsc.A2.verdict a2) then incr caught
  done;
  (* Error bound 2^{-2k} = 1/16; expect nearly all caught. *)
  check "catches corruption" true (!caught >= trials - trials / 8)

let test_a2_prime_and_point () =
  let rng = Rng.create 44 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k:2 in
  let a2 = run_a2 (Rng.split rng) inst.Lang.Instance.input in
  let p = Oqsc.A2.prime a2 in
  check "prime in window" true (p > 256 && p < 512 && Primes.is_prime p);
  check "point reduced" true (Oqsc.A2.point a2 >= 0 && Oqsc.A2.point a2 < p)

(* ------------------------------------------------------------------- A3 *)

let run_a3 ?emit_circuit ?emit_wire ?noise ?force_j rng ~k input =
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let a3 = ref None in
  String.iter
    (fun c ->
      let role = Oqsc.A1.feed a1 (Machine.Symbol.of_char c) in
      (match role with
      | Oqsc.A1.Prefix_sep ->
          a3 := Some (Oqsc.A3.create ?emit_circuit ?emit_wire ?noise ?force_j ws rng ~k)
      | _ -> ());
      match !a3 with Some p -> Oqsc.A3.observe p role | None -> ())
    input;
  (Option.get !a3, ws)

let test_a3_never_rejects_members () =
  let rng = Rng.create 45 in
  for k = 1 to 2 do
    for j = 0 to (1 lsl k) - 1 do
      let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      let a3, _ = run_a3 ~force_j:j (Rng.split rng) ~k inst.Lang.Instance.input in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "k=%d j=%d member prob 0" k j)
        0.0
        (Oqsc.A3.prob_output_zero a3)
    done
  done

let test_a3_matches_bbht_closed_form () =
  (* The exact simulated rejection probability for each j equals
     sin^2((2j+1) theta). *)
  let rng = Rng.create 46 in
  let k = 2 in
  let m = 1 lsl (2 * k) in
  List.iter
    (fun t ->
      let inst = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t in
      for j = 0 to (1 lsl k) - 1 do
        let a3, _ = run_a3 ~force_j:j (Rng.split rng) ~k inst.Lang.Instance.input in
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "t=%d j=%d" t j)
          (Grover.Analysis.success_after ~j ~t ~space:m)
          (Oqsc.A3.prob_output_zero a3)
      done)
    [ 1; 3; 8 ]

let test_a3_space_budget () =
  let rng = Rng.create 47 in
  let k = 2 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
  let a3, ws = run_a3 (Rng.split rng) ~k inst.Lang.Instance.input in
  check_int "2k+2 qubits" ((2 * k) + 2) (Oqsc.A3.qubits a3);
  check_int "workspace qubit ledger" ((2 * k) + 2) (Machine.Workspace.qubits ws);
  check "j in range" true (Oqsc.A3.fixed_j a3 < 1 lsl k)

let test_a3_sampling_consistent_with_probability () =
  let rng = Rng.create 48 in
  let k = 1 in
  let inst = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t:4 in
  (* t = m: rejection probability 1 for every j. *)
  let a3, _ = run_a3 (Rng.split rng) ~k inst.Lang.Instance.input in
  Alcotest.(check (float 1e-9)) "certain rejection" 1.0 (Oqsc.A3.prob_output_zero a3);
  check "sample says reject" false (Oqsc.A3.sample_output a3 (Rng.split rng))

let test_a3_circuit_emission () =
  let rng = Rng.create 49 in
  let k = 1 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
  let a3, _ = run_a3 ~emit_circuit:true ~force_j:1 (Rng.split rng) ~k inst.Lang.Instance.input in
  match Oqsc.A3.circuit a3 with
  | None -> Alcotest.fail "expected a recorded circuit"
  | Some c ->
      check "nonempty" true (Circuit.Circ.length c > 0);
      (* Replaying the recorded circuit on |0...0> reproduces the final
         state's l-qubit statistics. *)
      let s = Quantum.State.create (Circuit.Circ.nqubits c) in
      Circuit.Circ.run c s;
      Alcotest.(check (float 1e-9)) "replay matches" (Oqsc.A3.prob_output_zero a3)
        (Quantum.State.prob_qubit_one s ((2 * k) + 1))

let test_a3_streamed_wire_matches_batch_lowering () =
  (* The online output tape (gates lowered as symbols stream past) must
     agree, gate for gate, with lowering the recorded structured circuit
     after the fact: same ancilla pool, same order. *)
  let rng = Rng.create 66 in
  let k = 1 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
  let ws = Machine.Workspace.create () in
  let a1 = Oqsc.A1.create ws in
  let a3 = ref None in
  String.iter
    (fun c ->
      let role = Oqsc.A1.feed a1 (Machine.Symbol.of_char c) in
      (match role with
      | Oqsc.A1.Prefix_sep ->
          a3 :=
            Some
              (Oqsc.A3.create ~emit_circuit:true ~emit_wire:true ~force_j:1 ws
                 (Rng.split rng) ~k)
      | _ -> ());
      match !a3 with Some p -> Oqsc.A3.observe p role | None -> ())
    inst.Lang.Instance.input;
  let a3 = Option.get !a3 in
  let structured = Option.get (Oqsc.A3.circuit a3) in
  let streamed = Option.get (Oqsc.A3.wire a3) in
  let batch = Circuit.Lower.to_basis structured in
  let nq = Circuit.Circ.nqubits batch in
  let parsed = Circuit.Wire.parse ~nqubits:nq streamed in
  check "streamed wire = batch lowering" true
    (Circuit.Circ.gates parsed = Circuit.Circ.gates batch);
  (* And the ancillas were charged. *)
  check "qubit ledger includes lowering ancillas" true
    (Machine.Workspace.qubits ws = nq)

let test_a3_recording_does_not_touch_the_state () =
  (* Recording a circuit or a wire tape only writes gates down: the
     amplitudes after every repetition (read through the noise hook)
     and the final rejection probability are bit-identical whichever
     recorders are on. *)
  let rng = Rng.create 67 in
  let k = 2 in
  let bits x = Int64.bits_of_float x in
  let run ~emit_circuit ~emit_wire ~force_j input =
    let amps = ref [] in
    let noise st =
      amps :=
        List.init (Quantum.State.dim st) (fun i ->
            (bits (Quantum.State.re st i), bits (Quantum.State.im st i)))
        :: !amps
    in
    let a3, _ =
      run_a3 ~emit_circuit ~emit_wire ~noise ~force_j (Rng.create 1) ~k input
    in
    (List.rev !amps, bits (Oqsc.A3.prob_output_zero a3))
  in
  List.iter
    (fun (inst : Lang.Instance.t) ->
      for force_j = 0 to (1 lsl k) - 1 do
        let plain =
          run ~emit_circuit:false ~emit_wire:false ~force_j inst.Lang.Instance.input
        in
        check_int "one snapshot per repetition" (1 lsl k) (List.length (fst plain));
        List.iter
          (fun (emit_circuit, emit_wire) ->
            check
              (Printf.sprintf "j=%d circuit=%b wire=%b" force_j emit_circuit emit_wire)
              true
              (run ~emit_circuit ~emit_wire ~force_j inst.Lang.Instance.input = plain))
          [ (true, false); (false, true); (true, true) ]
      done)
    [
      Lang.Instance.disjoint_pair (Rng.split rng) ~k;
      Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t:3;
    ]

let test_a3_force_j_guard () =
  let ws = Machine.Workspace.create () in
  Alcotest.check_raises "j out of range" (Invalid_argument "A3.create: force_j out of range")
    (fun () -> ignore (Oqsc.A3.create ~force_j:2 ws (Rng.create 1) ~k:1))

(* ---------------------------------------------------------------- def23 *)

let test_def23_parity_machine_validates () =
  Machine.Optm.validate Oqsc.Def23.quantum_parity

let test_def23_parity_semantics () =
  List.iter
    (fun (input, expected) ->
      let o = Oqsc.Def23.run Oqsc.Def23.quantum_parity ~qubits:1 input in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "P[measure 1] on %S" input)
        expected o.Oqsc.Def23.accept_probability;
      check "halts within the Def 2.3 step budget" true o.Oqsc.Def23.within_budget)
    [ ("", 0.0); ("1", 1.0); ("11", 0.0); ("101", 0.0); ("0110", 0.0);
      ("11111", 1.0); ("0", 0.0); ("10#01", 0.0); ("1#0", 1.0) ]

let test_def23_output_is_wire_format () =
  let (_, _), raw =
    Machine.Optm.run_deterministic_with_output Oqsc.Def23.quantum_parity "101"
  in
  (* 2 ones -> 12 gate triples, 6 chars each with leading separators. *)
  check_int "output length" (2 * 36) (String.length raw);
  let o = Oqsc.Def23.run Oqsc.Def23.quantum_parity ~qubits:1 "101" in
  check_int "12 triples" 12 o.Oqsc.Def23.gate_triples

let test_def23_acceptance_probability () =
  Alcotest.(check (float 1e-9)) "deterministic machine, exact" 1.0
    (Oqsc.Def23.acceptance_probability ~trials:5 Oqsc.Def23.quantum_parity ~qubits:1 "1")

(* ----------------------------------------------------------- recognizer *)

let test_recognizer_one_sided () =
  let rng = Rng.create 50 in
  for k = 1 to 2 do
    for _ = 1 to 10 do
      let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      let r = Oqsc.Recognizer.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
      check "member accepted" true r.Oqsc.Recognizer.accept;
      Alcotest.(check (float 1e-9)) "prob 1" 1.0 r.Oqsc.Recognizer.accept_probability
    done
  done

let test_recognizer_rejects_nonmembers_often () =
  let rng = Rng.create 51 in
  let rejected = ref 0 and trials = 120 in
  for _ = 1 to trials do
    let inst = Lang.Instance.intersecting_pair (Rng.split rng) ~k:2 ~t:1 in
    let r = Oqsc.Recognizer.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
    if not r.Oqsc.Recognizer.accept then incr rejected
  done;
  (* Expected rejection ~0.60 at k=2, t=1; the theorem promises >= 1/4. *)
  check "rejects at least a quarter" true
    (float_of_int !rejected /. float_of_int trials >= 0.25)

let test_recognizer_rejects_malformed_certainly () =
  let rng = Rng.create 52 in
  for _ = 1 to 20 do
    let inst = Lang.Instance.malformed (Rng.split rng) ~k:2 in
    let r = Oqsc.Recognizer.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
    check "rejected" false r.Oqsc.Recognizer.accept;
    check "a1 failed" false r.Oqsc.Recognizer.a1_ok
  done

let test_recognizer_space_logarithmic () =
  let rng = Rng.create 53 in
  let space k =
    let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
    let r = Oqsc.Recognizer.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
    r.Oqsc.Recognizer.space
  in
  let s2 = space 2 and s4 = space 4 in
  (* Doubling k (so squaring m) adds only O(k) bits. *)
  check "classical grows linearly in k" true
    (s4.Oqsc.Recognizer.classical_bits - s2.Oqsc.Recognizer.classical_bits < 80);
  check_int "qubits 2k+2 at k=4" 10 s4.Oqsc.Recognizer.qubits

let test_recognizer_complement_view () =
  let rng = Rng.create 54 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k:1 in
  let r = Oqsc.Recognizer.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
  check "complement flips" true
    (Oqsc.Recognizer.accepts_complement r = not r.Oqsc.Recognizer.accept)

let test_recognizer_on_stream () =
  let rng = Rng.create 55 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k:1 in
  let stream = Machine.Stream.of_string inst.Lang.Instance.input in
  let r = Oqsc.Recognizer.run_stream ~rng:(Rng.split rng) stream in
  check "stream variant accepts member" true r.Oqsc.Recognizer.accept

let test_recognizer_empty_and_garbage () =
  List.iter
    (fun input ->
      let r = Oqsc.Recognizer.run ~rng:(Rng.create 1) input in
      check "rejected" false r.Oqsc.Recognizer.accept)
    [ ""; "#"; "111"; "1#"; "1#0#" ]

(* -------------------------------------------------------- amplification *)

let test_amplified_keeps_members () =
  let rng = Rng.create 56 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k:1 in
  for reps = 1 to 5 do
    let accept, prob =
      Oqsc.Recognizer.amplified ~rng:(Rng.split rng) ~repetitions:reps
        inst.Lang.Instance.input
    in
    check "member survives amplification" true accept;
    Alcotest.(check (float 1e-9)) "prob 1" 1.0 prob
  done

let test_amplified_drives_error_down () =
  let rng = Rng.create 57 in
  let inst = Lang.Instance.intersecting_pair (Rng.split rng) ~k:2 ~t:2 in
  let error reps =
    let accepts = ref 0 and trials = 60 in
    for _ = 1 to trials do
      let accept, _ =
        Oqsc.Recognizer.amplified ~rng:(Rng.split rng) ~repetitions:reps
          inst.Lang.Instance.input
      in
      if accept then incr accepts
    done;
    float_of_int !accepts /. float_of_int trials
  in
  let e1 = error 1 and e4 = error 4 in
  check "amplification reduces error" true (e4 < e1 || e1 = 0.0);
  check "4 reps below 1/3" true (e4 <= 1.0 /. 3.0)

let test_amplification_bound_formula () =
  Alcotest.(check (float 1e-12)) "r=4" (0.75 ** 4.0)
    (Oqsc.Recognizer.amplification_error_bound ~repetitions:4);
  Alcotest.check_raises "needs >= 1"
    (Invalid_argument "Recognizer.amplified: need >= 1 repetition") (fun () ->
      ignore (Oqsc.Recognizer.amplified ~repetitions:0 "1#"))

(* -------------------------------------------------------- classical side *)

let test_block_algorithm_exact () =
  let rng = Rng.create 58 in
  for k = 1 to 3 do
    let member = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
    let rm = Oqsc.Classical_block.run ~rng:(Rng.split rng) member.Lang.Instance.input in
    check "member accepted" true rm.Oqsc.Classical_block.accept;
    check_int "storage 2^k" (1 lsl k) rm.Oqsc.Classical_block.storage_bits;
    List.iter
      (fun t ->
        let bad = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t in
        let rb = Oqsc.Classical_block.run ~rng:(Rng.split rng) bad.Lang.Instance.input in
        check "intersection found" true rb.Oqsc.Classical_block.collision_found;
        check "rejected" false rb.Oqsc.Classical_block.accept)
      [ 1; 1 lsl k ]
  done

let test_block_algorithm_rejects_malformed () =
  let rng = Rng.create 59 in
  let inst = Lang.Instance.malformed (Rng.split rng) ~k:2 in
  let r = Oqsc.Classical_block.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
  check "rejected" false r.Oqsc.Classical_block.accept

let test_naive_exact_and_bigger () =
  let rng = Rng.create 60 in
  let k = 2 in
  let member = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
  let bad = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t:1 in
  let rm = Oqsc.Naive.run ~rng:(Rng.split rng) member.Lang.Instance.input in
  let rb = Oqsc.Naive.run ~rng:(Rng.split rng) bad.Lang.Instance.input in
  check "member accepted" true rm.Oqsc.Naive.accept;
  check "intersecting rejected" false rb.Oqsc.Naive.accept;
  check_int "stores all of x" (1 lsl (2 * k)) rm.Oqsc.Naive.storage_bits;
  let blk = Oqsc.Classical_block.run ~rng:(Rng.split rng) member.Lang.Instance.input in
  check "naive uses more space than block" true
    (rm.Oqsc.Naive.space_bits > blk.Oqsc.Classical_block.space_bits)

let test_sketches_one_sidedness () =
  let rng = Rng.create 61 in
  let k = 3 in
  (* Subsample never fabricates a collision on members. *)
  for _ = 1 to 15 do
    let member = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
    let r =
      Oqsc.Sketch.run ~rng:(Rng.split rng) ~strategy:Oqsc.Sketch.Subsample ~budget:16
        member.Lang.Instance.input
    in
    check "subsample has no false positives" false r.Oqsc.Sketch.claims_intersecting
  done;
  (* Bucket filter never misses a real collision. *)
  for _ = 1 to 15 do
    let bad = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t:2 in
    let r =
      Oqsc.Sketch.run ~rng:(Rng.split rng) ~strategy:Oqsc.Sketch.Bucket_filter ~budget:16
        bad.Lang.Instance.input
    in
    check "bucket never misses" true r.Oqsc.Sketch.claims_intersecting
  done

let test_sketch_budget_metered () =
  let rng = Rng.create 62 in
  let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k:3 in
  let r8 = Oqsc.Sketch.run ~rng:(Rng.split rng) ~strategy:Oqsc.Sketch.Subsample ~budget:8 inst.Lang.Instance.input in
  let r64 = Oqsc.Sketch.run ~rng:(Rng.split rng) ~strategy:Oqsc.Sketch.Subsample ~budget:64 inst.Lang.Instance.input in
  check_int "footprint grows by budget delta" 56
    (r64.Oqsc.Sketch.space_bits - r8.Oqsc.Sketch.space_bits);
  Alcotest.check_raises "budget guard" (Invalid_argument "Sketch.run: budget must be >= 1")
    (fun () ->
      ignore
        (Oqsc.Sketch.run ~strategy:Oqsc.Sketch.Subsample ~budget:0
           inst.Lang.Instance.input))

let test_all_recognizers_agree_with_oracle_when_exact () =
  (* Quantum (member side), block and naive all agree with ground truth
     across the standard suite; the quantum algorithm may accept
     intersecting inputs (one-sided), so only its member answers are
     compared. *)
  let rng = Rng.create 63 in
  let suite = Lang.Instance.standard_suite (Rng.split rng) ~k:2 in
  List.iter
    (fun inst ->
      let truth = Lang.Instance.is_member inst in
      let rb = Oqsc.Classical_block.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
      let rn = Oqsc.Naive.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
      check "block = truth" true (rb.Oqsc.Classical_block.accept = truth);
      check "naive = truth" true (rn.Oqsc.Naive.accept = truth);
      if truth then begin
        let rq = Oqsc.Recognizer.run ~rng:(Rng.split rng) inst.Lang.Instance.input in
        check "quantum accepts members" true rq.Oqsc.Recognizer.accept
      end)
    suite;
  (* Naive is the block machine with a single block: on the same coins
     the two reach the same verdicts and differ only in what they store. *)
  let k = 2 in
  let member = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
  List.iter
    (fun inst ->
      let coins = Rng.split rng in
      let input = inst.Lang.Instance.input in
      let rb = Oqsc.Classical_block.run ~rng:(Rng.copy coins) input in
      let rn = Oqsc.Naive.run ~rng:(Rng.copy coins) input in
      check "naive = block: a1_ok" rb.Oqsc.Classical_block.a1_ok rn.Oqsc.Naive.a1_ok;
      check "naive = block: a2_ok" rb.Oqsc.Classical_block.a2_ok rn.Oqsc.Naive.a2_ok;
      check "naive = block: accept" rb.Oqsc.Classical_block.accept rn.Oqsc.Naive.accept;
      check "both reject" false rn.Oqsc.Naive.accept;
      let storage log_block =
        match rb.Oqsc.Classical_block.k with Some k -> 1 lsl log_block k | None -> 0
      in
      check_int "block stores 2^k" (storage Fun.id) rb.Oqsc.Classical_block.storage_bits;
      check_int "naive stores 2^(2k)" (storage (fun k -> 2 * k))
        rn.Oqsc.Naive.storage_bits)
    [
      Lang.Instance.corrupt_repetition (Rng.split rng) ~base:member;
      Lang.Instance.malformed (Rng.split rng) ~k;
    ]

let suite =
  [
    ("a1 accepts well-formed", `Quick, test_a1_accepts_wellformed);
    ("a1 role sequence", `Quick, test_a1_roles_sequence_k1);
    ("a1 role progression", `Quick, test_a1_role_progression);
    ("a1 rejects malformed", `Quick, test_a1_rejects_malformed);
    ("a1 latches failure", `Quick, test_a1_latches_failure);
    ("a1 space independent of n", `Quick, test_a1_space_is_logarithmic);
    ("a1 oversized k", `Quick, test_a1_rejects_oversized_k);
    ("a1 = offline scanner", `Quick, test_a1_agrees_with_offline_scanner);
    ("a1 drive", `Quick, test_a1_drive);
    ("a2 passes consistent", `Quick, test_a2_passes_consistent);
    ("a2 ignores DISJ", `Quick, test_a2_passes_intersecting_but_consistent);
    ("a2 catches corruption", `Quick, test_a2_catches_corruption);
    ("a2 prime/point", `Quick, test_a2_prime_and_point);
    ("a3 members safe", `Quick, test_a3_never_rejects_members);
    ("a3 matches closed form", `Quick, test_a3_matches_bbht_closed_form);
    ("a3 space budget", `Quick, test_a3_space_budget);
    ("a3 sampling", `Quick, test_a3_sampling_consistent_with_probability);
    ("a3 circuit emission", `Quick, test_a3_circuit_emission);
    ("a3 streamed wire = batch", `Quick, test_a3_streamed_wire_matches_batch_lowering);
    ("a3 recording leaves the state alone", `Quick, test_a3_recording_does_not_touch_the_state);
    ("a3 force_j guard", `Quick, test_a3_force_j_guard);
    ("def23 machine validates", `Quick, test_def23_parity_machine_validates);
    ("def23 parity semantics", `Quick, test_def23_parity_semantics);
    ("def23 wire output", `Quick, test_def23_output_is_wire_format);
    ("def23 acceptance", `Quick, test_def23_acceptance_probability);
    ("recognizer one-sided", `Quick, test_recognizer_one_sided);
    ("recognizer rejects non-members", `Quick, test_recognizer_rejects_nonmembers_often);
    ("recognizer rejects malformed", `Quick, test_recognizer_rejects_malformed_certainly);
    ("recognizer space", `Quick, test_recognizer_space_logarithmic);
    ("recognizer complement view", `Quick, test_recognizer_complement_view);
    ("recognizer on stream", `Quick, test_recognizer_on_stream);
    ("recognizer garbage inputs", `Quick, test_recognizer_empty_and_garbage);
    ("amplified keeps members", `Quick, test_amplified_keeps_members);
    ("amplified reduces error", `Slow, test_amplified_drives_error_down);
    ("amplification bound", `Quick, test_amplification_bound_formula);
    ("block exact", `Quick, test_block_algorithm_exact);
    ("block rejects malformed", `Quick, test_block_algorithm_rejects_malformed);
    ("naive exact", `Quick, test_naive_exact_and_bigger);
    ("sketch one-sidedness", `Quick, test_sketches_one_sidedness);
    ("sketch budget metered", `Quick, test_sketch_budget_metered);
    ("recognizers vs oracle", `Quick, test_all_recognizers_agree_with_oracle_when_exact);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) drive_qcheck_tests
