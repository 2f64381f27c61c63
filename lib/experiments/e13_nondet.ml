open Mathx

type row = {
  n : int;
  nondet_space_bits : int;
  det_census : int;
  det_message_bits : float;
  correct : bool;
}

let log2 x = log x /. log 2.0

let random_word rng n = String.init n (fun _ -> if Rng.bool rng then '1' else '0')

let flip_one rng s =
  let b = Bytes.of_string s in
  let i = Rng.int rng (String.length s) in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  Bytes.to_string b

let rows ?(quick = false) ~seed () =
  let rng = Rng.create seed in
  let ns = if quick then [ 2; 4 ] else [ 2; 4; 6; 8; 10; 64; 256 ] in
  List.map
    (fun n ->
      (* Nondeterministic machine on a mixed workload. *)
      let correct = ref true in
      let space = ref 0 in
      let workload =
        let x = random_word (Rng.split rng) n in
        [
          x ^ "#" ^ x;  (* equal: non-member *)
          x ^ "#" ^ flip_one (Rng.split rng) x;  (* member *)
          x ^ "#" ^ random_word (Rng.split rng) n;  (* random *)
          x ^ "#" ^ random_word (Rng.split rng) (max 1 (n - 1));  (* length mismatch *)
          x;  (* no separator *)
        ]
      in
      List.iter
        (fun input ->
          let d = Oqsc.Nondet_ne.decide input in
          space := max !space d.Oqsc.Nondet_ne.branch_space_bits;
          if d.Oqsc.Nondet_ne.member <> Oqsc.Nondet_ne.member_reference input then
            correct := false)
        workload;
      (* Deterministic census: exhaustive for n <= 10, the exact formula
         2^n beyond (verified in the exhaustive range). *)
      let census, bits_formula =
        if n <= 10 then begin
          let machine = Machine.Machines.copy_then_compare ~m:n in
          let inputs =
            List.init (1 lsl n) (fun v ->
                let u =
                  String.init n (fun i -> if v lsr i land 1 = 1 then '1' else '0')
                in
                u ^ "#" ^ u)
          in
          let report =
            Comm.Reduction.induced_protocol_cost machine ~inputs ~cuts:[ n + 1 ]
          in
          match report.Comm.Reduction.cuts with
          | [ c ] -> (c.Comm.Reduction.distinct, log2 (float_of_int (max 1 c.Comm.Reduction.distinct)))
          | _ -> (0, 0.0)
        end
        else
          (* Beyond the exhaustive range the census is the analytic 2^n
             (verified exhaustively for n <= 10); the count itself may
             not fit an int. *)
          (0, float_of_int n)
      in
      {
        n;
        nondet_space_bits = !space;
        det_census = census;
        det_message_bits = bits_formula;
        correct = !correct;
      })
    ns

let body ?quick ~seed () =
  let rs = rows ?quick ~seed () in
  {
    Report.tables =
      [
        Report.table
          ~title:"E13  Nondeterministic vs deterministic online space for L_NE (extension)"
          ~header:[ "n"; "nondet bits (O(log n))"; "det census"; "det bits (n)"; "correct" ]
          (List.map
             (fun r ->
               [
                 Report.int r.n;
                 Report.int r.nondet_space_bits;
                 (if r.n <= 10 then Report.int r.det_census
                  else Report.str ("2^" ^ string_of_int r.n));
                 Report.float r.det_message_bits;
                 Report.bool r.correct;
               ])
             rs);
      ];
    notes =
      [
        "guessing machine: 3 log n + O(1) bits; deterministic machines are forced through 2^n configurations";
      ];
    metrics = [];
  }
