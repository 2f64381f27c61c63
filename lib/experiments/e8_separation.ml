open Mathx

type row = {
  k : int;
  n : int;
  quantum_total_bits : int option;  (** simulated for k <= quantum cap *)
  quantum_qubits : int option;
  classical_block_bits : int;
  naive_bits : int;
  log2_n : float;
  n_cuberoot : float;
}

type fit = {
  quantum_vs_log : float * float;
  block_exponent : float;
  naive_exponent : float;
}

let quantum_cap quick = if quick then 3 else 6

let rows ?(quick = false) ~seed () =
  let rng = Rng.create seed in
  let ks = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.map
    (fun k ->
      let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      let input = inst.Lang.Instance.input in
      let quantum =
        if k <= quantum_cap quick then
          Some (Oqsc.Recognizer.run ~rng:(Rng.split rng) input)
        else None
      in
      let b = Oqsc.Classical_block.run ~rng:(Rng.split rng) input in
      let nv = Oqsc.Naive.run ~rng:(Rng.split rng) input in
      let n = String.length input in
      {
        k;
        n;
        quantum_total_bits =
          Option.map
            (fun (q : Oqsc.Recognizer.run) ->
              q.Oqsc.Recognizer.space.Oqsc.Recognizer.classical_bits
              + q.Oqsc.Recognizer.space.Oqsc.Recognizer.qubits)
            quantum;
        quantum_qubits =
          Option.map
            (fun (q : Oqsc.Recognizer.run) ->
              q.Oqsc.Recognizer.space.Oqsc.Recognizer.qubits)
            quantum;
        classical_block_bits = b.Oqsc.Classical_block.space_bits;
        naive_bits = nv.Oqsc.Naive.space_bits;
        log2_n = log (float_of_int n) /. log 2.0;
        n_cuberoot = Float.pow (float_of_int n) (1.0 /. 3.0);
      })
    ks

let upper_half rows =
  let len = List.length rows in
  let keep = max 2 ((len + 1) / 2) in
  List.filteri (fun i _ -> i >= len - keep) rows

let fits rows =
  let quantum_points =
    List.filter_map
      (fun r ->
        Option.map (fun q -> (r.log2_n, float_of_int q)) r.quantum_total_bits)
      rows
  in
  let pts f = List.map (fun r -> (float_of_int r.n, float_of_int (f r))) (upper_half rows) in
  {
    quantum_vs_log = Cstats.linear_fit quantum_points;
    block_exponent = fst (Cstats.loglog_slope (pts (fun r -> r.classical_block_bits)));
    naive_exponent = fst (Cstats.loglog_slope (pts (fun r -> r.naive_bits)));
  }

let body ?quick ~seed () =
  let rs = rows ?quick ~seed () in
  let f = fits rs in
  let a, b = f.quantum_vs_log in
  {
    Report.tables =
      [
        Report.table
          ~title:"E8  Quantum vs classical online space on L_DISJ (the separation)"
          ~header:
            [ "k"; "n"; "quantum bits"; "(qubits)"; "block bits"; "naive bits"; "log2 n"; "n^(1/3)" ]
          (List.map
             (fun r ->
               [
                 Report.int r.k;
                 Report.int r.n;
                 Report.opt Report.int r.quantum_total_bits;
                 Report.opt Report.int r.quantum_qubits;
                 Report.int r.classical_block_bits;
                 Report.int r.naive_bits;
                 Report.float r.log2_n;
                 Report.float r.n_cuberoot;
               ])
             rs);
      ];
    notes =
      [
        Printf.sprintf
          "quantum ~ %.2f * log2 n %+.2f bits (Thm 3.4: O(log n)); block exponent %.3f -> 1/3 (Prop 3.7); naive exponent %.3f -> 2/3"
          a b f.block_exponent f.naive_exponent;
      ];
    metrics =
      [
        ("quantum_fit_slope", a);
        ("quantum_fit_intercept", b);
        ("block_exponent", f.block_exponent);
        ("naive_exponent", f.naive_exponent);
      ];
  }
