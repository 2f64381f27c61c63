open Mathx

type row = {
  k : int;
  j : int;
  structured_gates : int;
  basis_gates : int;
  t_count : int;
  ancillas : int;
  wire_chars : int;
  wire_roundtrip_ok : bool;
  equivalent : bool;
  max_deviation : float;
  budget_constant : float;
      (* smallest c with gates <= 2^{c log2 n} = n^c; Def 2.3 needs c = O(1) *)
  input_length : int;
  optimized_gates : int;  (* after the peephole pass *)
  optimized_equivalent : bool;
}

let a3_circuit ~j input =
  let ws = Machine.Workspace.create () in
  let rng = Rng.create 11 in
  match
    Oqsc.A1.drive ws
      (fun k -> Oqsc.A3.create ~emit_circuit:true ~force_j:j ws rng ~k)
      Oqsc.A3.observe (Machine.Stream.of_string input)
  with
  | _, Some p -> (
      match Oqsc.A3.circuit p with Some c -> c | None -> assert false)
  | _, None -> failwith "E11: input had no prefix separator"

let rows ?(quick = false) ~seed () =
  let rng = Rng.create seed in
  let cases = if quick then [ (1, 1) ] else [ (1, 0); (1, 1); (2, 1); (2, 3) ] in
  List.map
    (fun (k, j) ->
      let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      let structured = a3_circuit ~j inst.Lang.Instance.input in
      let basis = Circuit.Lower.to_basis structured in
      let ancillas = Circuit.Circ.nqubits basis - Circuit.Circ.nqubits structured in
      let wire = Circuit.Wire.emit basis in
      let reparsed = Circuit.Wire.parse ~nqubits:(Circuit.Circ.nqubits basis) wire in
      let wire_roundtrip_ok =
        Circuit.Circ.gates reparsed = Circuit.Circ.gates basis
      in
      let report =
        Circuit.Verify.compare ~reference:structured ~candidate:basis ()
      in
      let optimized, _ = Circuit.Optimize.with_report basis in
      let optimized_equivalent =
        Circuit.Verify.equivalent ~reference:structured ~candidate:optimized ()
      in
      let input_length = String.length inst.Lang.Instance.input in
      {
        k;
        j;
        structured_gates = Circuit.Circ.length structured;
        basis_gates = Circuit.Circ.length basis;
        t_count = Circuit.Lower.t_count basis;
        ancillas;
        wire_chars = String.length wire;
        wire_roundtrip_ok;
        equivalent = report.Circuit.Verify.equivalent;
        max_deviation = report.Circuit.Verify.max_deviation;
        budget_constant =
          log (float_of_int (max 2 (Circuit.Circ.length basis)))
          /. log (float_of_int input_length);
        input_length;
        optimized_gates = Circuit.Circ.length optimized;
        optimized_equivalent;
      })
    cases

let body ?quick ~seed () =
  let rs = rows ?quick ~seed () in
  {
    Report.tables =
      [
        Report.table
          ~title:"E11  Lowering A3's circuit to {H, T, CNOT} (Definition 2.3)"
          ~header:
            [
              "k"; "j"; "structured"; "basis"; "optimized"; "T count"; "ancillas";
              "wire chars"; "roundtrip"; "equivalent"; "opt equiv"; "max dev"; "budget c";
            ]
          (List.map
             (fun r ->
               [
                 Report.int r.k;
                 Report.int r.j;
                 Report.int r.structured_gates;
                 Report.int r.basis_gates;
                 Report.int r.optimized_gates;
                 Report.int r.t_count;
                 Report.int r.ancillas;
                 Report.int r.wire_chars;
                 Report.bool r.wire_roundtrip_ok;
                 Report.bool r.equivalent;
                 Report.bool r.optimized_equivalent;
                 Report.float ~text:(Printf.sprintf "%.2e" r.max_deviation) r.max_deviation;
                 Report.float ~text:(Printf.sprintf "%.2f" r.budget_constant) r.budget_constant;
               ])
             rs);
      ];
    notes = [];
    metrics = [];
  }
