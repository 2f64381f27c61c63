open Mathx

type row = {
  k : int;
  m : int;
  qubits_per_message : int;
  cost_disjoint : float;
  cost_one_hit : float;
  correct : bool;
  reference : float;
  classical : int;
}

let disjoint_pair rng m =
  let x = Bitvec.random rng m in
  let y = Bitvec.create m in
  for i = 0 to m - 1 do
    if not (Bitvec.get x i) then Bitvec.set y i (Rng.bool rng)
  done;
  (x, y)

let one_hit_pair rng m =
  let x, y = disjoint_pair rng m in
  let i = Rng.int rng m in
  Bitvec.set x i true;
  Bitvec.set y i true;
  (x, y)

let rows ?(quick = false) ~seed () =
  let rng = Rng.create seed in
  let ks = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5 ] in
  let trials = if quick then 3 else 10 in
  List.map
    (fun k ->
      let m = 1 lsl (2 * k) in
      let run_family make_pair expect_disjoint =
        let costs = Array.make trials 0.0 in
        let all_correct = ref true in
        for t = 0 to trials - 1 do
          let x, y = make_pair (Rng.split rng) m in
          let r = Comm.Bcw.run (Rng.split rng) ~x ~y in
          costs.(t) <- float_of_int (Comm.Transcript.total_cost r.Comm.Bcw.transcript);
          if r.Comm.Bcw.disjoint <> expect_disjoint then all_correct := false
        done;
        (Cstats.mean costs, !all_correct)
      in
      let cost_disjoint, ok1 = run_family disjoint_pair true in
      let cost_one_hit, ok2 = run_family one_hit_pair false in
      {
        k;
        m;
        qubits_per_message = Comm.Bcw.qubits_per_message ~n:m;
        cost_disjoint;
        cost_one_hit;
        correct = ok1 && ok2;
        reference = Comm.Bcw.expected_cost ~n:m;
        classical = m + 1;
      })
    ks

let slope rows =
  let points =
    List.map (fun r -> (float_of_int r.m, r.cost_disjoint)) rows
  in
  fst (Cstats.loglog_slope points)

let body ?quick ~seed () =
  let rs = rows ?quick ~seed () in
  let s = slope rs in
  {
    Report.tables =
      [
        Report.table
          ~title:"E1  BCW quantum protocol cost for DISJ_m (Theorem 3.1)"
          ~header:
            [ "k"; "m"; "qb/msg"; "cost(disj)"; "cost(t=1)"; "O(sqrt m log m)"; "classical"; "ok" ]
          (List.map
             (fun r ->
               [
                 Report.int r.k;
                 Report.int r.m;
                 Report.int r.qubits_per_message;
                 Report.float r.cost_disjoint;
                 Report.float r.cost_one_hit;
                 Report.float r.reference;
                 Report.int r.classical;
                 Report.bool r.correct;
               ])
             rs);
      ];
    notes =
      [
        Printf.sprintf
          "fitted slope of cost vs m: %.3f (sqrt scaling ~ 0.5-0.7; classical = 1)" s;
      ];
    metrics = [ ("cost_slope_vs_m", s) ];
  }
