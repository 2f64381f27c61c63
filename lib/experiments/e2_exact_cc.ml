type row = {
  m : int;
  distinct_rows : int;
  one_way_cc : int;
  fooling_set : int;
  rank_gf2 : int;
  rank_real : int option;
  eq_one_way : int;  (* deterministic one-way CC of EQ: also m *)
  eq_randomized_bits : int;  (* measured fingerprint-protocol cost *)
}

let rows ?(quick = false) () =
  let rng = Mathx.Rng.create 2006 in
  let ms = if quick then [ 1; 2; 3; 4 ] else [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  List.map
    (fun m ->
      let eq_randomized_bits =
        (* The one-sided fingerprint protocol on random equal strings of
           length m: its cost is O(log m), the collapse DISJ provably
           cannot have. *)
        let u = Mathx.Bitvec.random rng m in
        let r =
          Comm.Classical.equality_fingerprint (Mathx.Rng.split rng) ~x:u
            ~y:(Mathx.Bitvec.copy u)
        in
        Comm.Transcript.total_cost r.Comm.Classical.transcript
      in
      {
        m;
        distinct_rows = Comm.Exact.distinct_rows ~n:m;
        one_way_cc = Comm.Exact.one_way_cc ~n:m;
        fooling_set = Comm.Exact.fooling_set_size ~n:m;
        rank_gf2 = Comm.Exact.rank_gf2 ~n:m;
        rank_real = (if m <= 8 then Some (Comm.Exact.rank_real ~n:m) else None);
        eq_one_way = Comm.Exact.one_way_cc_of ~n:m Comm.Exact.eq_mask;
        eq_randomized_bits;
      })
    ms

let body ?quick () =
  let rs = rows ?quick () in
  {
    Report.tables =
      [
        Report.table
          ~title:"E2  Exact lower-bound certificates for DISJ_m (Theorem 3.2)"
          ~header:
            [ "m"; "rows"; "one-way cc"; "fooling set"; "rank GF(2)"; "rank R";
              "EQ one-way"; "EQ rand bits" ]
          (List.map
             (fun r ->
               [
                 Report.int r.m;
                 Report.int r.distinct_rows;
                 Report.int r.one_way_cc;
                 Report.int r.fooling_set;
                 Report.int r.rank_gf2;
                 Report.opt Report.int r.rank_real;
                 Report.int r.eq_one_way;
                 Report.int r.eq_randomized_bits;
               ])
             rs);
      ];
    notes =
      [
        "DISJ certificates all full (Omega(m), Thm 3.2); EQ equally hard deterministically but collapses to O(log m) under randomness - a collapse Thm 3.2 rules out for DISJ";
      ];
    metrics = [];
  }
