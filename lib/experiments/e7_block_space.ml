open Mathx

type row = {
  k : int;
  n : int;
  space_bits : int;
  storage_bits : int;
  ratio : float;  (** space / n^{1/3} *)
  n_cuberoot : float;
  member_ok : bool;
  intersect_ok : bool;
}

let rows ?(quick = false) ~seed () =
  let rng = Rng.create seed in
  let ks = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.map
    (fun k ->
      let member = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
      let bad = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t:1 in
      let rm = Oqsc.Classical_block.run ~rng:(Rng.split rng) member.Lang.Instance.input in
      let rb = Oqsc.Classical_block.run ~rng:(Rng.split rng) bad.Lang.Instance.input in
      let n = String.length member.Lang.Instance.input in
      let n_cuberoot = Float.pow (float_of_int n) (1.0 /. 3.0) in
      {
        k;
        n;
        space_bits = rm.Oqsc.Classical_block.space_bits;
        storage_bits = rm.Oqsc.Classical_block.storage_bits;
        ratio = float_of_int rm.Oqsc.Classical_block.space_bits /. n_cuberoot;
        n_cuberoot;
        member_ok = rm.Oqsc.Classical_block.accept;
        intersect_ok = not rb.Oqsc.Classical_block.accept;
      })
    ks

(* Fit on the upper half of the sweep, where the Theta(n^{1/3}) storage
   term dominates the O(log n) counters. *)
let slope rows =
  let len = List.length rows in
  let keep = max 2 ((len + 1) / 2) in
  let rows = List.filteri (fun i _ -> i >= len - keep) rows in
  fst
    (Cstats.loglog_slope
       (List.map (fun r -> (float_of_int r.n, float_of_int r.space_bits)) rows))

let storage_slope rows =
  fst
    (Cstats.loglog_slope
       (List.map (fun r -> (float_of_int r.n, float_of_int r.storage_bits)) rows))

let body ?quick ~seed () =
  let rs = rows ?quick ~seed () in
  let storage = storage_slope rs and total = slope rs in
  {
    Report.tables =
      [
        Report.table
          ~title:"E7  Classical block algorithm: exact in Theta(n^(1/3)) space (Prop. 3.7)"
          ~header:
            [ "k"; "n"; "space bits"; "storage bits"; "n^(1/3)"; "space/n^(1/3)"; "member ok"; "intersect ok" ]
          (List.map
             (fun r ->
               [
                 Report.int r.k;
                 Report.int r.n;
                 Report.int r.space_bits;
                 Report.int r.storage_bits;
                 Report.float r.n_cuberoot;
                 Report.float r.ratio;
                 Report.bool r.member_ok;
                 Report.bool r.intersect_ok;
               ])
             rs);
      ];
    notes =
      [
        Printf.sprintf
          "storage term slope vs n: %.3f (theory 1/3); total slope on upper half: %.3f (counters amortize away)"
          storage total;
      ];
    metrics = [ ("storage_slope", storage); ("total_slope_upper_half", total) ];
  }
