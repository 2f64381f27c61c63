open Mathx

type row = {
  budget : int;
  bucket_false_claim : float;
  subsample_miss : float;
  space_bits_bucket : int;
  space_bits_subsample : int;
}

let rows ?(quick = false) ~seed ~k () =
  let rng = Rng.create seed in
  let trials = if quick then 15 else 120 in
  let threshold = 1 lsl k in
  let budgets =
    List.filter
      (fun b -> b >= 1)
      [
        threshold / 4;
        threshold / 2;
        threshold;
        threshold * 2;
        threshold * 4;
        threshold * 16;
      ]
  in
  (* Sparse members stress the bucket filter honestly: with dense random
     strings every bucket fills and the filter is hopeless at any
     sub-linear budget; with weight-2^k strings the collision structure
     is in the birthday regime the budget sweep probes. *)
  let weight = 1 lsl k in
  List.map
    (fun budget ->
      let bucket_errors = ref 0 and bucket_bits = ref 0 in
      let miss = ref 0 and sub_bits = ref 0 in
      for _ = 1 to trials do
        (* Member instance (weight-limited, relabelled if it intersects). *)
        let inst =
          let rec try_draw attempts =
            let cand = Lang.Instance.sparse_pair (Rng.split rng) ~k ~weight in
            if Lang.Instance.is_member cand || attempts > 20 then cand
            else try_draw (attempts + 1)
          in
          try_draw 0
        in
        if Lang.Instance.is_member inst then begin
          let r =
            Oqsc.Sketch.run ~rng:(Rng.split rng) ~strategy:Oqsc.Sketch.Bucket_filter
              ~budget inst.Lang.Instance.input
          in
          if r.Oqsc.Sketch.claims_intersecting then incr bucket_errors;
          bucket_bits := r.Oqsc.Sketch.space_bits
        end;
        let bad = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t:1 in
        let r =
          Oqsc.Sketch.run ~rng:(Rng.split rng) ~strategy:Oqsc.Sketch.Subsample ~budget
            bad.Lang.Instance.input
        in
        if not r.Oqsc.Sketch.claims_intersecting then incr miss;
        sub_bits := r.Oqsc.Sketch.space_bits
      done;
      {
        budget;
        bucket_false_claim = float_of_int !bucket_errors /. float_of_int trials;
        subsample_miss = float_of_int !miss /. float_of_int trials;
        space_bits_bucket = !bucket_bits;
        space_bits_subsample = !sub_bits;
      })
    budgets

let body ?quick ~seed () =
  let k = 3 in
  let rs = rows ?quick ~seed ~k () in
  {
    Report.tables =
      [
        Report.table
          ~title:
            (Printf.sprintf
               "E6  Classical sketches against the n^(1/3) wall (k=%d, threshold 2^k=%d bits)"
               k (1 lsl k))
          ~header:
            [ "budget"; "bucket false+"; "subsample miss"; "bits(bucket)"; "bits(subsample)" ]
          (List.map
             (fun r ->
               [
                 Report.int r.budget;
                 Report.prob r.bucket_false_claim;
                 Report.prob r.subsample_miss;
                 Report.int r.space_bits_bucket;
                 Report.int r.space_bits_subsample;
               ])
             rs);
      ];
    notes =
      [ "errors fall only once the budget clears the 2^k threshold the lower bound predicts" ];
    metrics = [];
  }
