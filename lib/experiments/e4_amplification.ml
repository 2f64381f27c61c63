open Mathx

type row = {
  repetitions : int;
  member_accept_rate : float;
  nonmember_accept_rate : float;
  bound : float;
  reaches_oqbpl : bool;
}

let rows ?(quick = false) ~seed () =
  let rng = Rng.create seed in
  let k = 2 in
  let trials = if quick then 20 else 200 in
  let reps = if quick then [ 1; 2; 4 ] else [ 1; 2; 3; 4; 5; 6; 8 ] in
  List.map
    (fun repetitions ->
      let rate make =
        let accepts = ref 0 in
        for _ = 1 to trials do
          let inst : Lang.Instance.t = make (Rng.split rng) in
          let accept, _ =
            Oqsc.Recognizer.amplified ~rng:(Rng.split rng) ~repetitions
              inst.Lang.Instance.input
          in
          if accept then incr accepts
        done;
        float_of_int !accepts /. float_of_int trials
      in
      let member_accept_rate = rate (fun rng -> Lang.Instance.disjoint_pair rng ~k) in
      let nonmember_accept_rate =
        rate (fun rng -> Lang.Instance.intersecting_pair rng ~k ~t:1)
      in
      let bound = Oqsc.Recognizer.amplification_error_bound ~repetitions in
      {
        repetitions;
        member_accept_rate;
        nonmember_accept_rate;
        bound;
        reaches_oqbpl = bound <= 1.0 /. 3.0;
      })
    reps

let body ?quick ~seed () =
  let rs = rows ?quick ~seed () in
  {
    Report.tables =
      [
        Report.table
          ~title:"E4  Amplification to OQBPL (Corollary 3.5), k=2, t=1"
          ~header:[ "reps"; "member accept"; "non-member accept"; "(3/4)^r"; "reaches 2/3" ]
          (List.map
             (fun r ->
               [
                 Report.int r.repetitions;
                 Report.prob r.member_accept_rate;
                 Report.prob r.nonmember_accept_rate;
                 Report.prob r.bound;
                 Report.bool r.reaches_oqbpl;
               ])
             rs);
      ];
    notes = [];
    metrics = [];
  }
