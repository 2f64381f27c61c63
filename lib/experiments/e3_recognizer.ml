open Mathx

type row = {
  k : int;
  kind : string;
  trials : int;
  accept_rate : float;
  mean_exact_accept : float;
  closed_form : float option;
  classical_bits : int;
  qubits : int;
}

type workload = { kind : string; make : Rng.t -> Lang.Instance.t; t : int option }

let workloads k =
  let m = 1 lsl (2 * k) in
  [
    { kind = "member"; make = (fun rng -> Lang.Instance.disjoint_pair rng ~k); t = None };
    {
      kind = "intersect t=1";
      make = (fun rng -> Lang.Instance.intersecting_pair rng ~k ~t:1);
      t = Some 1;
    };
    {
      kind = Printf.sprintf "intersect t=%d" (1 lsl k);
      make = (fun rng -> Lang.Instance.intersecting_pair rng ~k ~t:(1 lsl k));
      t = Some (1 lsl k);
    };
    {
      kind = Printf.sprintf "intersect t=%d" (max 1 (m / 4));
      make = (fun rng -> Lang.Instance.intersecting_pair rng ~k ~t:(max 1 (m / 4)));
      t = Some (max 1 (m / 4));
    };
    {
      kind = "corrupted rep";
      make =
        (fun rng ->
          Lang.Instance.corrupt_repetition rng
            ~base:(Lang.Instance.disjoint_pair rng ~k));
      t = None;
    };
    { kind = "malformed"; make = (fun rng -> Lang.Instance.malformed rng ~k); t = None };
  ]

let rows ?(quick = false) ~seed () =
  let rng = Rng.create seed in
  let ks = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let trials_for k = if quick then 20 else if k <= 2 then 400 else if k = 3 then 150 else 50 in
  List.concat_map
    (fun k ->
      let m = 1 lsl (2 * k) and rounds = 1 lsl k in
      let trials = trials_for k in
      List.map
        (fun w ->
          (* One chunk per trial keeps the in-order splits and per-chunk
             sinks; the trials run on the experiment's own domain, since
             the registry already spreads experiments over domains. *)
          let outcomes =
            Parallel.map_chunks ~domains:1 ~chunks:trials
              (fun ~chunk:_ ~rng ->
                let inst = w.make (Rng.split rng) in
                let r =
                  Oqsc.Recognizer.run ~rng:(Rng.split rng) inst.Lang.Instance.input
                in
                ( r.Oqsc.Recognizer.accept,
                  r.Oqsc.Recognizer.accept_probability,
                  r.Oqsc.Recognizer.space ))
              ~rng
          in
          let accepts = ref 0 and exact_sum = ref 0.0 in
          let bits = ref 0 and qubits = ref 0 in
          List.iter
            (fun (accept, prob, space) ->
              if accept then incr accepts;
              exact_sum := !exact_sum +. prob;
              bits := space.Oqsc.Recognizer.classical_bits;
              qubits := space.Oqsc.Recognizer.qubits)
            outcomes;
          let closed_form =
            Option.map
              (fun t -> 1.0 -. Grover.Analysis.avg_success_random_j ~rounds ~t ~space:m)
              w.t
          in
          {
            k;
            kind = w.kind;
            trials;
            accept_rate = float_of_int !accepts /. float_of_int trials;
            mean_exact_accept = !exact_sum /. float_of_int trials;
            closed_form;
            classical_bits = !bits;
            qubits = !qubits;
          })
        (workloads k))
    ks

let body ?quick ~seed () =
  let rs = rows ?quick ~seed () in
  {
    Report.tables =
      [
        Report.table
          ~title:"E3  Quantum online recognizer on L_DISJ (Theorem 3.4)"
          ~header:
            [ "k"; "workload"; "trials"; "accept rate"; "exact mean"; "closed form"; "bits"; "qubits" ]
          (List.map
             (fun r ->
               [
                 Report.int r.k;
                 Report.str r.kind;
                 Report.int r.trials;
                 Report.prob r.accept_rate;
                 Report.prob r.mean_exact_accept;
                 Report.opt Report.prob r.closed_form;
                 Report.int r.classical_bits;
                 Report.int r.qubits;
               ])
             rs);
      ];
    notes =
      [
        "members: accept rate 1.000 (one-sided); non-members: accept rate <= 0.75 (paper: reject >= 1/4)";
      ];
    metrics = [];
  }
