open Mathx

type row = {
  p : float;
  member_accept : float;
  nonmember_reject : float;
  trials : int;
}

(* Run A1 + A3 with a noise hook; A2 is irrelevant here (inputs are
   well-formed by construction) but the full pipeline semantics are kept:
   accept iff A3 outputs 1. *)
let noisy_a3_accepts rng ~p input =
  let ws = Machine.Workspace.create () in
  let noise_rng = Rng.split rng in
  let noise state = Quantum.Noise.depolarize_all noise_rng ~p state in
  match
    Oqsc.A1.drive ws
      (fun k -> Oqsc.A3.create ~noise ws rng ~k)
      Oqsc.A3.observe (Machine.Stream.of_string input)
  with
  | _, Some proc -> Oqsc.A3.sample_output proc rng
  | _, None -> false

let rows ?(quick = false) ~seed ~k () =
  let rng = Rng.create seed in
  let ps = if quick then [ 0.0; 0.02; 0.2 ] else [ 0.0; 0.001; 0.005; 0.02; 0.05; 0.1; 0.2 ] in
  let trials = if quick then 30 else 200 in
  List.map
    (fun p ->
      (* On the experiment's own domain, as in E3. *)
      let outcomes =
        Parallel.map_chunks ~domains:1 ~chunks:trials
          (fun ~chunk:_ ~rng ->
            let member = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
            let member_ok =
              noisy_a3_accepts (Rng.split rng) ~p member.Lang.Instance.input
            in
            let bad = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t:1 in
            let reject_ok =
              not (noisy_a3_accepts (Rng.split rng) ~p bad.Lang.Instance.input)
            in
            (member_ok, reject_ok))
          ~rng
      in
      let member_accepts = List.length (List.filter fst outcomes) in
      let nonmember_rejects = List.length (List.filter snd outcomes) in
      {
        p;
        member_accept = float_of_int member_accepts /. float_of_int trials;
        nonmember_reject = float_of_int nonmember_rejects /. float_of_int trials;
        trials;
      })
    ps

let body ?quick ~seed () =
  let k = 2 in
  let rs = rows ?quick ~seed ~k () in
  {
    Report.tables =
      [
        Report.table
          ~title:
            (Printf.sprintf
               "E14  Depolarizing noise vs the Theorem 3.4 guarantees (k=%d, t=1)" k)
          ~header:
            [ "noise p"; "member accept (1.0 at p=0)"; "non-member reject (>=0.25)"; "trials" ]
          (List.map
             (fun r ->
               [
                 Report.float ~text:(Printf.sprintf "%.3f" r.p) r.p;
                 Report.prob r.member_accept;
                 Report.prob r.nonmember_reject;
                 Report.int r.trials;
               ])
             rs);
      ];
    notes =
      [
        "perfect completeness is the first casualty; the 1/4 rejection margin survives moderate noise";
      ];
    metrics = [];
  }
