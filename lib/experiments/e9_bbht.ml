open Mathx

type row = {
  t : int;
  simulated : float;
  closed_form : float;
  by_sum : float;
  above_quarter : bool;
  bbht_schedule_found : float;
}

(* Exact rejection probability of A3 with iteration count [j] on a fixed
   instance, by streaming the input through A1 + A3. *)
let a3_reject_prob ~j input =
  let ws = Machine.Workspace.create () in
  let rng = Rng.create 7 in
  match
    Oqsc.A1.drive ws
      (fun k -> Oqsc.A3.create ~force_j:j ws rng ~k)
      Oqsc.A3.observe (Machine.Stream.of_string input)
  with
  | _, Some p -> Oqsc.A3.prob_output_zero p
  | _, None -> 0.0

let rows ?(quick = false) ~seed ~k () =
  let rng = Rng.create seed in
  let m = 1 lsl (2 * k) and rounds = 1 lsl k in
  let ts =
    if quick then [ 1; 2 ]
    else List.filter (fun t -> t <= m) [ 1; 2; 4; 8; 16; 32; m - 1; m ]
  in
  let bbht_trials = if quick then 10 else 60 in
  List.map
    (fun t ->
      let inst = Lang.Instance.intersecting_pair (Rng.split rng) ~k ~t in
      let acc = ref 0.0 in
      for j = 0 to rounds - 1 do
        acc := !acc +. a3_reject_prob ~j inst.Lang.Instance.input
      done;
      let simulated = !acc /. float_of_int rounds in
      let closed_form = Grover.Analysis.avg_success_random_j ~rounds ~t ~space:m in
      let by_sum = Grover.Analysis.avg_success_random_j_by_sum ~rounds ~t ~space:m in
      (* Ablation: doubling-schedule BBHT search on the same oracle. *)
      let oracle =
        match Lang.Ldisj.parse inst.Lang.Instance.input with
        | Ok { Lang.Ldisj.x; y; _ } -> Grover.Oracle.conjunction x y
        | Error reason -> Fmt.failwith "E9: generated instance does not parse (%s)" reason
      in
      let found = ref 0 in
      for _ = 1 to bbht_trials do
        let outcome = Grover.Bbht.search (Rng.split rng) oracle in
        if outcome.Grover.Bbht.found <> None then incr found
      done;
      {
        t;
        simulated;
        closed_form;
        by_sum;
        above_quarter = simulated >= 0.25 -. 1e-9;
        bbht_schedule_found = float_of_int !found /. float_of_int bbht_trials;
      })
    ts

let body ?quick ~seed () =
  let k = 3 in
  let rs = rows ?quick ~seed ~k () in
  let f5 v = Report.float ~text:(Printf.sprintf "%.5f" v) v in
  {
    Report.tables =
      [
        Report.table
          ~title:
            (Printf.sprintf "E9  A3 rejection probability vs BBHT closed form (k=%d, m=%d)"
               k (1 lsl (2 * k)))
          ~header:
            [ "t"; "simulated"; "closed form"; "finite sum"; ">= 1/4"; "BBHT-doubling found" ]
          (List.map
             (fun r ->
               [
                 Report.int r.t;
                 f5 r.simulated;
                 f5 r.closed_form;
                 f5 r.by_sum;
                 Report.bool r.above_quarter;
                 Report.prob r.bbht_schedule_found;
               ])
             rs);
      ];
    notes = [];
    metrics = [];
  }
