open Mathx
open Machine

type row = {
  machine : string;
  control_states : int;
  sample_input_length : int;
  steps : int;
  tape_cells : int;
  agree : bool;
}

(* Run the compiled machine over a labelled workload; the row reports the
   largest input's stats. *)
let gallery_row program workload =
  let machine = Program.compile program in
  let agree = ref true in
  let steps = ref 0 and cells = ref 0 and longest = ref 0 in
  List.iter
    (fun (input, expected) ->
      let v, stats = Program.run ~max_steps:20_000_000 machine input in
      if v <> Some expected then agree := false;
      if String.length input >= !longest then begin
        longest := String.length input;
        steps := stats.Optm.steps;
        cells := stats.Optm.peak_work_cells
      end)
    workload;
  {
    machine = Program.name machine;
    control_states = Program.states machine;
    sample_input_length = !longest;
    steps = !steps;
    tape_cells = !cells;
    agree = !agree;
  }

let rows ?(quick = false) ~seed () =
  let rng = Rng.create seed in
  let parity_workload =
    List.map (fun s -> (s, true)) [ ""; "11"; "0101" ]
    @ List.map (fun s -> (s, false)) [ "1"; "111" ]
  in
  let run_length_workload =
    [ ("111#111", true); ("1111#111", false); ("#", true); ("111111#111111", true) ]
  in
  let fp p t =
    let f u = Fingerprint.of_bitvec ~p ~t (Bitvec.of_string u) in
    let pair u v = (u ^ "#" ^ v, f u = f v) in
    [ pair "1011" "1011"; pair "1011" "1010"; pair "11010" "01011"; pair "" "" ]
  in
  let shape_k = if quick then 2 else 3 in
  let shape_workload =
    let base =
      (Lang.Instance.disjoint_pair (Rng.split rng) ~k:shape_k).Lang.Instance.input
    in
    [
      (base, true);
      (String.sub base 0 (String.length base - 1), false);
      (base ^ "0", false);
      ((Lang.Instance.disjoint_pair (Rng.split rng) ~k:1).Lang.Instance.input, true);
    ]
  in
  [
    gallery_row Program.parity parity_workload;
    gallery_row (Program.run_length_equal ~width:5) run_length_workload;
    gallery_row (Program.fingerprint_eq ~p:17 ~t:3) (fp 17 3);
    gallery_row (Program.ldisj_shape ~width:7) shape_workload;
  ]

let body ?quick ~seed () =
  let rs = rows ?quick ~seed () in
  {
    Report.tables =
      [
        Report.table
          ~title:"E15  Compiled Turing machines: the paper's primitives as real OPTMs"
          ~header:[ "machine"; "control states"; "longest input"; "steps"; "tape cells"; "agree" ]
          (List.map
             (fun r ->
               [
                 Report.str r.machine;
                 Report.int r.control_states;
                 Report.int r.sample_input_length;
                 Report.int r.steps;
                 Report.int r.tape_cells;
                 Report.bool r.agree;
               ])
             rs);
      ];
    notes =
      [
        "the ldisj-shape machine is procedure A1 compiled: its tape is a fixed register file while n grows without bound";
      ];
    metrics = [];
  }
