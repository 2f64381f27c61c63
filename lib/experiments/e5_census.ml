type row = {
  machine : string;
  m : int;
  family_size : int;
  configs_at_cut : int;
  message_bits : float;
  fact22_log2_bound : float;
  peak_work_cells : int;
}

let log2 x = log x /. log 2.0

let all_blocks m = List.init (1 lsl m) (fun v -> v)

let block_string m v =
  String.init m (fun i -> if v lsr i land 1 = 1 then '1' else '0')

(* The u#u comparator: input family { u#u }, cut right after the '#'. *)
let copy_row m =
  let machine = Machine.Machines.copy_then_compare ~m in
  let inputs =
    List.map (fun v -> block_string m v ^ "#" ^ block_string m v) (all_blocks m)
  in
  let cut = m + 1 in
  let report =
    Comm.Reduction.induced_protocol_cost machine ~inputs ~cuts:[ cut ]
  in
  let configs =
    match report.Comm.Reduction.cuts with [ c ] -> c.Comm.Reduction.distinct | _ -> 0
  in
  let peak =
    List.fold_left
      (fun acc input ->
        let _, stats = Machine.Optm.run_deterministic machine input in
        max acc stats.Machine.Optm.peak_work_cells)
      0 inputs
  in
  {
    machine = "copy-then-compare";
    m;
    family_size = List.length inputs;
    configs_at_cut = configs;
    message_bits = log2 (float_of_int (max 1 configs));
    fact22_log2_bound =
      Machine.Optm.fact_2_2_log2_bound ~n:((2 * m) + 1) ~s:(peak + 1)
        ~states:machine.Machine.Optm.num_states;
    peak_work_cells = peak;
  }

(* The O(1)-space contrast: same family shape, constant census. *)
let remember_row m =
  let machine = Machine.Machines.remember_first in
  let inputs = List.map (fun v -> block_string m v ^ block_string m v) (all_blocks m) in
  let cut = m in
  let report = Comm.Reduction.induced_protocol_cost machine ~inputs ~cuts:[ cut ] in
  let configs =
    match report.Comm.Reduction.cuts with [ c ] -> c.Comm.Reduction.distinct | _ -> 0
  in
  let peak =
    List.fold_left
      (fun acc input ->
        let _, stats = Machine.Optm.run_deterministic machine input in
        max acc stats.Machine.Optm.peak_work_cells)
      0 inputs
  in
  {
    machine = "remember-first";
    m;
    family_size = List.length inputs;
    configs_at_cut = configs;
    message_bits = log2 (float_of_int (max 1 configs));
    fact22_log2_bound =
      Machine.Optm.fact_2_2_log2_bound ~n:(2 * m) ~s:(peak + 1)
        ~states:machine.Machine.Optm.num_states;
    peak_work_cells = peak;
  }

(* The compiled counting machine: inputs 1^a#1^a for a = 0..max_a; at the
   post-# cut the machine holds only the binary counter, so the census is
   max_a + 1 — logarithmic messages, the behaviour the Theorem 3.6 bound
   permits for languages easier than L_DISJ. *)
let counter_row max_a =
  let width =
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    max 2 (bits 0 max_a)
  in
  let compiled = Machine.Program.compile (Machine.Program.run_length_equal ~width) in
  let machine = Machine.Program.machine compiled in
  let census = Machine.Census.create () in
  let peak = ref 0 in
  for a = 0 to max_a do
    let run = String.make a '1' in
    let input = run ^ "#" ^ run in
    (match Machine.Optm.config_at_cut_deterministic machine input ~cut:(a + 1) with
    | Some c ->
        Machine.Census.record census ~cut:0
          (Printf.sprintf "%d|%d|%s" c.Machine.Optm.state c.Machine.Optm.work_pos
             c.Machine.Optm.work)
    | None -> ());
    let _, stats = Machine.Program.run compiled input in
    peak := max !peak stats.Machine.Optm.peak_work_cells
  done;
  let configs = Machine.Census.distinct census ~cut:0 in
  {
    machine = Printf.sprintf "compiled-counter w=%d" width;
    m = max_a;
    family_size = max_a + 1;
    configs_at_cut = configs;
    message_bits = log2 (float_of_int (max 1 configs));
    fact22_log2_bound =
      Machine.Optm.fact_2_2_log2_bound
        ~n:((2 * max_a) + 1)
        ~s:(!peak + 1) ~states:machine.Machine.Optm.num_states;
    peak_work_cells = !peak;
  }

(* Procedure A2's primitive as a compiled machine: the fingerprint
   comparator over u#u for all |u| = m.  Its census collapses to the
   distinct (acc, pow) pairs — O(p^2) regardless of 2^m — precisely the
   randomized-equality collapse that Theorem 3.2 rules out for DISJ. *)
let fingerprint_row m =
  let prime = 17 and t = 3 in
  let compiled = Machine.Program.compile (Machine.Program.fingerprint_eq ~p:prime ~t) in
  let machine = Machine.Program.machine compiled in
  let census = Machine.Census.create () in
  let peak = ref 0 in
  for v = 0 to (1 lsl m) - 1 do
    let u = String.init m (fun i -> if v lsr i land 1 = 1 then '1' else '0') in
    let input = u ^ "#" ^ u in
    (match Machine.Optm.config_at_cut_deterministic machine input ~cut:(m + 1) with
    | Some c ->
        Machine.Census.record census ~cut:0
          (Printf.sprintf "%d|%d|%s" c.Machine.Optm.state c.Machine.Optm.work_pos
             c.Machine.Optm.work)
    | None -> ());
    let _, stats = Machine.Program.run compiled input in
    peak := max !peak stats.Machine.Optm.peak_work_cells
  done;
  let configs = Machine.Census.distinct census ~cut:0 in
  {
    machine = Printf.sprintf "compiled-fingerprint p=%d" prime;
    m;
    family_size = 1 lsl m;
    configs_at_cut = configs;
    message_bits = log2 (float_of_int (max 1 configs));
    fact22_log2_bound =
      Machine.Optm.fact_2_2_log2_bound
        ~n:((2 * m) + 1)
        ~s:(!peak + 1) ~states:machine.Machine.Optm.num_states;
    peak_work_cells = !peak;
  }

let rows ?(quick = false) () =
  let ms = if quick then [ 2; 4 ] else [ 2; 4; 6; 8 ] in
  let counters = if quick then [ 3 ] else [ 3; 7; 15 ] in
  let fingerprints = if quick then [] else [ 4; 6 ] in
  List.map copy_row ms @ List.map remember_row ms @ List.map counter_row counters
  @ List.map fingerprint_row fingerprints

(* The reduction applied to the real Proposition 3.7 algorithm: the
   induced protocol sends one configuration (= workspace snapshot) at
   each of the 3*2^k - 1 segment boundaries; Theorem 3.2 demands the
   total beat Omega(m). *)
let block_protocol_line k =
  let rng = Mathx.Rng.create 65 in
  let inst = Lang.Instance.disjoint_pair rng ~k in
  let r = Oqsc.Classical_block.run ~rng inst.Lang.Instance.input in
  let cuts = (3 * (1 lsl k)) - 1 in
  let total = cuts * r.Oqsc.Classical_block.space_bits in
  Printf.sprintf
    "Thm 3.6 reduction on the Prop 3.7 algorithm (k=%d): %d cuts x %d-bit configurations = %d bits sent >= Omega(m) = %d, as Thm 3.2 demands"
    k cuts r.Oqsc.Classical_block.space_bits total (1 lsl (2 * k))

let body ?quick () =
  let rs = rows ?quick () in
  {
    Report.tables =
      [
        Report.table
          ~title:"E5  Configuration census at cuts -> induced protocol cost (Theorem 3.6)"
          ~header:
            [ "machine"; "m"; "family"; "configs@cut"; "msg bits"; "Fact 2.2 log2 cap"; "work cells" ]
          (List.map
             (fun r ->
               [
                 Report.str r.machine;
                 Report.int r.m;
                 Report.int r.family_size;
                 Report.int r.configs_at_cut;
                 Report.float r.message_bits;
                 Report.float r.fact22_log2_bound;
                 Report.int r.peak_work_cells;
               ])
             rs);
      ];
    notes =
      [
        "census regimes: copy = 2^m (forced memory); remember-first = O(1); compiled counter = family size; compiled fingerprint = O(p^2) sketch — the full spectrum Fact 2.2 admits";
        block_protocol_line (if quick = Some true then 2 else 4);
      ];
    metrics = [];
  }
