open Machine
open Mathx

type space = { classical_bits : int; qubits : int }

type run = {
  accept : bool;
  accept_probability : float;
  space : space;
  k : int option;
  a1_ok : bool;
  a2_ok : bool;
}

let default_rng () = Rng.create 0xD15A

(* A3's dense state vector caps the simulable parameter; inputs with a
   larger k are astronomically long (n = Theta(2^{3k})), so the cap is
   a simulator limit, not an algorithmic one. *)
let simulation_max_k = 10

let run_stream ?rng stream =
  let rng = match rng with Some r -> r | None -> default_rng () in
  let ws = Workspace.create () in
  let start k =
    let a2 = A2.create ws rng ~k in
    (a2, A3.create ws rng ~k)
  in
  let observe (a2, a3) role =
    A2.observe a2 role;
    A3.observe a3 role
  in
  let a1, procs = A1.drive ws ~max_k:simulation_max_k start observe stream in
  let a1_ok = A1.finished_ok a1 in
  let a2_ok = match procs with Some (a2, _) -> A2.verdict a2 | None -> false in
  let space =
    { classical_bits = Workspace.peak_classical_bits ws; qubits = Workspace.qubits ws }
  in
  let k = A1.k a1 in
  match procs with
  | Some (_, a3) when a1_ok && a2_ok ->
      let accept_probability = 1.0 -. A3.prob_output_zero a3 in
      let accept = A3.sample_output a3 rng in
      { accept; accept_probability; space; k; a1_ok; a2_ok }
  | _ -> { accept = false; accept_probability = 0.0; space; k; a1_ok; a2_ok }

let run ?rng input = run_stream ?rng (Stream.of_string input)

let accepts_complement r = not r.accept

let amplification_error_bound ~repetitions = 0.75 ** float_of_int repetitions

let amplified ?rng ~repetitions input =
  if repetitions < 1 then invalid_arg "Recognizer.amplified: need >= 1 repetition";
  let rng = match rng with Some r -> r | None -> default_rng () in
  let all_accept = ref true and prob = ref 1.0 in
  for _ = 1 to repetitions do
    let r = run ~rng:(Rng.split rng) input in
    if not r.accept then all_accept := false;
    prob := !prob *. r.accept_probability
  done;
  (!all_accept, !prob)
