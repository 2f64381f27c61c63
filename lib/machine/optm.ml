open Mathx

type move = Left | Right | Stay

type action = {
  next_state : int;
  write : Symbol.work;
  work_move : move;
  advance_input : bool;
  emit : char option;
}

type step = Halt of bool | Branch of (action * float) list

type t = {
  name : string;
  num_states : int;
  start_state : int;
  delta : state:int -> input:Symbol.t option -> work:Symbol.work -> step;
}

type config = { state : int; input_pos : int; work_pos : int; work : string }

type stats = { steps : int; peak_work_cells : int; halted : bool }

(* Mutable run state: a growable work tape. *)
type live = {
  mutable state : int;
  mutable input_pos : int;
  mutable work_pos : int;
  mutable tape : Bytes.t;
  mutable peak : int;
}

let blank = '_'

let fresh_live m =
  { state = m.start_state; input_pos = 0; work_pos = 0; tape = Bytes.make 16 blank; peak = 0 }

let ensure_cell live pos =
  if pos >= Bytes.length live.tape then begin
    let bigger = Bytes.make (2 * max (pos + 1) (Bytes.length live.tape)) blank in
    Bytes.blit live.tape 0 bigger 0 (Bytes.length live.tape);
    live.tape <- bigger
  end

(* The step loop reads a symbol from each tape on every step; these
   shared values keep those reads from allocating. *)
let work_zero = Symbol.Sym Symbol.Zero
let work_one = Symbol.Sym Symbol.One
let work_hash = Symbol.Sym Symbol.Hash
let input_zero = Some Symbol.Zero
let input_one = Some Symbol.One
let input_hash = Some Symbol.Hash

let read_work live =
  ensure_cell live live.work_pos;
  match Bytes.get live.tape live.work_pos with
  | '_' -> Symbol.Blank
  | '0' -> work_zero
  | '1' -> work_one
  | '#' -> work_hash
  | c -> Symbol.Sym (Symbol.of_char c)

let input_symbol input pos =
  if pos >= String.length input then None
  else
    match input.[pos] with
    | '0' -> input_zero
    | '1' -> input_one
    | '#' -> input_hash
    | c -> Some (Symbol.of_char c)

let apply_action ?output live (a : action) =
  (match (output, a.emit) with
  | Some buf, Some c -> Buffer.add_char buf c
  | _ -> ());
  ensure_cell live live.work_pos;
  Bytes.set live.tape live.work_pos (Symbol.work_to_char a.write);
  if live.work_pos + 1 > live.peak then live.peak <- live.work_pos + 1;
  (match a.work_move with
  | Left -> if live.work_pos > 0 then live.work_pos <- live.work_pos - 1
  | Right ->
      live.work_pos <- live.work_pos + 1;
      ensure_cell live live.work_pos;
      if live.work_pos + 1 > live.peak then live.peak <- live.work_pos + 1
  | Stay -> ());
  if a.advance_input then live.input_pos <- live.input_pos + 1;
  live.state <- a.next_state

let check_action m (a : action) =
  if a.next_state < 0 || a.next_state >= m.num_states then
    Fmt.failwith "OPTM %s: transition to state %d outside [0, %d)" m.name
      a.next_state m.num_states

let validate m =
  if m.num_states <= 0 then Fmt.failwith "OPTM %s: no states" m.name;
  if m.start_state < 0 || m.start_state >= m.num_states then
    Fmt.failwith "OPTM %s: bad start state" m.name;
  let inputs = [ None; Some Symbol.Zero; Some Symbol.One; Some Symbol.Hash ] in
  let works =
    [ Symbol.Blank; Symbol.Sym Symbol.Zero; Symbol.Sym Symbol.One; Symbol.Sym Symbol.Hash ]
  in
  for state = 0 to m.num_states - 1 do
    List.iter
      (fun input ->
        List.iter
          (fun work ->
            match m.delta ~state ~input ~work with
            | Halt _ -> ()
            | Branch actions ->
                if actions = [] then
                  Fmt.failwith "OPTM %s: empty branch in state %d" m.name state;
                let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 actions in
                if Float.abs (total -. 1.0) > 1e-9 then
                  Fmt.failwith "OPTM %s: branch weights sum to %g in state %d"
                    m.name total state;
                List.iter
                  (fun (a, p) ->
                    if p < 0.0 then Fmt.failwith "OPTM %s: negative weight" m.name;
                    check_action m a)
                  actions)
          works)
      inputs
  done

let default_max_steps = 10_000_000

let step_once ?output m live input choose =
  let in_sym = input_symbol input live.input_pos in
  let work = read_work live in
  match m.delta ~state:live.state ~input:in_sym ~work with
  | Halt verdict -> Some verdict
  | Branch actions ->
      let a = choose actions in
      check_action m a;
      apply_action ?output live a;
      None

let run_with ?output ?(max_steps = default_max_steps) m input choose =
  let live = fresh_live m in
  let rec go steps =
    if steps >= max_steps then
      (None, { steps; peak_work_cells = live.peak; halted = false })
    else
      match step_once ?output m live input choose with
      | Some verdict ->
          (Some verdict, { steps = steps + 1; peak_work_cells = live.peak; halted = true })
      | None -> go (steps + 1)
  in
  let ((_, stats) as result) = go 0 in
  Obs.Scope.incr "optm.runs";
  Obs.Scope.add "optm.steps" stats.steps;
  Obs.Scope.gauge_observe "optm.work_cells" stats.peak_work_cells;
  result

let deterministic_choose = function
  | [ (a, _) ] -> a
  | _ -> invalid_arg "Optm.run_deterministic: machine is probabilistic"

let run_deterministic ?max_steps m input =
  run_with ?max_steps m input deterministic_choose

let run_deterministic_with_output ?max_steps m input =
  let buf = Buffer.create 64 in
  let result = run_with ~output:buf ?max_steps m input deterministic_choose in
  (result, Buffer.contents buf)

let sampling_choose rng actions =
  let r = Rng.float rng in
  let rec pick acc = function
    | [ (a, _) ] -> a
    | (a, p) :: rest -> if r < acc +. p then a else pick (acc +. p) rest
    | [] -> assert false
  in
  pick 0.0 actions

let run_sampled ?max_steps m rng input =
  run_with ?max_steps m input (sampling_choose rng)

let run_sampled_with_output ?max_steps m rng input =
  let buf = Buffer.create 64 in
  let result = run_with ~output:buf ?max_steps m input (sampling_choose rng) in
  (result, Buffer.contents buf)

let acceptance_probability ?max_steps ?(trials = 1000) m rng input =
  let accepts = ref 0 in
  for _ = 1 to trials do
    match run_sampled ?max_steps m rng input with
    | Some true, _ -> incr accepts
    | (Some false | None), _ -> ()
  done;
  float_of_int !accepts /. float_of_int trials

let canonical_work live =
  (* Trim trailing blanks so that equal contents compare equal. *)
  let len = ref (Bytes.length live.tape) in
  while !len > 0 && Bytes.get live.tape (!len - 1) = blank do
    decr len
  done;
  Bytes.sub_string live.tape 0 !len

let config_of_live live =
  {
    state = live.state;
    input_pos = live.input_pos;
    work_pos = live.work_pos;
    work = canonical_work live;
  }

let live_of_config m (c : config) =
  let live = fresh_live m in
  live.state <- c.state;
  live.input_pos <- c.input_pos;
  live.work_pos <- c.work_pos;
  live.tape <- Bytes.of_string c.work;
  ensure_cell live (max c.work_pos 0);
  live.peak <- String.length c.work;
  live

module Config_set = Set.Make (struct
  type t = config

  let compare = compare
end)

let explore ?(max_steps = default_max_steps) ?(max_configs = 1_000_000) m input
    ~on_visit =
  (* [on_visit c ~just_advanced] is called once per distinct reachable
     configuration; [just_advanced] is true when the transition into [c]
     moved the input head (or [c] is the initial configuration), i.e.
     when [c] is the configuration "at the first scan" of its input
     position — the object the Theorem 3.6 protocol transmits. *)
  let seen = ref Config_set.empty in
  let queue = Queue.create () in
  let start = config_of_live (fresh_live m) in
  seen := Config_set.add start !seen;
  Queue.add (start, 0) queue;
  on_visit start ~just_advanced:true;
  while not (Queue.is_empty queue) do
    let c, depth = Queue.pop queue in
    if depth < max_steps then begin
      let live = live_of_config m c in
      let in_sym = input_symbol input live.input_pos in
      let work = read_work live in
      match m.delta ~state:live.state ~input:in_sym ~work with
      | Halt _ -> ()
      | Branch actions ->
          List.iter
            (fun (a, p) ->
              if p > 0.0 then begin
                let live' = live_of_config m c in
                check_action m a;
                apply_action live' a;
                let c' = config_of_live live' in
                if not (Config_set.mem c' !seen) then begin
                  if Config_set.cardinal !seen >= max_configs then
                    failwith "Optm.explore: configuration cap exceeded";
                  seen := Config_set.add c' !seen;
                  on_visit c' ~just_advanced:a.advance_input;
                  Queue.add (c', depth + 1) queue
                end
              end)
            actions
    end
  done;
  !seen

let reachable_configs ?max_steps ?max_configs m input =
  let all =
    explore ?max_steps ?max_configs m input ~on_visit:(fun _ ~just_advanced:_ -> ())
  in
  Config_set.elements all

let configs_at_cut ?max_steps ?max_configs m input ~cut =
  let hits = ref Config_set.empty in
  let _ =
    explore ?max_steps ?max_configs m input ~on_visit:(fun c ~just_advanced ->
        if just_advanced && c.input_pos = cut then hits := Config_set.add c !hits)
  in
  Config_set.elements !hits

let config_at_cut_deterministic ?(max_steps = default_max_steps) m input ~cut =
  let live = fresh_live m in
  let result = ref None in
  if cut = 0 then result := Some (config_of_live live);
  (try
     for _ = 1 to max_steps do
       if !result <> None then raise Exit;
       let before = live.input_pos in
       match step_once m live input deterministic_choose with
       | Some _ -> raise Exit
       | None ->
           if live.input_pos > before && live.input_pos = cut then
             result := Some (config_of_live live)
     done
   with Exit -> ());
  !result

let fact_2_2_log2_bound ~n ~s ~states =
  let log2 x = log x /. log 2.0 in
  log2 (float_of_int (max n 1))
  +. log2 (float_of_int (max s 1))
  +. (float_of_int s *. 2.0)
  +. log2 (float_of_int states)
