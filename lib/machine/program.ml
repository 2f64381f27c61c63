type instr =
  | Read of { on_zero : int; on_one : int; on_hash : int; on_eof : int }
  | Inc of { reg : int; next : int }
  | Reset of { reg : int; next : int }
  | Set of { reg : int; value : int; next : int }
  | Add of { dst : int; src : int; next : int }
  | Sub of { dst : int; src : int; next : int }
  | Jump_if_eq of { reg_a : int; reg_b : int; if_eq : int; if_ne : int }
  | Jump_if_lt of { reg_a : int; reg_b : int; if_lt : int; if_ge : int }
  | Jump_if_max of { reg : int; if_max : int; if_not : int }
  | Emit of { symbol : char; next : int }
  | Goto of int
  | Accept
  | Reject

type t = { name : string; width : int; registers : int; code : instr array }

let validate p =
  if p.width < 1 || p.width > 30 then Fmt.failwith "Program %s: width out of range" p.name;
  if p.registers < 1 then Fmt.failwith "Program %s: need a register" p.name;
  if Array.length p.code = 0 then Fmt.failwith "Program %s: empty" p.name;
  let target t =
    if t < 0 || t >= Array.length p.code then
      Fmt.failwith "Program %s: jump target %d out of range" p.name t
  in
  let reg r =
    if r < 0 || r >= p.registers then
      Fmt.failwith "Program %s: register %d out of range" p.name r
  in
  Array.iter
    (fun i ->
      match i with
      | Read { on_zero; on_one; on_hash; on_eof } ->
          target on_zero;
          target on_one;
          target on_hash;
          target on_eof
      | Inc { reg = r; next } | Reset { reg = r; next } ->
          reg r;
          target next
      | Set { reg = r; value; next } ->
          reg r;
          target next;
          if value < 0 || value >= 1 lsl p.width then
            Fmt.failwith "Program %s: constant %d does not fit" p.name value
      | Add { dst; src; next } | Sub { dst; src; next } ->
          reg dst;
          reg src;
          target next
      | Jump_if_eq { reg_a; reg_b; if_eq; if_ne } ->
          reg reg_a;
          reg reg_b;
          target if_eq;
          target if_ne
      | Jump_if_lt { reg_a; reg_b; if_lt; if_ge } ->
          reg reg_a;
          reg reg_b;
          target if_lt;
          target if_ge
      | Jump_if_max { reg = r; if_max; if_not } ->
          reg r;
          target if_max;
          target if_not
      | Emit { next; _ } -> target next
      | Goto next -> target next
      | Accept | Reject -> ())
    p.code

(* ------------------------------------------------------- interpretation *)

type run_result = {
  verdict : bool option;
  output : string;
  final_registers : int array;
}

let interpret ?(max_steps = 1_000_000) p input =
  validate p;
  let regs = Array.make p.registers 0 in
  let buf = Buffer.create 16 in
  let modulus = 1 lsl p.width in
  let pos = ref 0 in
  let rec go pc steps =
    if steps >= max_steps then None
    else begin
      match p.code.(pc) with
      | Accept -> Some true
      | Reject -> Some false
      | Goto next -> go next (steps + 1)
      | Emit { symbol; next } ->
          Buffer.add_char buf symbol;
          go next (steps + 1)
      | Inc { reg; next } ->
          regs.(reg) <- (regs.(reg) + 1) mod modulus;
          go next (steps + 1)
      | Reset { reg; next } ->
          regs.(reg) <- 0;
          go next (steps + 1)
      | Set { reg; value; next } ->
          regs.(reg) <- value;
          go next (steps + 1)
      | Add { dst; src; next } ->
          regs.(dst) <- (regs.(dst) + regs.(src)) mod modulus;
          go next (steps + 1)
      | Sub { dst; src; next } ->
          regs.(dst) <- (regs.(dst) - regs.(src) + modulus) mod modulus;
          go next (steps + 1)
      | Jump_if_eq { reg_a; reg_b; if_eq; if_ne } ->
          go (if regs.(reg_a) = regs.(reg_b) then if_eq else if_ne) (steps + 1)
      | Jump_if_lt { reg_a; reg_b; if_lt; if_ge } ->
          go (if regs.(reg_a) < regs.(reg_b) then if_lt else if_ge) (steps + 1)
      | Jump_if_max { reg; if_max; if_not } ->
          go (if regs.(reg) = modulus - 1 then if_max else if_not) (steps + 1)
      | Read { on_zero; on_one; on_hash; on_eof } ->
          if !pos >= String.length input then go on_eof (steps + 1)
          else begin
            let c = input.[!pos] in
            incr pos;
            let next =
              match c with
              | '0' -> on_zero
              | '1' -> on_one
              | '#' -> on_hash
              | _ -> invalid_arg "Program.interpret: bad input symbol"
            in
            go next (steps + 1)
          end
    end
  in
  let verdict = go 0 0 in
  { verdict; output = Buffer.contents buf; final_registers = regs }

(* ----------------------------------------------------------- compilation *)

(* Micro-state machinery.  The head rests at cell 0 ("home") between
   instructions.  Field operations visit register bits; [Walk] carries
   the head between cells in either direction; [Home] returns it.

   Two-register operations (Add/Sub/Eq/Lt) alternate between the two
   fields one bit at a time, threading the carried state (carry, borrow,
   read bit, running verdict) through the control. *)
type site =
  | S_field of int * int  (* at bit [offset] of the field op of instr pc *)
  | S_pair_a of int * int * int  (* pc, i, packed state-in *)
  | S_pair_b of int * int * int  (* pc, i, packed state-in (includes a's bit) *)

type micro =
  | At of int
  | Walk of site * int * bool  (* destination site, moves remaining > 0, rightward? *)
  | Site of site
  | Home of int * int  (* pc, left-moves remaining > 0 *)

type step_result =
  | Halt_with of bool
  | Step of {
      write : Symbol.work;
      move : Optm.move;
      advance : bool;
      emit : char option;
      next : micro;
    }

(* The micro-step semantics of [p]: what one step from [micro] does on
   the given input and work symbols.  This is the single definition of
   the compiled machine; {!compile} tabulates it, {!compile_reference}
   re-derives it on every call. *)
let semantics p =
  let w = p.width in
  let cell_of r = r * w in
  let zero_sym = Symbol.Sym Symbol.Zero and one_sym = Symbol.Sym Symbol.One in
  let sym_of_bit b = if b then one_sym else zero_sym in
  let bit_of_work = function Symbol.Sym Symbol.One -> true | _ -> false in
  let home pc left = if left = 0 then At pc else Home (pc, left) in
  (* Cell a site sits on. *)
  let site_cell site =
    match site with
    | S_field (pc, offset) -> begin
        match p.code.(pc) with
        | Inc { reg; _ } | Reset { reg; _ } | Set { reg; _ } | Jump_if_max { reg; _ } ->
            cell_of reg + offset
        | _ -> 0
      end
    | S_pair_a (pc, i, _) -> begin
        match p.code.(pc) with
        | Add { src; _ } | Sub { src; _ } -> cell_of src + i
        | Jump_if_eq { reg_a; reg_b; _ } -> cell_of (min reg_a reg_b) + i
        | Jump_if_lt { reg_a; _ } -> cell_of reg_a + i
        | _ -> 0
      end
    | S_pair_b (pc, i, _) -> begin
        match p.code.(pc) with
        | Add { dst; _ } | Sub { dst; _ } -> cell_of dst + i
        | Jump_if_eq { reg_a; reg_b; _ } -> cell_of (max reg_a reg_b) + i
        | Jump_if_lt { reg_b; _ } -> cell_of reg_b + i
        | _ -> 0
      end
  in
  (* One step that starts moving from [from_cell] toward [site]; if the
     site is the current cell, land on it with a Stay. *)
  let go ~work ~from_cell site =
    let target = site_cell site in
    let dist = target - from_cell in
    if dist = 0 then
      Step { write = work; move = Optm.Stay; advance = false; emit = None; next = Site site }
    else begin
      let right = dist > 0 in
      let n = abs dist in
      Step
        {
          write = work;
          move = (if right then Optm.Right else Optm.Left);
          advance = false;
          emit = None;
          next = (if n = 1 then Site site else Walk (site, n - 1, right));
        }
    end
  in
  (* Write [write] at cell [cell] and head home toward instruction [pc]. *)
  let retreat ~write pc cell =
    if cell = 0 then
      Step { write; move = Optm.Stay; advance = false; emit = None; next = At pc }
    else
      Step { write; move = Optm.Left; advance = false; emit = None; next = home pc (cell - 1) }
  in
  (* Pair-op semantics, shared by Add/Sub/Eq/Lt.
     At site A (bit i of the source/first field) we read the bit and walk
     to site B carrying it; at site B we combine, possibly rewrite the
     bit, and either advance to bit i+1's site A or finish. *)
  let pair_next_instr pc ~state =
    match p.code.(pc) with
    | Add { next; _ } | Sub { next; _ } -> next
    | Jump_if_eq { if_eq; if_ne; _ } -> if state = 0 then if_eq else if_ne
    | Jump_if_lt { if_lt; if_ge; _ } -> if state = 1 then if_lt else if_ge
    | _ -> 0
  in
  let transition micro ~input ~work =
    match micro with
    | At pc -> begin
        match p.code.(pc) with
        | Accept -> Halt_with true
        | Reject -> Halt_with false
        | Goto next ->
            Step { write = work; move = Optm.Stay; advance = false; emit = None; next = At next }
        | Emit { symbol; next } ->
            Step
              { write = work; move = Optm.Stay; advance = false; emit = Some symbol; next = At next }
        | Read { on_zero; on_one; on_hash; on_eof } -> begin
            match input with
            | None ->
                Step
                  { write = work; move = Optm.Stay; advance = false; emit = None; next = At on_eof }
            | Some sym ->
                let t =
                  match sym with
                  | Symbol.Zero -> on_zero
                  | Symbol.One -> on_one
                  | Symbol.Hash -> on_hash
                in
                Step
                  { write = work; move = Optm.Stay; advance = true; emit = None; next = At t }
          end
        | Inc _ | Reset _ | Set _ | Jump_if_max _ ->
            go ~work ~from_cell:0 (S_field (pc, 0))
        | Add _ | Sub _ | Jump_if_lt _ ->
            (* Initial carried state: carry = 0 / borrow = 0 / lt = 0. *)
            go ~work ~from_cell:0 (S_pair_a (pc, 0, 0))
        | Jump_if_eq { reg_a; reg_b; if_eq; _ } ->
            if reg_a = reg_b then
              Step
                { write = work; move = Optm.Stay; advance = false; emit = None; next = At if_eq }
            else go ~work ~from_cell:0 (S_pair_a (pc, 0, 0))
      end
    | Walk (site, left, right) ->
        Step
          {
            write = work;
            move = (if right then Optm.Right else Optm.Left);
            advance = false;
            emit = None;
            next = (if left = 1 then Site site else Walk (site, left - 1, right));
          }
    | Home (pc, left) ->
        Step
          { write = work; move = Optm.Left; advance = false; emit = None; next = home pc (left - 1) }
    | Site (S_field (pc, offset)) -> begin
        let cell = site_cell (S_field (pc, offset)) in
        match p.code.(pc) with
        | Inc { next; _ } ->
            if bit_of_work work then
              if offset + 1 < w then
                Step
                  { write = zero_sym; move = Optm.Right; advance = false; emit = None;
                    next = Site (S_field (pc, offset + 1)) }
              else retreat ~write:zero_sym next cell
            else retreat ~write:one_sym next cell
        | Reset { next; _ } ->
            if offset + 1 < w then
              Step
                { write = zero_sym; move = Optm.Right; advance = false; emit = None;
                  next = Site (S_field (pc, offset + 1)) }
            else retreat ~write:zero_sym next cell
        | Set { value; next; _ } ->
            let bit = sym_of_bit (value lsr offset land 1 = 1) in
            if offset + 1 < w then
              Step
                { write = bit; move = Optm.Right; advance = false; emit = None;
                  next = Site (S_field (pc, offset + 1)) }
            else retreat ~write:bit next cell
        | Jump_if_max { if_max; if_not; _ } ->
            if bit_of_work work then
              if offset + 1 < w then
                Step
                  { write = work; move = Optm.Right; advance = false; emit = None;
                    next = Site (S_field (pc, offset + 1)) }
              else retreat ~write:work if_max cell
            else retreat ~write:work if_not cell
        | _ -> Halt_with false
      end
    | Site (S_pair_a (pc, i, state)) ->
        (* Read the source-side bit, pack it, head for the dst side. *)
        let abit = if bit_of_work work then 1 else 0 in
        let from_cell = site_cell (S_pair_a (pc, i, state)) in
        go ~work ~from_cell (S_pair_b (pc, i, (state lsl 1) lor abit))
    | Site (S_pair_b (pc, i, packed)) -> begin
        let abit = packed land 1 = 1 in
        let state = packed lsr 1 in
        let bbit = bit_of_work work in
        let cell = site_cell (S_pair_b (pc, i, packed)) in
        (* Combine according to the instruction; produce the symbol to
           write at the dst bit, and the carried state for bit i+1. *)
        let write, state' =
          match p.code.(pc) with
          | Add _ ->
              (* dst.bit = a + b + carry *)
              let total = (if abit then 1 else 0) + (if bbit then 1 else 0) + state in
              (sym_of_bit (total land 1 = 1), total lsr 1)
          | Sub _ ->
              (* dst.bit = b - a - borrow *)
              let diff = (if bbit then 1 else 0) - (if abit then 1 else 0) - state in
              if diff >= 0 then (sym_of_bit (diff = 1), 0)
              else (sym_of_bit (diff + 2 = 1), 1)
          | Jump_if_eq _ ->
              (* state = 1 once any bit differed *)
              (work, if abit <> bbit then 1 else state)
          | Jump_if_lt _ ->
              (* most significant difference wins; scanning LSB->MSB,
                 later differences overwrite earlier ones *)
              (work, if abit <> bbit then (if bbit then 1 else 0) else state)
          | _ -> (work, state)
        in
        if i + 1 < w then begin
          (* On to bit i+1's source side; one step writes and starts the
             walk. *)
          let next_site = S_pair_a (pc, i + 1, state') in
          let target = site_cell next_site in
          let dist = target - cell in
          if dist = 0 then
            Step { write; move = Optm.Stay; advance = false; emit = None; next = Site next_site }
          else begin
            let right = dist > 0 in
            let n = abs dist in
            Step
              {
                write;
                move = (if right then Optm.Right else Optm.Left);
                advance = false;
                emit = None;
                next = (if n = 1 then Site next_site else Walk (next_site, n - 1, right));
              }
          end
        end
        else retreat ~write (pair_next_instr pc ~state:state') cell
      end
  in
  transition

(* Every micro-state branches on exactly one symbol: [At pc] on a [Read]
   branches on the input cell and writes back the work cell it saw; every
   other micro-state ignores the input and branches on the work cell.  So
   a state's transitions are four table entries, indexed by that symbol. *)
let keyed_on_input p = function
  | At pc -> ( match p.code.(pc) with Read _ -> true | _ -> false)
  | Walk _ | Site _ | Home _ -> false

let inputs = [| None; Some Symbol.Zero; Some Symbol.One; Some Symbol.Hash |]
let works =
  [| Symbol.Blank; Symbol.Sym Symbol.Zero; Symbol.Sym Symbol.One; Symbol.Sym Symbol.Hash |]

let input_key : Symbol.t option -> int = function
  | None -> 0
  | Some Symbol.Zero -> 1
  | Some Symbol.One -> 2
  | Some Symbol.Hash -> 3

let work_key : Symbol.work -> int = function
  | Symbol.Blank -> 0
  | Symbol.Sym Symbol.Zero -> 1
  | Symbol.Sym Symbol.One -> 2
  | Symbol.Sym Symbol.Hash -> 3

(* A table entry packs one step into an int:
     bit 0       the state is keyed on the input (same in all four entries)
     bit 1       halt, with the verdict in bit 2
     bits 3-5    write: 0-3 the symbol [works.(c)], 4 the work symbol read
     bits 6-7    head move: 0 Left, 1 Right, 2 Stay
     bit 8       advance the input head
     bits 9-17   emit: 0 none, c + 1 the character c
     bits 18-    next state *)
let keyed_bit = 1
let halt_bit = 2
let accept_bit = 4
let echo = 4
let advance_bit = 1 lsl 8
let next_shift = 18

(* [work] is the work symbol the step was computed with.  A write of
   that same symbol is stored as "write back what was read": in a state
   keyed on the work cell the two agree, and in a state keyed on the
   input it is what a [Read] does with whatever cell it sits on. *)
let pack ~keyed ~work step next_id =
  let keyed = if keyed then keyed_bit else 0 in
  match step with
  | Halt_with v -> keyed lor halt_bit lor if v then accept_bit else 0
  | Step { write; move; advance; emit; _ } ->
      let write = if Symbol.work_equal write work then echo else work_key write in
      let move = match move with Optm.Left -> 0 | Optm.Right -> 1 | Optm.Stay -> 2 in
      let emit = match emit with None -> 0 | Some c -> Char.code c + 1 in
      keyed lor (write lsl 3) lor (move lsl 6)
      lor (if advance then advance_bit else 0)
      lor (emit lsl 9) lor (next_id lsl next_shift)

let halt_accept = Optm.Halt true
let halt_reject = Optm.Halt false

let unpack e ~work =
  if e land halt_bit <> 0 then if e land accept_bit <> 0 then halt_accept else halt_reject
  else
    let write = match (e lsr 3) land 7 with c when c = echo -> work | c -> works.(c) in
    let work_move =
      match (e lsr 6) land 3 with 0 -> Optm.Left | 1 -> Optm.Right | _ -> Optm.Stay
    in
    let emit = match (e lsr 9) land 0x1ff with 0 -> None | c -> Some (Char.chr (c - 1)) in
    Optm.Branch
      [
        ( {
            Optm.next_state = e lsr next_shift;
            write;
            work_move;
            advance_input = e land advance_bit <> 0;
            emit;
          },
          1.0 );
      ]

(* States per table chunk: four entries each, so a chunk is a 128-word
   block (a small machine allocates one), and the table grows by adding
   chunks, never by copying entries. *)
let chunk_bits = 5
let chunk_states = 1 lsl chunk_bits

type compiled = { label : string; num_states : int; chunks : int array array }

let states c = c.num_states
let name c = c.label

(* The first of [state]'s four entries; its [keyed_bit] says which
   symbol picks among them. *)
let entry_base state = (state land (chunk_states - 1)) lsl 2

(* Every step the table can take lands on a state: checked once, at
   compile time, so neither [run] nor [machine]'s [delta] checks it per
   step. *)
let check_next_states { label; num_states; chunks } =
  for state = 0 to num_states - 1 do
    let chunk = chunks.(state lsr chunk_bits) and base = entry_base state in
    for key = 0 to 3 do
      let e = chunk.(base + key) in
      if e land halt_bit = 0 && e lsr next_shift >= num_states then
        Fmt.failwith "OPTM %s: transition to state %d outside [0, %d)" label
          (e lsr next_shift) num_states
    done
  done

(* A micro-state's int key, low bits first:
     bits 0-1    0 [At], 1 [Home], 2 [Site], 3 [Walk]
     bits 2-3    a site's kind: 0 [S_field], 1 [S_pair_a], 2 [S_pair_b]
     bits 4-5    a pair site's carried state (at most 1 at A, 3 at B)
     bits 6-10   a site's bit: the field offset or pair bit (< width <= 30)
     bit 11      a [Walk]'s direction, 1 rightward
     bits 12-    a [Home]'s or [Walk]'s moves remaining, below the
                 register file's cell count
     above       the pc, from bit [pc_shift p]
   The moves field is as wide as the cell count needs.  A program whose
   top pc would reach the sign bit is refused before enumeration. *)
let moves_shift = 12
let right_bit = 1 lsl 11

let rec bit_length v = if v = 0 then 0 else 1 + bit_length (v lsr 1)

let pc_shift p =
  let shift =
    if p.registers > max_int / p.width then Sys.int_size
    else moves_shift + bit_length ((p.registers * p.width) - 1)
  in
  if shift + bit_length (Array.length p.code - 1) > Sys.int_size - 1 then
    Fmt.failwith
      "Program %s: %d instructions over %d registers of width %d do not fit a micro-state key"
      p.name (Array.length p.code) p.registers p.width;
  shift

let site_key ~pc_shift site =
  let pc, bit, state, kind =
    match site with
    | S_field (pc, offset) -> (pc, offset, 0, 0)
    | S_pair_a (pc, i, state) -> (pc, i, state, 1)
    | S_pair_b (pc, i, packed) -> (pc, i, packed, 2)
  in
  assert (state land 3 = state);
  (pc lsl pc_shift) lor (bit lsl 6) lor (state lsl 4) lor (kind lsl 2)

let key_of ~pc_shift = function
  | At pc -> pc lsl pc_shift
  | Home (pc, left) -> (pc lsl pc_shift) lor (left lsl moves_shift) lor 1
  | Site site -> site_key ~pc_shift site lor 2
  | Walk (site, left, right) ->
      site_key ~pc_shift site lor (left lsl moves_shift)
      lor (if right then right_bit else 0)
      lor 3

let site_of_key ~pc key =
  let bit = (key lsr 6) land 31 and state = (key lsr 4) land 3 in
  match (key lsr 2) land 3 with
  | 0 -> S_field (pc, bit)
  | 1 -> S_pair_a (pc, bit, state)
  | _ -> S_pair_b (pc, bit, state)

let micro_of_key ~pc_shift key =
  let pc = key lsr pc_shift in
  let moves = (key land ((1 lsl pc_shift) - 1)) lsr moves_shift in
  match key land 3 with
  | 0 -> At pc
  | 1 -> Home (pc, moves)
  | 2 -> Site (site_of_key ~pc key)
  | _ -> Walk (site_of_key ~pc key, moves, key land right_bit <> 0)

(* Fibonacci hashing: the top bits of the key times 2^63 / phi. *)
let golden = 0x4f1bbcdcbfa53c01

let compile p =
  validate p;
  let pc_shift = pc_shift p in
  let transition = semantics p in
  (* Depth-first preorder from [At 0]: a state's id is assigned when it is
     first reached, and its entries are visited in key order 0..3, each
     new successor's whole subtree before the next entry.  Ids are found
     by linear probing in [slots] (an id per slot, -1 empty, at most half
     full), comparing against [keys], the key of each id; [stack] holds
     (key, id, next entry) per open state, decoded afresh to a micro-state
     at every visit. *)
  let chunks = ref [||] and count = ref 0 in
  let keys = ref (Array.make 64 0) in
  let slots = ref (Array.make (1 lsl 7) (-1)) and hash_shift = ref (Sys.int_size - 7) in
  let rec probe slots key h =
    let id = Array.unsafe_get slots h in
    if id < 0 || Array.unsafe_get !keys id = key then h
    else probe slots key ((h + 1) land (Array.length slots - 1))
  in
  let first_slot key = (key * golden) lsr !hash_shift in
  let id_of key =
    let h = probe !slots key (first_slot key) in
    let found = Array.unsafe_get !slots h in
    if found >= 0 then found
    else begin
      let i = !count in
      incr count;
      if i = Array.length !keys then begin
        let grown = Array.make (2 * i) 0 in
        Array.blit !keys 0 grown 0 i;
        keys := grown
      end;
      !keys.(i) <- key;
      !slots.(h) <- i;
      if 2 * !count > Array.length !slots then begin
        slots := Array.make (2 * Array.length !slots) (-1);
        decr hash_shift;
        for j = 0 to i do
          let key = !keys.(j) in
          !slots.(probe !slots key (first_slot key)) <- j
        done
      end;
      if i land (chunk_states - 1) = 0 then begin
        let slot = i lsr chunk_bits in
        if slot = Array.length !chunks then begin
          let grown = Array.make (max 4 (2 * slot)) [||] in
          Array.blit !chunks 0 grown 0 slot;
          chunks := grown
        end;
        !chunks.(slot) <- Array.make (4 * chunk_states) 0
      end;
      i
    end
  in
  let stack = ref (Array.make 48 0) and sp = ref 0 in
  let push key id entry =
    if !sp = Array.length !stack then begin
      let grown = Array.make (2 * !sp) 0 in
      Array.blit !stack 0 grown 0 !sp;
      stack := grown
    end;
    let s = !stack in
    s.(!sp) <- key;
    s.(!sp + 1) <- id;
    s.(!sp + 2) <- entry;
    sp := !sp + 3
  in
  let start = key_of ~pc_shift (At 0) in
  push start (id_of start) 0;
  while !sp > 0 do
    let top = !sp - 3 in
    let key = !stack.(top) and id = !stack.(top + 1) in
    let micro = micro_of_key ~pc_shift key in
    let keyed = keyed_on_input p micro in
    (* Only a [Read] (on the input) and a [Site] (on the work bit)
       branch on their symbol; any other state's four entries are one
       step, written back, so one lookup fills them all. *)
    let uniform = match micro with Site _ -> false | At _ -> not keyed | Walk _ | Home _ -> true in
    let chunk = !chunks.(id lsr chunk_bits) and base = entry_base id in
    (* Fill entries from [entry] on until one steps to a new state; then
       leave the rest for when that state's subtree is done. *)
    let rec fill entry =
      let input = if keyed then inputs.(entry) else None in
      let work = if keyed then Symbol.Blank else works.(entry) in
      let step = transition micro ~input ~work in
      let fresh = !count in
      let next_key, next_id =
        match step with
        | Halt_with _ -> (-1, -1)
        | Step { next; _ } ->
            let k = key_of ~pc_shift next in
            (k, id_of k)
      in
      let e = pack ~keyed ~work step next_id in
      let last = uniform || entry = 3 in
      if uniform then Array.fill chunk base 4 e else chunk.(base + entry) <- e;
      if next_id = fresh then begin
        if last then begin
          (* Nothing is left here: the new state takes this frame. *)
          !stack.(top) <- next_key;
          !stack.(top + 1) <- next_id;
          !stack.(top + 2) <- 0
        end
        else begin
          !stack.(top + 2) <- entry + 1;
          push next_key next_id 0
        end
      end
      else if last then sp := top
      else fill (entry + 1)
    in
    fill !stack.(top + 2)
  done;
  let c = { label = Printf.sprintf "compiled:%s" p.name; num_states = !count; chunks = !chunks } in
  check_next_states c;
  c

let machine { label; num_states; chunks } =
  {
    Optm.name = label;
    num_states;
    start_state = 0;
    delta =
      (fun ~state ~input ~work ->
        if state < 0 || state >= num_states then
          Fmt.invalid_arg "OPTM %s: no state %d" label state;
        let chunk = Array.unsafe_get chunks (state lsr chunk_bits) in
        let base = entry_base state in
        let key =
          if Array.unsafe_get chunk base land keyed_bit <> 0 then input_key input
          else work_key work
        in
        unpack (Array.unsafe_get chunk (base + key)) ~work);
  }

let not_a_symbol ch : int =
  ignore (Symbol.of_char ch);
  assert false (* [of_char] raised: [ch] is none of 0, 1, # *)

(* The stepper: [Optm.run_deterministic]'s loop on the packed entries.
   The work tape holds each cell's table key (0 blank, 1-3 the symbols
   [works.(c)]), so a cell is its own index into a state's entries, and
   a step allocates nothing.  As in [Optm], the input cell is read on
   every step, so a character outside {0,1,#} raises [Symbol.of_char]'s
   [Invalid_argument] as soon as the input head reaches it. *)
let exec ?output ?(max_steps = 10_000_000) c input =
  let chunks = c.chunks and len = String.length input in
  let tape = ref (Bytes.make 16 '\000') in
  let state = ref 0 and input_pos = ref 0 and work_pos = ref 0 and peak = ref 0 in
  let steps = ref 0 and halted = ref false and accepted = ref false in
  while (not !halted) && !steps < max_steps do
    let input_key =
      if !input_pos >= len then 0
      else
        match String.unsafe_get input !input_pos with
        | '0' -> 1
        | '1' -> 2
        | '#' -> 3
        | ch -> not_a_symbol ch
    in
    (* [work_pos] is always inside the tape: it starts at 0 and every
       move right grows the tape first. *)
    let pos = !work_pos in
    let chunk = Array.unsafe_get chunks (!state lsr chunk_bits) in
    let base = entry_base !state in
    let key =
      if Array.unsafe_get chunk base land keyed_bit <> 0 then input_key
      else Char.code (Bytes.unsafe_get !tape pos)
    in
    let e = Array.unsafe_get chunk (base + key) in
    incr steps;
    if e land halt_bit <> 0 then begin
      halted := true;
      accepted := e land accept_bit <> 0
    end
    else begin
      let emit = (e lsr 9) land 0x1ff in
      (if emit <> 0 then
         match output with
         | Some buf -> Buffer.add_char buf (Char.unsafe_chr (emit - 1))
         | None -> ());
      let write = (e lsr 3) land 7 in
      if write <> echo then Bytes.unsafe_set !tape pos (Char.unsafe_chr write);
      if pos >= !peak then peak := pos + 1;
      (match (e lsr 6) land 3 with
      | 0 -> if pos > 0 then work_pos := pos - 1
      | 1 ->
          let right = pos + 1 in
          if right >= Bytes.length !tape then begin
            let bigger = Bytes.make (2 * (right + 1)) '\000' in
            Bytes.blit !tape 0 bigger 0 (Bytes.length !tape);
            tape := bigger
          end;
          work_pos := right;
          if right >= !peak then peak := right + 1
      | _ -> ());
      if e land advance_bit <> 0 then incr input_pos;
      state := e lsr next_shift
    end
  done;
  let stats = { Optm.steps = !steps; peak_work_cells = !peak; halted = !halted } in
  Obs.Scope.incr "optm.runs";
  Obs.Scope.add "optm.steps" stats.Optm.steps;
  Obs.Scope.gauge_observe "optm.work_cells" stats.Optm.peak_work_cells;
  ((if !halted then Some !accepted else None), stats)

let run ?max_steps c input = exec ?max_steps c input

let run_with_output ?max_steps c input =
  let buf = Buffer.create 64 in
  let result = exec ~output:buf ?max_steps c input in
  (result, Buffer.contents buf)

let compile_reference p =
  validate p;
  let transition = semantics p in
  (* Enumerate the reachable micro-states eagerly, probing all sixteen
     (input, work) pairs of each. *)
  let ids = Hashtbl.create 256 in
  let table = ref [] and count = ref 0 in
  let rec id_of micro =
    match Hashtbl.find_opt ids micro with
    | Some i -> i
    | None ->
        let i = !count in
        Hashtbl.add ids micro i;
        incr count;
        table := micro :: !table;
        Array.iter
          (fun input ->
            Array.iter
              (fun work ->
                match transition micro ~input ~work with
                | Halt_with _ -> ()
                | Step { next; _ } -> ignore (id_of next))
              works)
          inputs;
        i
  in
  ignore (id_of (At 0));
  let micros = Array.of_list (List.rev !table) in
  {
    Optm.name = Printf.sprintf "compiled:%s" p.name;
    num_states = Array.length micros;
    start_state = 0;
    delta =
      (fun ~state ~input ~work ->
        match transition micros.(state) ~input ~work with
        | Halt_with v -> Optm.Halt v
        | Step { write; move; advance; emit; next } ->
            let next_state =
              match Hashtbl.find_opt ids next with
              | Some i -> i
              | None ->
                  Fmt.failwith
                    "Program.compile_reference %s: state %d steps outside the enumeration" p.name
                    state
            in
            Optm.Branch
              [
                ( { Optm.next_state; write; work_move = move; advance_input = advance; emit },
                  1.0 );
              ]);
  }

(* ------------------------------------------------------ worked programs *)

let parity =
  {
    name = "parity";
    width = 1;
    registers = 2;
    code =
      [|
        Read { on_zero = 0; on_one = 1; on_hash = 0; on_eof = 2 };
        Inc { reg = 0; next = 0 };
        Jump_if_eq { reg_a = 0; reg_b = 1; if_eq = 3; if_ne = 4 };
        Accept;
        Reject;
      |];
  }

let run_length_equal ~width =
  {
    name = Printf.sprintf "run-length-equal-w%d" width;
    width;
    registers = 2;
    code =
      [|
        (* 0: first run of 1s into r0 *)
        Read { on_zero = 5; on_one = 1; on_hash = 2; on_eof = 5 };
        Inc { reg = 0; next = 0 };
        (* 2: second run into r1 *)
        Read { on_zero = 5; on_one = 3; on_hash = 5; on_eof = 4 };
        Inc { reg = 1; next = 2 };
        (* 4: compare *)
        Jump_if_eq { reg_a = 0; reg_b = 1; if_eq = 6; if_ne = 5 };
        Reject;
        Accept;
      |];
  }

let beacon =
  {
    name = "beacon";
    width = 1;
    registers = 1;
    code =
      [|
        Read { on_zero = 0; on_one = 1; on_hash = 0; on_eof = 6 };
        Emit { symbol = '0'; next = 2 };
        Emit { symbol = '#'; next = 3 };
        Emit { symbol = '1'; next = 4 };
        Emit { symbol = '#'; next = 5 };
        Emit { symbol = '0'; next = 0 };
        Accept;
      |];
  }

(* Procedure A1 — condition (i) of the Theorem 3.4 proof — as a register
   program: accepts exactly the strings 1^k#(b#b#b#)^{2^k} with blocks of
   length 2^{2k}, for k up to (width-1)/2.

   Registers: 0 k, 1 m = 2^{2k}, 2 reps = 2^k, 3 idx, 4 seg, 5 rep,
   6 cnt, 7 c_zero (constant 0), 8 c_three, 9 c_kmax. *)
let ldisj_shape ~width =
  if width < 3 then invalid_arg "Program.ldisj_shape: width too small";
  let k = 0 and m = 1 and reps = 2 and idx = 3 and seg = 4 and rep = 5 in
  let cnt = 6 and c_zero = 7 and c_three = 8 and c_kmax = 9 in
  let kmax = (width - 1) / 2 in
  {
    name = Printf.sprintf "ldisj-shape-w%d" width;
    width;
    registers = 10;
    code =
      [|
        (* 0: constants *)
        Set { reg = c_three; value = 3; next = 1 };
        (* 1 *) Set { reg = c_kmax; value = kmax; next = 2 };
        (* 2: count the leading 1-run *)
        Read { on_zero = 26; on_one = 3; on_hash = 4; on_eof = 26 };
        (* 3 *) Inc { reg = k; next = 2 };
        (* 4: k >= 1 ? *)
        Jump_if_eq { reg_a = k; reg_b = c_zero; if_eq = 26; if_ne = 5 };
        (* 5: k <= kmax ?  (kmax < k  <=>  reject) *)
        Jump_if_lt { reg_a = c_kmax; reg_b = k; if_lt = 26; if_ge = 6 };
        (* 6: m := 1 *)
        Set { reg = m; value = 1; next = 7 };
        (* 7 *) Reset { reg = cnt; next = 8 };
        (* 8: loop k times: m := 4m *)
        Jump_if_eq { reg_a = cnt; reg_b = k; if_eq = 12; if_ne = 9 };
        (* 9 *) Add { dst = m; src = m; next = 10 };
        (* 10 *) Add { dst = m; src = m; next = 11 };
        (* 11 *) Inc { reg = cnt; next = 8 };
        (* 12: reps := 1 *)
        Set { reg = reps; value = 1; next = 13 };
        (* 13 *) Reset { reg = cnt; next = 14 };
        (* 14: loop k times: reps := 2 reps *)
        Jump_if_eq { reg_a = cnt; reg_b = k; if_eq = 17; if_ne = 15 };
        (* 15 *) Add { dst = reps; src = reps; next = 16 };
        (* 16 *) Inc { reg = cnt; next = 14 };
        (* 17: main scan — block position dispatch *)
        Jump_if_eq { reg_a = idx; reg_b = m; if_eq = 20; if_ne = 18 };
        (* 18: expect a bit *)
        Read { on_zero = 19; on_one = 19; on_hash = 26; on_eof = 26 };
        (* 19 *) Inc { reg = idx; next = 17 };
        (* 20: expect a separator *)
        Read { on_zero = 26; on_one = 26; on_hash = 21; on_eof = 26 };
        (* 21 *) Reset { reg = idx; next = 22 };
        (* 22 *) Inc { reg = seg; next = 23 };
        (* 23: three segments complete one repetition *)
        Jump_if_eq { reg_a = seg; reg_b = c_three; if_eq = 24; if_ne = 17 };
        (* 24 *) Reset { reg = seg; next = 25 };
        (* 25 *) Inc { reg = rep; next = 27 };
        (* 26 *) Reject;
        (* 27: all repetitions done? *)
        Jump_if_eq { reg_a = rep; reg_b = reps; if_eq = 28; if_ne = 17 };
        (* 28: must be end of input *)
        Read { on_zero = 26; on_one = 26; on_hash = 26; on_eof = 29 };
        (* 29 *) Accept;
      |];
  }

(* The fingerprint comparator: accepts u#v iff F_u(t) = F_v(t) mod p,
   where F_w(t) = sum_i w_i t^i — procedure A2's streaming primitive as a
   literal Turing machine.

   Registers: 0 acc_u, 1 acc_v, 2 pow, 3 tmp, 4 cnt, 5 t_const, 6 p_const.
   Width must satisfy 2p < 2^width so that acc + pow never overflows.

   Per input bit b of the current block:
     if b then acc := (acc + pow) mod p
     pow := (pow * t) mod p   (by repeated addition, reducing each step) *)
let fingerprint_eq ~p:prime ~t =
  let width =
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    bits 0 (2 * prime)
  in
  if t < 1 || t >= prime then invalid_arg "Program.fingerprint_eq: need 1 <= t < p";
  let acc_u = 0 and acc_v = 1 and pow = 2 and tmp = 3 and cnt = 4 in
  let t_const = 5 and p_const = 6 in
  (* Code layout (acc = acc_u for phase 1, acc_v for phase 2):
     0  Set t_const
     1  Set p_const
     2  Set pow := 1
     3  Read (phase 1): 0 -> mul(3), 1 -> add_u, # -> re-init pow & phase 2, eof -> reject
     -- add into acc_u then mul --
     4  Add acc_u += pow
     5  Jump_if_lt acc_u < p ? 7 : 6
     6  Sub acc_u -= p
     -- mul: tmp := 0; cnt := 0; loop cnt < t: tmp += pow; reduce; pow := tmp --
     7  Reset tmp
     8  Reset cnt
     9  Jump_if_eq cnt t_const ? 15 : 10
     10 Add tmp += pow
     11 Jump_if_lt tmp < p ? 13 : 12
     12 Sub tmp -= p
     13 Inc cnt
     14 Goto 9
     15 Reset pow
     16 Add pow += tmp
     17 Goto 3 (back to reading)   [patched to 20 in phase 2]
     -- phase 2 prologue (on '#') --
     18 Set pow := 1 again
     19 Goto 20
     20 Read (phase 2): 0 -> mul2, 1 -> add_v, # -> reject, eof -> compare
     21 Add acc_v += pow
     22 Jump_if_lt acc_v < p ? 24 : 23
     23 Sub acc_v -= p
     -- mul2 (same loop, returns to 20) --
     24 Reset tmp
     25 Reset cnt
     26 Jump_if_eq cnt t_const ? 32 : 27
     27 Add tmp += pow
     28 Jump_if_lt tmp < p ? 30 : 29
     29 Sub tmp -= p
     30 Inc cnt
     31 Goto 26
     32 Reset pow
     33 Add pow += tmp
     34 Goto 20
     -- epilogue --
     35 Jump_if_eq acc_u acc_v ? 36 : 37
     36 Accept
     37 Reject *)
  {
    name = Printf.sprintf "fingerprint-eq-p%d-t%d" prime t;
    width;
    registers = 7;
    code =
      [|
        (* 0 *) Set { reg = t_const; value = t; next = 1 };
        (* 1 *) Set { reg = p_const; value = prime; next = 2 };
        (* 2 *) Set { reg = pow; value = 1; next = 3 };
        (* 3 *) Read { on_zero = 7; on_one = 4; on_hash = 18; on_eof = 37 };
        (* 4 *) Add { dst = acc_u; src = pow; next = 5 };
        (* 5 *) Jump_if_lt { reg_a = acc_u; reg_b = p_const; if_lt = 7; if_ge = 6 };
        (* 6 *) Sub { dst = acc_u; src = p_const; next = 7 };
        (* 7 *) Reset { reg = tmp; next = 8 };
        (* 8 *) Reset { reg = cnt; next = 9 };
        (* 9 *) Jump_if_eq { reg_a = cnt; reg_b = t_const; if_eq = 15; if_ne = 10 };
        (* 10 *) Add { dst = tmp; src = pow; next = 11 };
        (* 11 *) Jump_if_lt { reg_a = tmp; reg_b = p_const; if_lt = 13; if_ge = 12 };
        (* 12 *) Sub { dst = tmp; src = p_const; next = 13 };
        (* 13 *) Inc { reg = cnt; next = 14 };
        (* 14 *) Goto 9;
        (* 15 *) Reset { reg = pow; next = 16 };
        (* 16 *) Add { dst = pow; src = tmp; next = 17 };
        (* 17 *) Goto 3;
        (* 18 *) Set { reg = pow; value = 1; next = 19 };
        (* 19 *) Goto 20;
        (* 20 *) Read { on_zero = 24; on_one = 21; on_hash = 37; on_eof = 35 };
        (* 21 *) Add { dst = acc_v; src = pow; next = 22 };
        (* 22 *) Jump_if_lt { reg_a = acc_v; reg_b = p_const; if_lt = 24; if_ge = 23 };
        (* 23 *) Sub { dst = acc_v; src = p_const; next = 24 };
        (* 24 *) Reset { reg = tmp; next = 25 };
        (* 25 *) Reset { reg = cnt; next = 26 };
        (* 26 *) Jump_if_eq { reg_a = cnt; reg_b = t_const; if_eq = 32; if_ne = 27 };
        (* 27 *) Add { dst = tmp; src = pow; next = 28 };
        (* 28 *) Jump_if_lt { reg_a = tmp; reg_b = p_const; if_lt = 30; if_ge = 29 };
        (* 29 *) Sub { dst = tmp; src = p_const; next = 30 };
        (* 30 *) Inc { reg = cnt; next = 31 };
        (* 31 *) Goto 26;
        (* 32 *) Reset { reg = pow; next = 33 };
        (* 33 *) Add { dst = pow; src = tmp; next = 34 };
        (* 34 *) Goto 20;
        (* 35 *) Jump_if_eq { reg_a = acc_u; reg_b = acc_v; if_eq = 36; if_ne = 37 };
        (* 36 *) Accept;
        (* 37 *) Reject;
      |];
  }
