(* A register is its own cell: [get]/[set] touch one record, with no
   slot lookup.  [owner] is the id of the allocating workspace, so a
   register handed to another workspace is caught by one int compare
   (an id rather than the workspace itself keeps registers acyclic).
   [max] is the largest value the width allows, computed at [alloc].
   [key] is [owner] while the register is live and -1 once it is
   freed, so one compare answers "this workspace's, and live". *)
type reg = {
  owner : int;
  name : string;
  bits : int;
  max : int;
  mutable value : int;
  mutable key : int;
}

let live r = r.key = r.owner

type t = {
  id : int;
  mutable regs : reg list;  (* every register ever allocated, newest first *)
  live_names : (string, unit) Hashtbl.t;
  mutable classical : int;
  mutable peak_classical : int;
  mutable qubit_count : int;
  mutable peak_total : int;
}

let next_id = Atomic.make 0

let create () =
  {
    id = Atomic.fetch_and_add next_id 1;
    regs = [];
    live_names = Hashtbl.create 16;
    classical = 0;
    peak_classical = 0;
    qubit_count = 0;
    peak_total = 0;
  }

let bump_peaks t =
  if t.classical > t.peak_classical then t.peak_classical <- t.classical;
  let total = t.classical + t.qubit_count in
  if total > t.peak_total then t.peak_total <- total

let alloc t ~name ~bits =
  if bits < 1 || bits > 62 then invalid_arg "Workspace.alloc: width must be in [1, 62]";
  if Hashtbl.mem t.live_names name then
    Fmt.invalid_arg "Workspace.alloc: duplicate register name %S" name;
  Hashtbl.replace t.live_names name ();
  let max = if bits = 62 then max_int else (1 lsl bits) - 1 in
  let r = { owner = t.id; name; bits; max; value = 0; key = t.id } in
  t.regs <- r :: t.regs;
  t.classical <- t.classical + bits;
  bump_peaks t;
  Obs.Scope.incr "workspace.allocs";
  Obs.Scope.gauge_add "workspace.classical_bits" bits;
  r

let alloc_flag t ~name = alloc t ~name ~bits:1

let check_owner t r = if r.owner <> t.id then invalid_arg "Workspace: invalid register"

let free t r =
  check_owner t r;
  if not (live r) then invalid_arg "Workspace.free: register already freed";
  r.key <- -1;
  Hashtbl.remove t.live_names r.name;
  t.classical <- t.classical - r.bits;
  Obs.Scope.gauge_add "workspace.classical_bits" (-r.bits)

(* The checks a register access makes, in the order it makes them;
   [get] and [set] come here only when their one-branch test fails, so
   every error message is the one this order picks. *)
let get_slow t r =
  check_owner t r;
  if not (live r) then invalid_arg "Workspace.get: register freed";
  r.value

let get t r = if r.key = t.id then r.value else get_slow t r

(* [max] has no bit above the width and, being non-negative, not the
   sign bit either, so one mask test rejects both a negative value and
   one that is too wide. *)
let set_slow t r v =
  check_owner t r;
  if not (live r) then invalid_arg "Workspace.set: register freed";
  if v land lnot r.max <> 0 then
    Fmt.invalid_arg "Workspace.set: value %d does not fit %d bits (%s)" v r.bits
      r.name;
  r.value <- v

let set t r v =
  if (r.key lxor t.id) lor (v land lnot r.max) = 0 then r.value <- v
  else set_slow t r v

let incr t r = set t r (get t r + 1)

let get_flag t r = get t r = 1
let set_flag t r b = set t r (if b then 1 else 0)

let alloc_qubits t n =
  if n < 0 then invalid_arg "Workspace.alloc_qubits: negative count";
  t.qubit_count <- t.qubit_count + n;
  bump_peaks t;
  Obs.Scope.gauge_add "workspace.qubits" n

let classical_bits t = t.classical
let peak_classical_bits t = t.peak_classical
let qubits t = t.qubit_count
let peak_total_bits t = t.peak_total

let snapshot t =
  let buf = Buffer.create 64 in
  List.iter
    (fun r ->
      if live r then
        Buffer.add_string buf (Printf.sprintf "%s:%d=%d;" r.name r.bits r.value))
    (List.rev t.regs);
  Buffer.contents buf
