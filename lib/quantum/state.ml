open Mathx
module A = Bigarray.Array1

(* Flat register backend: one unboxed Float64 Bigarray in C layout,
   interleaved as [re0; im0; re1; im1; ...].  A single contiguous buffer
   keeps the two components of an amplitude on the same cache line, is
   safe to share across OCaml 5 domains (Bigarray data never moves), and
   lets the hot kernels run branch-free over pair indices with unsafe
   accesses.  Qubit 0 is the least significant bit of the basis index. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

type t = { n : int; a : buf }

let max_qubits = 24

(* ------------------------------------------------------- parallel gate *)

(* Registers with at least [parallel_threshold] amplitudes run their
   kernels through [Mathx.Parallel]'s range helpers (chunked, possibly
   across domains); smaller ones run the plain sequential loop.  The two
   paths are bit-identical by construction — gate kernels write disjoint
   amplitudes, and reductions always use [Parallel.sum_range]'s fixed
   chunking — so the threshold (and [OQSC_PAR_THRESHOLD]) affects
   wall-clock time only, never results. *)

let default_par_threshold = 1 lsl 14

(* OQSC_PAR_THRESHOLD=0 forces the chunked path everywhere: the
   determinism matrix's par0 leg. *)
let par_threshold =
  ref
    (match Sys.getenv_opt "OQSC_PAR_THRESHOLD" with
    | None -> default_par_threshold
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some t when t >= 0 -> t
        | _ -> default_par_threshold))

let parallel_threshold () = !par_threshold
let set_parallel_threshold d =
  if d < 0 then invalid_arg "State.set_parallel_threshold: negative threshold";
  par_threshold := d

let nqubits s = s.n
let dim s = 1 lsl s.n

let parallel_dim s = dim s >= !par_threshold

(* Element map over [0, len): parallel chunks at or above the threshold,
   one plain loop below it.  [body lo hi] must write disjoint amplitudes
   per index and must not touch the ambient Obs sink. *)
let kernel s len body =
  if parallel_dim s && len > 1 then Parallel.iter_range len body else body 0 len

(* Reduction over [0, len): always routed through [Parallel.sum_range]
   so the chunk decomposition — and hence the floating-point association
   — is a pure function of [len], independent of the threshold and the
   domain count. *)
let ksum s len body =
  let domains = if parallel_dim s then None else Some 1 in
  Parallel.sum_range ?domains len body

(* ------------------------------------------------------- construction *)

let alloc n =
  let a = A.create Bigarray.float64 Bigarray.c_layout (2 lsl n) in
  A.fill a 0.0;
  { n; a }

let record_fresh n =
  Obs.Scope.incr "quantum.registers";
  Obs.Scope.gauge_observe "quantum.qubits" n

let create n =
  if n < 0 || n > max_qubits then
    invalid_arg "State.create: qubit count out of range";
  let s = alloc n in
  A.unsafe_set s.a 0 1.0;
  record_fresh n;
  s

let basis n idx =
  if n < 0 || n > max_qubits then
    invalid_arg "State.basis: qubit count out of range";
  if idx < 0 || idx >= 1 lsl n then invalid_arg "State.basis: bad basis index";
  let s = alloc n in
  A.unsafe_set s.a (2 * idx) 1.0;
  record_fresh n;
  s

let reset_basis s idx =
  if idx < 0 || idx >= dim s then invalid_arg "State.reset_basis: bad basis index";
  A.fill s.a 0.0;
  A.unsafe_set s.a (2 * idx) 1.0;
  (* A reset is logically a fresh register: record it so resource counts
     do not depend on whether a caller reuses the buffer (the
     column-building [Circ.unitary] path) or allocates anew. *)
  record_fresh s.n

let copy s =
  let c = { n = s.n; a = A.create Bigarray.float64 Bigarray.c_layout (2 * dim s) } in
  A.blit s.a c.a;
  c

let re s idx = A.get s.a (2 * idx)
let im s idx = A.get s.a ((2 * idx) + 1)

let amplitude s idx = Cplx.make (re s idx) (im s idx)

let set_amplitude s idx (c : Cplx.t) =
  A.set s.a (2 * idx) c.Cplx.re;
  A.set s.a ((2 * idx) + 1) c.Cplx.im

let of_amplitudes amps =
  let d = Array.length amps in
  let n =
    let rec log2 acc v = if v = 1 then acc else log2 (acc + 1) (v lsr 1) in
    if d = 0 || d land (d - 1) <> 0 then
      invalid_arg "State.of_amplitudes: length must be a power of two"
    else log2 0 d
  in
  let s = create n in
  Array.iteri (fun i c -> set_amplitude s i c) amps;
  s

(* --------------------------------------------------------- observables *)

let probability s idx =
  let xr = re s idx and xi = im s idx in
  (xr *. xr) +. (xi *. xi)

let norm s =
  let a = s.a in
  let acc =
    ksum s (dim s) (fun lo hi ->
        let t = ref 0.0 in
        for i = lo to hi - 1 do
          let xr = A.unsafe_get a (2 * i) and xi = A.unsafe_get a ((2 * i) + 1) in
          t := !t +. (xr *. xr) +. (xi *. xi)
        done;
        !t)
  in
  sqrt acc

let normalize s =
  let nrm = norm s in
  if nrm = 0.0 then invalid_arg "State.normalize: zero vector";
  let inv = 1.0 /. nrm in
  let a = s.a in
  kernel s (dim s) (fun lo hi ->
      for i = 2 * lo to (2 * hi) - 1 do
        A.unsafe_set a i (A.unsafe_get a i *. inv)
      done)

let fidelity x y =
  if x.n <> y.n then invalid_arg "State.fidelity: qubit count mismatch";
  let xa = x.a and ya = y.a in
  (* <x|y> = sum conj(x_i) y_i; real and imaginary parts reduced with the
     same deterministic chunking. *)
  let rr =
    ksum x (dim x) (fun lo hi ->
        let t = ref 0.0 in
        for i = lo to hi - 1 do
          t :=
            !t
            +. (A.unsafe_get xa (2 * i) *. A.unsafe_get ya (2 * i))
            +. (A.unsafe_get xa ((2 * i) + 1) *. A.unsafe_get ya ((2 * i) + 1))
        done;
        !t)
  in
  let ri =
    ksum x (dim x) (fun lo hi ->
        let t = ref 0.0 in
        for i = lo to hi - 1 do
          t :=
            !t
            +. (A.unsafe_get xa (2 * i) *. A.unsafe_get ya ((2 * i) + 1))
            -. (A.unsafe_get xa ((2 * i) + 1) *. A.unsafe_get ya (2 * i))
        done;
        !t)
  in
  (rr *. rr) +. (ri *. ri)

let approx_equal ?(eps = 1e-9) x y =
  x.n = y.n
  &&
  let ok = ref true in
  for i = 0 to (2 * dim x) - 1 do
    if Float.abs (A.unsafe_get x.a i -. A.unsafe_get y.a i) > eps then ok := false
  done;
  !ok

let check_qubit s q =
  if q < 0 || q >= s.n then invalid_arg "State: qubit index out of range"

(* ------------------------------------------------------------- kernels *)

(* Pair index p in [0, dim/2) -> the basis index i with bit q clear:
   the high bits of p shift left one slot to make room for the qubit. *)
let[@inline] pair_index p q low_mask = ((p lsr q) lsl (q + 1)) lor (p land low_mask)

(* [apply_gate1] dispatches on the gate's structure.  Diagonal gates
   (T, S, Z, Rz, phase — the bulk of the oracle and rotation layers)
   touch only the amplitudes their nonzero entries act on, and real
   gates (H, X, Y-free rotations) skip the imaginary half of the
   complex multiply; both shorten the floating-point dependency chain
   that dominates this loop.  The specialised bodies compute the same
   values as the general 2x2 formula with the zero coefficients
   dropped; only the sign of a zero amplitude can differ, which no
   probability, measurement, or serialised result can observe. *)

let apply_gate1 s (g : Gates.single) q =
  check_qubit s q;
  Obs.Scope.incr "quantum.gates";
  Obs.Trace.with_span "state.gate1" @@ fun () ->
  let bit = 1 lsl q in
  let low_mask = bit - 1 in
  let a = s.a in
  let u00r = g.Gates.u00.Cplx.re and u00i = g.Gates.u00.Cplx.im in
  let u01r = g.Gates.u01.Cplx.re and u01i = g.Gates.u01.Cplx.im in
  let u10r = g.Gates.u10.Cplx.re and u10i = g.Gates.u10.Cplx.im in
  let u11r = g.Gates.u11.Cplx.re and u11i = g.Gates.u11.Cplx.im in
  let diagonal = u01r = 0.0 && u01i = 0.0 && u10r = 0.0 && u10i = 0.0 in
  if diagonal && u00r = 1.0 && u00i = 0.0 then
    (* Unit upper-left entry: only the |1> slice moves (T, S, Z, phase).
       Pair indices with the same high bits map to consecutive
       amplitudes, so walk the chunk run by run; this is a map kernel
       (each pair touched independently), so the traversal order is
       free and only the chunk boundaries are contractual. *)
    kernel s (dim s / 2) (fun lo hi ->
        let p = ref lo in
        while !p < hi do
          let off = !p land low_mask in
          let run_len = min (bit - off) (hi - !p) in
          let base = (2 * pair_index !p q low_mask) + (2 * bit) in
          for t = 0 to run_len - 1 do
            let jj = base + (2 * t) in
            let br = A.unsafe_get a jj and bi = A.unsafe_get a (jj + 1) in
            A.unsafe_set a jj ((u11r *. br) -. (u11i *. bi));
            A.unsafe_set a (jj + 1) ((u11r *. bi) +. (u11i *. br))
          done;
          p := !p + run_len
        done)
  else if diagonal then
    (* Two independent complex scalings (Rz and friends). *)
    kernel s (dim s / 2) (fun lo hi ->
        for p = lo to hi - 1 do
          let ii = 2 * pair_index p q low_mask in
          let jj = ii + (2 * bit) in
          let ar = A.unsafe_get a ii and ai = A.unsafe_get a (ii + 1) in
          let br = A.unsafe_get a jj and bi = A.unsafe_get a (jj + 1) in
          A.unsafe_set a ii ((u00r *. ar) -. (u00i *. ai));
          A.unsafe_set a (ii + 1) ((u00r *. ai) +. (u00i *. ar));
          A.unsafe_set a jj ((u11r *. br) -. (u11i *. bi));
          A.unsafe_set a (jj + 1) ((u11r *. bi) +. (u11i *. br))
        done)
  else if u00i = 0.0 && u01i = 0.0 && u10i = 0.0 && u11i = 0.0 then
    (* Real 2x2 (H, X): half the multiplies of the general case. *)
    kernel s (dim s / 2) (fun lo hi ->
        for p = lo to hi - 1 do
          let ii = 2 * pair_index p q low_mask in
          let jj = ii + (2 * bit) in
          let ar = A.unsafe_get a ii and ai = A.unsafe_get a (ii + 1) in
          let br = A.unsafe_get a jj and bi = A.unsafe_get a (jj + 1) in
          A.unsafe_set a ii ((u00r *. ar) +. (u01r *. br));
          A.unsafe_set a (ii + 1) ((u00r *. ai) +. (u01r *. bi));
          A.unsafe_set a jj ((u10r *. ar) +. (u11r *. br));
          A.unsafe_set a (jj + 1) ((u10r *. ai) +. (u11r *. bi))
        done)
  else
    kernel s (dim s / 2) (fun lo hi ->
        for p = lo to hi - 1 do
          let ii = 2 * pair_index p q low_mask in
          let jj = ii + (2 * bit) in
          let ar = A.unsafe_get a ii and ai = A.unsafe_get a (ii + 1) in
          let br = A.unsafe_get a jj and bi = A.unsafe_get a (jj + 1) in
          A.unsafe_set a ii
            ((u00r *. ar) -. (u00i *. ai) +. (u01r *. br) -. (u01i *. bi));
          A.unsafe_set a (ii + 1)
            ((u00r *. ai) +. (u00i *. ar) +. (u01r *. bi) +. (u01i *. br));
          A.unsafe_set a jj
            ((u10r *. ar) -. (u10i *. ai) +. (u11r *. br) -. (u11i *. bi));
          A.unsafe_set a (jj + 1)
            ((u10r *. ai) +. (u10i *. ar) +. (u11r *. bi) +. (u11i *. br))
        done)

let apply_controlled1 s (g : Gates.single) ~control ~target =
  check_qubit s control;
  check_qubit s target;
  if control = target then invalid_arg "State.apply_controlled1: control = target";
  Obs.Scope.incr "quantum.gates";
  Obs.Trace.with_span "state.cgate1" @@ fun () ->
  let cbit = 1 lsl control and tbit = 1 lsl target in
  let a = s.a in
  let u00r = g.Gates.u00.Cplx.re and u00i = g.Gates.u00.Cplx.im in
  let u01r = g.Gates.u01.Cplx.re and u01i = g.Gates.u01.Cplx.im in
  let u10r = g.Gates.u10.Cplx.re and u10i = g.Gates.u10.Cplx.im in
  let u11r = g.Gates.u11.Cplx.re and u11i = g.Gates.u11.Cplx.im in
  (* Enumerate the quarter of the space with control set and target
     clear by inserting both bits into a packed index. *)
  let q1 = min control target and q2 = max control target in
  let m1 = (1 lsl q1) - 1 in
  kernel s (dim s / 4) (fun lo hi ->
      for p = lo to hi - 1 do
        (* Insert a cleared slot at q1, then one at q2, then set the
           control bit; the target bit stays clear. *)
        let x = pair_index p q1 m1 in
        let i = (((x lsr q2) lsl (q2 + 1)) lor (x land ((1 lsl q2) - 1))) lor cbit in
        let ii = 2 * i in
        let jj = ii + (2 * tbit) in
        let ar = A.unsafe_get a ii and ai = A.unsafe_get a (ii + 1) in
        let br = A.unsafe_get a jj and bi = A.unsafe_get a (jj + 1) in
        A.unsafe_set a ii ((u00r *. ar) -. (u00i *. ai) +. (u01r *. br) -. (u01i *. bi));
        A.unsafe_set a (ii + 1)
          ((u00r *. ai) +. (u00i *. ar) +. (u01r *. bi) +. (u01i *. br));
        A.unsafe_set a jj ((u10r *. ar) -. (u10i *. ai) +. (u11r *. br) -. (u11i *. bi));
        A.unsafe_set a (jj + 1)
          ((u10r *. ai) +. (u10i *. ar) +. (u11r *. bi) +. (u11i *. br))
      done)

let apply_cnot s ~control ~target = apply_controlled1 s Gates.x ~control ~target

let apply_phase_if s pred =
  Obs.Scope.incr "quantum.gates";
  Obs.Trace.with_span "state.phase_if" @@ fun () ->
  let a = s.a in
  kernel s (dim s) (fun lo hi ->
      for i = lo to hi - 1 do
        if pred i then begin
          A.unsafe_set a (2 * i) (-.A.unsafe_get a (2 * i));
          A.unsafe_set a ((2 * i) + 1) (-.A.unsafe_get a ((2 * i) + 1))
        end
      done)

let apply_xor_if s pred q =
  check_qubit s q;
  Obs.Scope.incr "quantum.gates";
  Obs.Trace.with_span "state.xor_if" @@ fun () ->
  let bit = 1 lsl q in
  let low_mask = bit - 1 in
  let a = s.a in
  kernel s (dim s / 2) (fun lo hi ->
      for p = lo to hi - 1 do
        let i = pair_index p q low_mask in
        if pred i then begin
          let ii = 2 * i in
          let jj = ii + (2 * bit) in
          let tr = A.unsafe_get a ii and ti = A.unsafe_get a (ii + 1) in
          A.unsafe_set a ii (A.unsafe_get a jj);
          A.unsafe_set a (ii + 1) (A.unsafe_get a (jj + 1));
          A.unsafe_set a jj tr;
          A.unsafe_set a (jj + 1) ti
        end
      done)

let apply_hadamard_block s lo count =
  for q = lo to lo + count - 1 do
    apply_gate1 s Gates.h q
  done

(* ------------------------------------------------- address fast paths *)

(* [width = nqubits] is legal as long as no qubit (target or require) is
   needed above the address register: the enumeration then touches the
   single basis state [address], the full-register oracle shape. *)
let check_address_args s ~width ~address ~qubits_above =
  if width < 0 || width > s.n then invalid_arg "State: bad address width";
  if address < 0 || address >= 1 lsl width then invalid_arg "State: bad address";
  List.iter
    (fun (what, q) ->
      match q with
      | None -> ()
      | Some q ->
          if q < width || q >= s.n then
            Fmt.invalid_arg "State: %s qubit must lie above the address register"
              what)
    qubits_above

let apply_xor_on_address s ~width ~address ?require ~target () =
  check_address_args s ~width ~address
    ~qubits_above:[ ("target", Some target); ("require", require) ];
  Obs.Scope.incr "quantum.gates";
  Obs.Trace.with_span "state.xor_on_address" @@ fun () ->
  let a = s.a in
  let tbit = 1 lsl target in
  let rbit = match require with Some r -> 1 lsl r | None -> 0 in
  let highs = dim s lsr width in
  kernel s highs (fun lo hi ->
      for h = lo to hi - 1 do
        let idx = (h lsl width) lor address in
        if idx land tbit = 0 && idx land rbit = rbit then begin
          let ii = 2 * idx in
          let jj = ii + (2 * tbit) in
          let tr = A.unsafe_get a ii and ti = A.unsafe_get a (ii + 1) in
          A.unsafe_set a ii (A.unsafe_get a jj);
          A.unsafe_set a (ii + 1) (A.unsafe_get a (jj + 1));
          A.unsafe_set a jj tr;
          A.unsafe_set a (jj + 1) ti
        end
      done)

let apply_phase_on_address s ~width ~address ?require () =
  check_address_args s ~width ~address ~qubits_above:[ ("require", require) ];
  Obs.Scope.incr "quantum.gates";
  Obs.Trace.with_span "state.phase_on_address" @@ fun () ->
  let a = s.a in
  let rbit = match require with Some r -> 1 lsl r | None -> 0 in
  let highs = dim s lsr width in
  kernel s highs (fun lo hi ->
      for h = lo to hi - 1 do
        let idx = (h lsl width) lor address in
        if idx land rbit = rbit then begin
          A.unsafe_set a (2 * idx) (-.A.unsafe_get a (2 * idx));
          A.unsafe_set a ((2 * idx) + 1) (-.A.unsafe_get a ((2 * idx) + 1))
        end
      done)

(* --------------------------------------------------------- measurement *)

let prob_qubit_one s q =
  check_qubit s q;
  let bit = 1 lsl q in
  let a = s.a in
  ksum s (dim s) (fun lo hi ->
      let t = ref 0.0 in
      for i = lo to hi - 1 do
        if i land bit <> 0 then begin
          let xr = A.unsafe_get a (2 * i) and xi = A.unsafe_get a ((2 * i) + 1) in
          t := !t +. (xr *. xr) +. (xi *. xi)
        end
      done;
      !t)

let measure_qubit s rng q =
  Obs.Scope.incr "quantum.measurements";
  Obs.Trace.with_span "state.measure" @@ fun () ->
  let p1 = prob_qubit_one s q in
  let outcome = Rng.float rng < p1 in
  let keep_mask_set = outcome in
  let bit = 1 lsl q in
  let p_kept = if outcome then p1 else 1.0 -. p1 in
  let inv = if p_kept > 0.0 then 1.0 /. sqrt p_kept else 0.0 in
  let a = s.a in
  kernel s (dim s) (fun lo hi ->
      for i = lo to hi - 1 do
        let is_set = i land bit <> 0 in
        if is_set = keep_mask_set then begin
          A.unsafe_set a (2 * i) (A.unsafe_get a (2 * i) *. inv);
          A.unsafe_set a ((2 * i) + 1) (A.unsafe_get a ((2 * i) + 1) *. inv)
        end
        else begin
          A.unsafe_set a (2 * i) 0.0;
          A.unsafe_set a ((2 * i) + 1) 0.0
        end
      done);
  outcome

let sample_all s rng =
  Obs.Scope.incr "quantum.measurements";
  let r = Rng.float rng in
  let d = dim s in
  let acc = ref 0.0 and result = ref (-1) in
  (try
     for i = 0 to d - 1 do
       acc := !acc +. probability s i;
       if r < !acc then begin
         result := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !result >= 0 then !result
  else begin
    (* Floating-point shortfall: the cumulative sum of a normalised
       state fell short of the draw.  Fall back to the largest index
       with nonzero probability rather than an arbitrary zero-mass
       basis state (index d-1 may well have amplitude exactly 0). *)
    let i = ref (d - 1) in
    while !i > 0 && probability s !i = 0.0 do
      decr i
    done;
    !i
  end

let distribution s = Array.init (dim s) (probability s)
