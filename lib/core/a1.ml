open Machine

type segment = X | Y | Z

type role =
  | Prefix_one
  | Prefix_sep
  | Block_bits of { rep : int; seg : segment; idx : int; bits : int; len : int }
  | Block_sep of { rep : int; seg : segment }
  | Bad

let max_k = 15

(* Phases of the scan (register [phase]):
   0 = reading the leading 1-run
   1 = inside a block
   2 = complete (any further symbol is a violation)
   3 = failed *)
type t = {
  ws : Workspace.t;
  phase : Workspace.reg;
  k_reg : Workspace.reg;  (* length of the 1-run, capped at max_k *)
  seg : Workspace.reg;  (* 0 = x, 1 = y, 2 = z *)
  rep : Workspace.reg;  (* current repetition, 0-based *)
  idx : Workspace.reg;  (* position inside the current block *)
  k_known : Workspace.reg;  (* set once the prefix separator is read *)
  mutable block_len : int;  (* 2^{2k}, derived from [k_reg] once known *)
  mutable reps : int;  (* 2^k, likewise *)
}

let create ws =
  {
    ws;
    phase = Workspace.alloc ws ~name:"a1.phase" ~bits:2;
    k_reg = Workspace.alloc ws ~name:"a1.k" ~bits:5;
    seg = Workspace.alloc ws ~name:"a1.seg" ~bits:2;
    rep = Workspace.alloc ws ~name:"a1.rep" ~bits:(max_k + 1);
    idx = Workspace.alloc ws ~name:"a1.idx" ~bits:((2 * max_k) + 1);
    k_known = Workspace.alloc_flag ws ~name:"a1.k_known";
    block_len = 0;
    reps = 0;
  }

let k t =
  if Workspace.get_flag t.ws t.k_known then Some (Workspace.get t.ws t.k_reg)
  else None

let failed t = Workspace.get t.ws t.phase = 3

let finished_ok t = Workspace.get t.ws t.phase = 2

let fail t =
  Workspace.set t.ws t.phase 3;
  Bad

let segment_of_int = function 0 -> X | 1 -> Y | _ -> Z

let feed t sym =
  let ws = t.ws in
  match Workspace.get ws t.phase with
  | 0 -> begin
      match sym with
      | Symbol.One ->
          let count = Workspace.get ws t.k_reg in
          if count >= max_k then fail t
          else begin
            Workspace.set ws t.k_reg (count + 1);
            Prefix_one
          end
      | Symbol.Hash ->
          let kv = Workspace.get ws t.k_reg in
          if kv < 1 then fail t
          else begin
            Workspace.set ws t.phase 1;
            Workspace.set_flag ws t.k_known true;
            (* k is fixed from here on; so are the two sizes it sets. *)
            t.block_len <- 1 lsl (2 * kv);
            t.reps <- 1 lsl kv;
            Prefix_sep
          end
      | Symbol.Zero -> fail t
    end
  | 1 -> begin
      let m = t.block_len in
      let seg = Workspace.get ws t.seg in
      let rep = Workspace.get ws t.rep in
      let idx = Workspace.get ws t.idx in
      match sym with
      | Symbol.Zero | Symbol.One ->
          if idx >= m then fail t
          else begin
            Workspace.set ws t.idx (idx + 1);
            Block_bits
              {
                rep;
                seg = segment_of_int seg;
                idx;
                bits = (if sym = Symbol.One then 1 else 0);
                len = 1;
              }
          end
      | Symbol.Hash ->
          if idx <> m then fail t
          else begin
            Workspace.set ws t.idx 0;
            let role = Block_sep { rep; seg = segment_of_int seg } in
            (if seg < 2 then Workspace.set ws t.seg (seg + 1)
             else begin
               Workspace.set ws t.seg 0;
               if rep + 1 = t.reps then Workspace.set ws t.phase 2
               else Workspace.set ws t.rep (rep + 1)
             end);
            role
          end
    end
  | 2 -> fail t
  | _ -> Bad

let iter_set_bits f ~idx bits =
  let w = ref bits and i = ref idx in
  while !w <> 0 do
    if !w land 1 = 1 then f !i;
    w := !w lsr 1;
    incr i
  done

(* Inside a block, [drive] asks the stream for the run of bits up to
   the block end or the next multiple of 62, whichever comes first
   (it may hand back fewer, at the end of a string; the loop asks
   again), and turns it into one role: A1's registers are read and [idx]
   written once per word.  Everything else (a separator, a bit past
   the block end, a bad character, the prefix) goes through [feed]
   one symbol at a time, so the two agree on every input. *)
let drive ws ?(max_k = max_k) start observe stream =
  let t = create ws in
  let procs = ref None in
  let rec loop () =
    let len =
      if Workspace.get ws t.phase <> 1 then 0
      else begin
        let idx = Workspace.get ws t.idx in
        let room =
          Int.min (t.block_len - idx) (Stream.max_bits - (idx mod Stream.max_bits))
        in
        let bits, len = Stream.next_bits stream room in
        if len > 0 then begin
          Workspace.set ws t.idx (idx + len);
          match !procs with
          | Some p ->
              let rep = Workspace.get ws t.rep
              and seg = segment_of_int (Workspace.get ws t.seg) in
              observe p (Block_bits { rep; seg; idx; bits; len })
          | None -> ()
        end;
        len
      end
    in
    if len > 0 then loop ()
    else
      match Stream.next stream with
      | None -> ()
      | Some sym ->
          (match feed t sym with
          | Prefix_sep as role ->
              let k = Workspace.get ws t.k_reg in
              if k <= max_k then begin
                let p = start k in
                procs := Some p;
                observe p role
              end
          | role -> ( match !procs with Some p -> observe p role | None -> ()));
          loop ()
  in
  loop ();
  (t, !procs)
