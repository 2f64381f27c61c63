(* Benchmark harness.

   Two parts, mirroring DESIGN.md's per-experiment index:

   1. Bechamel micro-benchmarks: one [Test.make] per experiment kernel
      (e1..e15), timing the inner operation each experiment is built on,
      plus register-backend kernels (e16: flat Bigarray gate kernel vs a
      reimplementation of the old boxed-array one; e17: column-built
      circuit unitary).
   2. The experiment tables themselves (EXPERIMENTS.md records this
      output): full sweeps by default, or reduced with --quick.

   Run with:  dune exec bench/main.exe            (full, ~2 min)
              dune exec bench/main.exe -- --quick

   Flags:
     --quick            reduced experiment sweeps
     --only A,B         keep only kernels whose name contains one of the
                        comma-separated substrings (e.g. --only e1,e9)
     --shard I/N        after --only, keep only shard I of N of the kernel
                        list (0-based, round-robin by position); the JSON
                        document carries a shard provenance field and a
                        complete shard set recombines with 'oqsc merge'
     --json FILE        write kernel timings as sorted-key JSON (- for stdout)
     --check BASELINE   compare ns/run against a baseline JSON; exit 1 on
                        drift beyond --tolerance PCT (default 25%); the OLS
                        r^2 column is telemetry and is never compared
     --no-tables        skip the experiment tables
     --trace FILE       record an Obs.Trace timeline across the whole run
                        and write it as an oqsc-trace document (- for
                        stdout); covers kernels and tables alike *)

open Bechamel
open Toolkit
open Mathx

let seed = 2006

(* ------------------------------------------------------- bench inputs *)

let rng0 = Rng.create seed

let member_k2 = (Lang.Instance.disjoint_pair (Rng.copy rng0) ~k:2).Lang.Instance.input
let member_k3 = (Lang.Instance.disjoint_pair (Rng.copy rng0) ~k:3).Lang.Instance.input

let bad_k1 =
  (Lang.Instance.intersecting_pair (Rng.copy rng0) ~k:1 ~t:1).Lang.Instance.input

let corrupted_k2 =
  (Lang.Instance.corrupt_repetition (Rng.copy rng0)
     ~base:(Lang.Instance.disjoint_pair (Rng.copy rng0) ~k:2))
    .Lang.Instance.input

let bcw_pair_m64 =
  let rng = Rng.copy rng0 in
  let x = Bitvec.random rng 64 in
  let y = Bitvec.create 64 in
  for i = 0 to 63 do
    if not (Bitvec.get x i) then Bitvec.set y i (Rng.bool rng)
  done;
  (x, y)

(* e16: the state-vector hot path.  [boxed_gate1] reimplements the old
   backend's kernel (two boxed float arrays, one branch per basis index)
   so the committed bench JSON itself records the speedup of the flat
   Bigarray pair-enumeration kernel over the representation it replaced,
   on the same machine. *)

let gate1_n = 16

let boxed_state =
  let d = 1 lsl gate1_n in
  let re = Array.make d 0.0 and im = Array.make d 0.0 in
  re.(0) <- 1.0;
  (re, im)

let boxed_gate1 (re, im) (g : Quantum.Gates.single) q =
  let bit = 1 lsl q in
  let d = Array.length re in
  let { Quantum.Gates.u00; u01; u10; u11 } = g in
  let i = ref 0 in
  while !i < d do
    if !i land bit = 0 then begin
      let j = !i lor bit in
      let ar = re.(!i) and ai = im.(!i) in
      let br = re.(j) and bi = im.(j) in
      re.(!i) <-
        (u00.Cplx.re *. ar) -. (u00.Cplx.im *. ai)
        +. (u01.Cplx.re *. br) -. (u01.Cplx.im *. bi);
      im.(!i) <-
        (u00.Cplx.re *. ai) +. (u00.Cplx.im *. ar)
        +. (u01.Cplx.re *. bi) +. (u01.Cplx.im *. br);
      re.(j) <-
        (u10.Cplx.re *. ar) -. (u10.Cplx.im *. ai)
        +. (u11.Cplx.re *. br) -. (u11.Cplx.im *. bi);
      im.(j) <-
        (u10.Cplx.re *. ai) +. (u10.Cplx.im *. ar)
        +. (u11.Cplx.re *. bi) +. (u11.Cplx.im *. br)
    end;
    incr i
  done

let flat_state = Quantum.State.create gate1_n

(* Runs [f] with the register backend pinned to one scheduling path:
   [`Seq] keeps the whole loop on the calling domain, [`Chunked] forces
   the chunked dispatch regardless of register size.  Both paths are
   bit-identical by contract; the bench shows what the toggle costs. *)
let pinned path f =
  let saved = Quantum.State.parallel_threshold () in
  Quantum.State.set_parallel_threshold
    (match path with `Seq -> max_int | `Chunked -> 0);
  Fun.protect ~finally:(fun () -> Quantum.State.set_parallel_threshold saved) f

let unitary_circ_n10 =
  let gates =
    [
      Circuit.Gate.H 0; Circuit.Gate.Cnot { control = 0; target = 9 };
      Circuit.Gate.T 4; Circuit.Gate.H 5;
      Circuit.Gate.Cnot { control = 5; target = 2 }; Circuit.Gate.Z 9;
    ]
  in
  Circuit.Circ.of_gates ~nqubits:10 gates

let tests =
  [
    Test.make ~name:"e16/gate1-boxed-ref-h-n16"
      (Staged.stage (fun () -> boxed_gate1 boxed_state Quantum.Gates.h 7));
    Test.make ~name:"e16/gate1-boxed-ref-t-n16"
      (Staged.stage (fun () -> boxed_gate1 boxed_state Quantum.Gates.t 7));
    Test.make ~name:"e16/gate1-flat-h-n16"
      (Staged.stage (fun () ->
           pinned `Seq (fun () ->
               Quantum.State.apply_gate1 flat_state Quantum.Gates.h 7)));
    Test.make ~name:"e16/gate1-flat-t-n16"
      (Staged.stage (fun () ->
           pinned `Seq (fun () ->
               Quantum.State.apply_gate1 flat_state Quantum.Gates.t 7)));
    Test.make ~name:"e16/gate1-flat-h-chunked-n16"
      (Staged.stage (fun () ->
           pinned `Chunked (fun () ->
               Quantum.State.apply_gate1 flat_state Quantum.Gates.h 7)));
    Test.make ~name:"e17/unitary-columns-n10"
      (Staged.stage (fun () -> ignore (Circuit.Circ.unitary unitary_circ_n10)));
    Test.make ~name:"e1/bcw-run-m64"
      (Staged.stage (fun () ->
           let x, y = bcw_pair_m64 in
           ignore (Comm.Bcw.run (Rng.create 1) ~x ~y)));
    Test.make ~name:"e2/oneway-rows-n8"
      (Staged.stage (fun () -> ignore (Comm.Exact.distinct_rows ~n:8)));
    Test.make ~name:"e3/recognizer-k2"
      (Staged.stage (fun () ->
           ignore (Oqsc.Recognizer.run ~rng:(Rng.create 2) member_k2)));
    Test.make ~name:"e4/amplified-x3-k1"
      (Staged.stage (fun () ->
           ignore (Oqsc.Recognizer.amplified ~rng:(Rng.create 3) ~repetitions:3 bad_k1)));
    Test.make ~name:"e5/census-copy-m4"
      (Staged.stage (fun () ->
           let machine = Machine.Machines.copy_then_compare ~m:4 in
           ignore (Machine.Optm.configs_at_cut machine "0110#0110" ~cut:5)));
    Test.make ~name:"e6/sketch-bucket-k3"
      (Staged.stage (fun () ->
           ignore
             (Oqsc.Sketch.run ~rng:(Rng.create 4) ~strategy:Oqsc.Sketch.Bucket_filter
                ~budget:16 member_k3)));
    Test.make ~name:"e7/block-k3"
      (Staged.stage (fun () ->
           ignore (Oqsc.Classical_block.run ~rng:(Rng.create 5) member_k3)));
    Test.make ~name:"e8/naive-k3"
      (Staged.stage (fun () -> ignore (Oqsc.Naive.run ~rng:(Rng.create 6) member_k3)));
    Test.make ~name:"e9/closed-form-sweep"
      (Staged.stage (fun () ->
           for t = 1 to 63 do
             ignore (Grover.Analysis.avg_success_random_j ~rounds:8 ~t ~space:64)
           done));
    Test.make ~name:"e10/a2-corrupted-k2"
      (Staged.stage (fun () ->
           ignore (Oqsc.Recognizer.run ~rng:(Rng.create 8) corrupted_k2)));
    Test.make ~name:"e11/lower-a3-k1"
      (Staged.stage (fun () ->
           let lay = Circuit.Ops.layout ~k:1 in
           let circ = Circuit.Circ.create ~nqubits:(Circuit.Ops.data_qubits lay) in
           Circuit.Circ.add_list circ (Circuit.Ops.u_k lay);
           Circuit.Circ.add_list circ (Circuit.Ops.v_bit lay 2);
           Circuit.Circ.add_list circ (Circuit.Ops.w_bit lay 1);
           Circuit.Circ.add_list circ (Circuit.Ops.s_k lay);
           ignore (Circuit.Lower.to_basis circ)));
    Test.make ~name:"e12/qfa-blocks-p61"
      (Staged.stage (fun () ->
           ignore (Qfa.Divisibility.blocks_needed (Rng.create 9) ~p:61 ~threshold:0.75)));
    Test.make ~name:"e13/nondet-decide-n64"
      (Staged.stage (fun () ->
           let x = String.make 64 '0' and y = String.make 63 '0' ^ "1" in
           ignore (Oqsc.Nondet_ne.decide (x ^ "#" ^ y))));
    Test.make ~name:"e15/compile-ldisj-shape"
      (Staged.stage (fun () ->
           ignore (Machine.Program.compile (Machine.Program.ldisj_shape ~width:7))));
    Test.make ~name:"e14/noisy-a3-k2"
      (Staged.stage (fun () ->
           let rng = Rng.create 14 in
           let ws = Machine.Workspace.create () in
           let a1 = Oqsc.A1.create ws in
           let noise s = Quantum.Noise.depolarize_all rng ~p:0.05 s in
           let a3 = ref None in
           String.iter
             (fun c ->
               let role = Oqsc.A1.feed a1 (Machine.Symbol.of_char c) in
               (match role with
               | Oqsc.A1.Prefix_sep -> a3 := Some (Oqsc.A3.create ~noise ws rng ~k:2)
               | _ -> ());
               match !a3 with Some p -> Oqsc.A3.observe p role | None -> ())
             member_k2));
  ]

(* Runs the microbenches, prints the classic text table, and returns
   [(name, ns_per_run option, r_square option)] sorted by name — the
   rows the JSON emitter and the --check gate both consume. *)
let run_microbenches tests =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let raws = Benchmark.all cfg instances (Test.make_grouped ~name:"oqsc" tests) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raws in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (name, result) ->
           let estimate =
             match Analyze.OLS.estimates result with
             | Some (e :: _) -> Some e
             | _ -> None
           in
           (name, estimate, Analyze.OLS.r_square result))
  in
  Printf.printf "== Bechamel micro-benchmarks (ns/run, OLS on monotonic clock) ==\n";
  Printf.printf "%-28s %14s %8s\n" "kernel" "ns/run" "r^2";
  Printf.printf "%s\n" (String.make 52 '-');
  List.iter
    (fun (name, estimate, r2) ->
      let estimate =
        match estimate with
        | Some e -> Printf.sprintf "%14.0f" e
        | None -> Printf.sprintf "%14s" "-"
      in
      let r2 =
        match r2 with
        | Some r -> Printf.sprintf "%8.4f" r
        | None -> Printf.sprintf "%8s" "-"
      in
      Printf.printf "%-28s %s %s\n" name estimate r2)
    rows;
  rows

let kernels_doc ~quick ?shard rows =
  let open Experiments.Json in
  Obj
    ([
       ("kind", Str "oqsc-bench");
       ("version", Int 1);
       ("seed", Int seed);
       ("quick", Bool quick);
       ( "kernels",
         List
           (List.map
              (fun (name, estimate, r2) ->
                Obj
                  [
                    ("name", Str name);
                    ( "ns_per_run",
                      match estimate with Some e -> Float e | None -> Null );
                    ("r_square", match r2 with Some r -> Float r | None -> Null);
                  ])
              rows) );
     ]
    @
    match shard with
    | None -> []
    | Some spec -> [ Experiments.Merge.json_field spec ])

type opts = {
  quick : bool;
  only : string list;
  shard : Experiments.Merge.spec option;
  json_file : string option;
  check : string option;
  tolerance : float;
  tables : bool;
  trace_file : string option;
}

let usage =
  "usage: bench/main.exe [--quick] [--only A,B] [--shard I/N] [--json FILE] [--check BASELINE] [--tolerance PCT] [--no-tables] [--trace FILE]"

let parse_args () =
  let rec go opts = function
    | [] -> opts
    | "--quick" :: rest -> go { opts with quick = true } rest
    | "--only" :: spec :: rest ->
        let only =
          String.split_on_char ',' spec |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        go { opts with only } rest
    | "--shard" :: spec :: rest -> (
        match Experiments.Merge.parse_spec spec with
        | Ok shard -> go { opts with shard = Some shard } rest
        | Error msg ->
            Printf.eprintf "--shard: %s\n%s\n" msg usage;
            exit 2)
    | "--json" :: file :: rest -> go { opts with json_file = Some file } rest
    | "--check" :: file :: rest -> go { opts with check = Some file } rest
    | "--tolerance" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some tolerance -> go { opts with tolerance } rest
        | None ->
            prerr_endline usage;
            exit 2)
    | "--no-tables" :: rest -> go { opts with tables = false } rest
    | "--trace" :: file :: rest -> go { opts with trace_file = Some file } rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n%s\n" arg usage;
        exit 2
  in
  go
    { quick = false; only = []; shard = None; json_file = None; check = None;
      tolerance = 25.0; tables = true; trace_file = None }
    (List.tl (Array.to_list Sys.argv))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let () =
  let opts = parse_args () in
  let tests =
    match opts.only with
    | [] -> tests
    | wanted ->
        List.filter
          (fun t ->
            List.exists (fun w -> contains_substring (Test.name t) w) wanted)
          tests
  in
  if tests = [] then begin
    Printf.eprintf "--only matched no kernels\n";
    exit 2
  end;
  let tests =
    match opts.shard with
    | None -> tests
    | Some spec -> Experiments.Merge.assign spec tests
  in
  if tests = [] then begin
    (* Only reachable with more shards than kernels. *)
    Printf.eprintf "--shard %s selected no kernels\n"
      (Experiments.Merge.to_string (Option.get opts.shard));
    exit 2
  end;
  if opts.trace_file <> None then Obs.Trace.start ();
  let rows =
    Obs.Trace.with_span "bench.kernels" (fun () -> run_microbenches tests)
  in
  let doc = kernels_doc ~quick:opts.quick ?shard:opts.shard rows in
  (match
     match opts.json_file with
     | Some "-" -> print_string (Experiments.Json.to_string doc)
     | Some path ->
         Out_channel.with_open_text path (fun oc ->
             Out_channel.output_string oc (Experiments.Json.to_string doc))
     | None -> ()
   with
  | exception Sys_error msg ->
      Printf.eprintf "--json: %s\n" msg;
      exit 2
  | () -> ());
  (match opts.check with
  | None -> ()
  | Some path -> (
      match
        try Ok (In_channel.with_open_text path In_channel.input_all)
        with Sys_error msg -> Error msg
      with
      | Error msg ->
          Printf.eprintf "--check: %s\n" msg;
          exit 2
      | Ok raw ->
      match Experiments.Json.parse raw with
      | Error msg ->
          Printf.eprintf "--check %s: %s\n" path msg;
          exit 2
      | Ok baseline ->
          (* r_square is in Json.default_ignored: only ns/run is gated. *)
          let drifts = Experiments.Json.diff ~tolerance:opts.tolerance baseline doc in
          if drifts = [] then
            Printf.printf "\nbench check OK: kernels within %g%% of %s\n"
              opts.tolerance path
          else begin
            List.iter (fun d -> Printf.eprintf "DRIFT %s\n" d) drifts;
            Printf.eprintf "bench check FAILED: %d drift(s) beyond %g%% vs %s\n"
              (List.length drifts) opts.tolerance path;
            exit 1
          end));
  if opts.tables then
    Obs.Trace.with_span "bench.tables" (fun () ->
        Printf.printf "\n== Experiment tables (one per DESIGN.md index entry) ==\n";
        Experiments.Registry.run_all ~quick:opts.quick ~seed Format.std_formatter;
        Format.pp_print_flush Format.std_formatter ());
  match opts.trace_file with
  | None -> ()
  | Some path -> (
      let dump = Obs.Trace.stop () in
      match Experiments.Chrome_trace.write path dump with
      | () -> Printf.eprintf "trace written to %s\n" path
      | exception Sys_error msg -> Printf.eprintf "--trace: %s\n" msg)
