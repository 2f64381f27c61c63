(* End-to-end benchmark: the commands people run, measured from
   outside, with every output checked.

     oqsc_bench.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1]
                    [--trace-file FILE] [--json FILE] [--smoke]
                    [--require BENCHMARK.json]
     oqsc_bench.exe compare [--benchmark FILE] A.json... -- B.json...

   Each repetition of a workload's unit of work is its own child process
   (this executable again, in its internal "child" mode), spawned one at
   a time, so peak RSS and GC state belong to one repetition.  A
   workload spawns repetitions until --seconds would be exceeded (at
   least one), then with --trace 1 one traced repetition.  wall_s,
   setup_s and peak_rss_mb are medians over the measured repetitions.
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}, with the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1).
   bench/e2e/README.md is the glossary. *)

open Bench_e2e
module Json = Experiments.Json
module W = Workloads

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("oqsc_bench: " ^ msg);
      exit 2)
    fmt

(* Absolute floors under compare's relative bounds: a change smaller
   than the floor is noise, whatever share of the median it is. *)
let floors = [ ("setup_s", 0.05) ]

(* ------------------------------------------------------- JSON access *)

let field name = function
  | Json.Obj f -> Option.value (List.assoc_opt name f) ~default:Json.Null
  | _ -> Json.Null

let to_float = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Float.nan

let to_int = function Json.Int i -> i | _ -> 0
let to_list = function Json.List l -> l | _ -> []
let to_str = function Json.Str s -> s | _ -> ""
let num name j = to_float (field name j)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> die "%s" msg
  | text -> (
      match Json.parse text with
      | Ok j -> j
      | Error msg -> die "%s: %s" path msg)

let metric_json (name, unit, value) =
  (name, Json.Obj [ ("unit", Json.Str unit); ("value", Json.Float value) ])

let metrics_of_json = function
  | Json.Obj f ->
      List.map
        (fun (name, m) -> (name, to_str (field "unit" m), num "value" m))
        f
  | _ -> []

(* ------------------------------------------------------- child side *)

let peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
  |> Option.value ~default:0

let child ~spawn_ns ~(w : W.t) ~seed ~size ~mode =
  let sp = if mode = "trace" then Span.create () else Span.off in
  let run = w.W.prepare size ~seed sp in
  let t0 = Span.now_ns () in
  let g0 = Gc.quick_stat () and c0 = Unix.times () in
  let check = run () in
  let t1 = Span.now_ns () in
  let g1 = Gc.quick_stat () and c1 = Unix.times () in
  let o = check () in
  let probe = if Span.enabled sp then W.probe size ~seed sp else [] in
  let cpu (t : Unix.process_times) = t.Unix.tms_utime +. t.Unix.tms_stime in
  let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
  let fields =
    [
      ("setup_ns", Json.Int (t0 - spawn_ns));
      ("unit_start_ns", Json.Int t0);
      ("unit_stop_ns", Json.Int t1);
      ("paused_ns", Json.Int o.W.paused_ns);
      ("cpu_s", Json.Float (cpu c1 -. cpu c0));
      ("minor_words", Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
      ( "promoted_words",
        Json.Float (g1.Gc.promoted_words -. g0.Gc.promoted_words) );
      ( "major_collections",
        Json.Int (g1.Gc.major_collections - g0.Gc.major_collections) );
      ("attempted", Json.Int o.W.attempted);
      ("failures", strs o.W.failures);
      ("symbols", Json.Int o.W.symbols);
      ( "latencies_ns",
        Json.List (List.map (fun l -> Json.Int l) o.W.latencies_ns) );
      ("layers", Json.Obj (List.map metric_json o.W.layers));
      ("probe", Json.Obj (List.map metric_json probe));
      ( "spans",
        Json.List (Array.to_list (Array.map Span.to_json (Span.spans sp))) );
      ("peak_rss_kb", Json.Int (peak_rss_kb ()));
    ]
  in
  print_string (Json.to_string (Json.Obj fields))

(* ------------------------------------------------------ parent side *)

let size_of_name = function
  | "full" -> W.Full
  | "smoke" -> W.Smoke
  | s -> die "unknown size %S" s

(* Spawn one child run and wait for it; its spawn time travels in argv
   so setup_s covers exec and runtime start-up. *)
let spawn ~(w : W.t) ~seed ~size mode =
  let r, wr = Unix.pipe ~cloexec:true () in
  let spawn_ns = Span.now_ns () in
  let argv =
    [|
      Sys.executable_name;
      "child";
      string_of_int spawn_ns;
      w.W.name;
      string_of_int seed;
      W.size_name size;
      mode;
    |]
  in
  let pid =
    Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let text = In_channel.input_all ic in
  close_in ic;
  match (snd (Unix.waitpid [] pid), Json.parse text) with
  | Unix.WEXITED 0, Ok doc -> doc
  | Unix.WEXITED 0, Error msg ->
      die "%s %s run printed invalid JSON: %s" w.W.name mode msg
  | Unix.WEXITED c, _ -> die "%s %s run exited with code %d" w.W.name mode c
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      die "%s %s run killed by signal %d" w.W.name mode s

type summary = { name : string; unit : string; samples : float list }

type report = {
  workload : string;
  seed : int;
  size : W.size;
  reps : int;  (** measured repetitions *)
  attempted : int;
  failures : string list;
  e2e : summary list;  (** BENCHMARK.json's end_to_end, in order *)
  extra : summary list;  (** workload-specific figures, never gated *)
  declared_layers : (string * string * float) list;
      (** BENCHMARK.json's per_layer *)
  workload_layers : (string * string * float) list;
  spans : Span.span array;  (** the traced run's spans *)
}

let summary name unit samples = { name; unit; samples }

(* Metrics of the traced repetition [t]: the probe's and the workload's
   layer figures, plus those that need the untraced repetitions
   [measured]. *)
let traced_layers t ~measured ~wall =
  let spans =
    to_list (field "spans" t)
    |> List.map (fun j ->
           match Span.of_json j with Ok s -> s | Error msg -> die "%s" msg)
    |> Array.of_list
  in
  let untraced_wall = Stats.median (List.map wall measured) in
  let med f = Stats.median (List.map f measured) in
  let layers = metrics_of_json (field "layers" t) in
  let layer name =
    List.find_map (fun (n, _, v) -> if n = name then Some v else None) layers
  in
  let efficiency =
    match
      (layer "experiments.registry.sum_s", layer "mathx.parallel.domains")
    with
    | Some sum, Some domains ->
        let e = sum /. (domains *. untraced_wall) in
        [ ("mathx.parallel.efficiency", "fraction", e) ]
    | _ -> []
  in
  let lo = int_of_float (num "unit_start_ns" t)
  and hi = int_of_float (num "unit_stop_ns" t) in
  ( metrics_of_json (field "probe" t)
    @ [
        ("runtime.gc.minor_words", "words", med (num "minor_words"));
        ( "runtime.gc.major_collections",
          "count",
          med (num "major_collections") );
        ("runtime.gc.promoted_words", "words", med (num "promoted_words"));
        ("runtime.cpu_s", "s", med (num "cpu_s"));
        ( "bench.trace_overhead_frac",
          "fraction",
          (wall t -. untraced_wall) /. untraced_wall );
        ("bench.span_coverage", "fraction", Span.coverage spans ~lo ~hi);
      ],
    layers @ efficiency,
    spans )

let run_workload ~size ~seed ~seconds ~trace (w : W.t) =
  let spawn = spawn ~w ~seed ~size in
  let start = Span.now_ns () in
  let wall c =
    (num "unit_stop_ns" c -. num "unit_start_ns" c -. num "paused_ns" c) /. 1e9
  in
  (* the next repetition is predicted to take as long as the last *)
  let rec measure acc =
    let t = Span.now_ns () in
    let c = spawn "measure" in
    let now = Span.now_ns () in
    if float_of_int (now - start + now - t) /. 1e9 <= seconds then
      measure (c :: acc)
    else List.rev (c :: acc)
  in
  let measured = measure [] in
  let traced = if trace then Some (spawn "trace") else None in
  let runs = measured @ Option.to_list traced in
  let each f = List.map f measured in
  let list name c = to_list (field name c) in
  let attempted =
    List.fold_left (fun a c -> a + to_int (field "attempted" c)) 0 runs
  in
  let failures =
    List.concat_map (fun c -> List.map to_str (list "failures" c)) runs
  in
  let latencies_ms =
    List.concat_map
      (fun c -> List.map (fun l -> to_float l /. 1e6) (list "latencies_ns" c))
      measured
  in
  let per_second count = each (fun c -> float_of_int (count c) /. wall c) in
  let extra =
    (if num "symbols" (List.hd measured) > 0.0 then
       [
         summary "symbols_per_s" "symbols/s"
           (per_second (fun c -> to_int (field "symbols" c)));
       ]
     else [])
    @ (if latencies_ms = [] then []
       else
         [
           summary "throughput_rps" "req/s"
             (per_second (fun c -> List.length (list "latencies_ns" c)));
           summary "latency_p50_ms" "ms"
             [ Stats.nearest_rank 50.0 latencies_ms ];
           summary "latency_p99_ms" "ms"
             [ Stats.nearest_rank 99.0 latencies_ms ];
           summary "latency_samples" "count"
             [ float_of_int (List.length latencies_ms) ];
         ])
    @ [
        summary "error_rate" "failed/attempted"
          [
            float_of_int (List.length failures)
            /. float_of_int (max 1 attempted);
          ];
      ]
  in
  let declared_layers, workload_layers, spans =
    match traced with
    | None -> ([], [], [||])
    | Some t -> traced_layers t ~measured ~wall
  in
  {
    workload = w.W.name;
    seed;
    size;
    reps = List.length measured;
    attempted;
    failures;
    e2e =
      [
        summary "wall_s" "s" (each wall);
        summary "setup_s" "s" (each (fun c -> num "setup_ns" c /. 1e9));
        summary "peak_rss_mb" "MiB"
          (each (fun c -> num "peak_rss_kb" c /. 1024.0));
      ];
    extra;
    declared_layers;
    workload_layers;
    spans;
  }

(* ---------------------------------------------------------- output *)

let print_report ~trace r =
  Printf.printf "== %s: seed %d, %s size, %d repetition(s) ==\n" r.workload
    r.seed (W.size_name r.size) r.reps;
  List.iter
    (fun s ->
      let q1, med, q3 = Stats.quartiles s.samples in
      match s.samples with
      | [ _ ] -> Printf.printf "  %-28s %14.6g %s\n" s.name med s.unit
      | l ->
          Printf.printf "  %-28s %14.6g %-16s median of %d [q1 %.6g, q3 %.6g]\n"
            s.name med s.unit (List.length l) q1 q3)
    (r.e2e @ r.extra);
  List.iter
    (fun (name, unit, v) ->
      Printf.printf "  layer %-38s %14.6g %s\n" name v unit)
    (r.declared_layers @ r.workload_layers);
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) r.failures;
  let metrics =
    if trace then List.map metric_json r.declared_layers
    else
      List.map
        (fun s -> metric_json (s.name, s.unit, Stats.median s.samples))
        r.e2e
  in
  print_endline
    (Serve.Protocol.to_line
       (Json.Obj
          [
            ("correct", Json.Bool (r.failures = []));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int (List.length r.failures));
            ("metrics", Json.Obj metrics);
          ]))

let report_json r =
  let summary s =
    let q1, med, q3 = Stats.quartiles s.samples in
    ( s.name,
      Json.Obj
        [
          ("unit", Json.Str s.unit);
          ("value", Json.Float med);
          ("q1", Json.Float q1);
          ("q3", Json.Float q3);
          ("n", Json.Int (List.length s.samples));
        ] )
  in
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Int r.seed);
      ("size", Json.Str (W.size_name r.size));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int (List.length r.failures));
      ("failures", Json.List (List.map (fun f -> Json.Str f) r.failures));
      ("metrics", Json.Obj (List.map summary (r.e2e @ r.extra)));
      ( "layers",
        Json.Obj (List.map metric_json (r.declared_layers @ r.workload_layers))
      );
    ]

(* ------------------------------------------------- BENCHMARK.json *)

type declared = {
  dname : string;
  dunit : string;
  better : string;
  bound : float;
}

let declared section bench =
  List.map
    (fun m ->
      {
        dname = to_str (field "name" m);
        dunit = to_str (field "unit" m);
        better = to_str (field "better" m);
        bound = num "bound" m;
      })
    (to_list (field section bench))

(* The smoke gate: every metric BENCHMARK.json names is reported with
   its unit on every workload, no operation failed, every span has a
   non-negative self time, and the spans export as a lint-clean trace. *)
let require path reports =
  let bench = parse_file path in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names =
    List.map
      (fun m -> to_str (field "name" m))
      (to_list (field "workloads" bench))
  in
  let ours = List.map (fun (w : W.t) -> w.W.name) W.all in
  if List.sort compare names <> List.sort compare ours then
    problem "BENCHMARK.json workloads %s are not %s" (String.concat "," names)
      (String.concat "," ours);
  List.iter
    (fun r ->
      let check section reported =
        List.iter
          (fun d ->
            match List.assoc_opt d.dname reported with
            | None ->
                problem "%s: %s metric %s missing" r.workload section d.dname
            | Some u when u <> d.dunit ->
                problem "%s: %s reported in %s, declared in %s" r.workload
                  d.dname u d.dunit
            | Some _ -> ())
          (declared section bench)
      in
      check "end_to_end" (List.map (fun s -> (s.name, s.unit)) r.e2e);
      check "per_layer" (List.map (fun (n, u, _) -> (n, u)) r.declared_layers);
      List.iter (fun f -> problem "%s: %s" r.workload f) r.failures;
      Array.iteri
        (fun i self ->
          if self < 0 then
            problem "%s: span %s has self time %d ns" r.workload
              r.spans.(i).Span.name self)
        (Span.self_ns r.spans))
    reports;
  let trace = Span.dump (List.map (fun r -> r.spans) reports) in
  (match Experiments.Chrome_trace.(lint (document trace)) with
  | Ok _ -> ()
  | Error errs -> List.iter (problem "trace: %s") errs);
  match List.rev !problems with
  | [] ->
      Printf.printf "requirements of %s met on %d workload(s)\n" path
        (List.length reports)
  | ps ->
      List.iter (fun p -> Printf.eprintf "REQUIRE %s\n" p) ps;
      exit 1

(* --------------------------------------------------------- compare *)

let compare_cmd args =
  let benchmark, args =
    match args with
    | "--benchmark" :: f :: rest -> (f, rest)
    | rest -> ("BENCHMARK.json", rest)
  in
  let rec split acc = function
    | "--" :: b -> (List.rev acc, b)
    | a :: rest -> split (a :: acc) rest
    | [] -> die "usage: compare [--benchmark FILE] A.json... -- B.json..."
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then
    die "compare needs report files on both sides of --";
  let runs files =
    List.concat_map (fun f -> to_list (field "runs" (parse_file f))) files
  in
  let a_runs = runs a_files and b_runs = runs b_files in
  let bench = parse_file benchmark in
  let workload r = to_str (field "workload" r) in
  let row = Printf.printf "%-10s %-14s %-34s %-34s %-6s %s\n" in
  row "workload" "metric" "A median [q1, q3] (n)" "B median [q1, q3] (n)"
    "B wins" "verdict";
  List.iter
    (fun wl ->
      let a = List.filter (fun r -> workload r = wl) a_runs
      and b = List.filter (fun r -> workload r = wl) b_runs in
      if b <> [] then begin
        List.iter
          (fun d ->
            let values side =
              List.map
                (fun r -> num "value" (field d.dname (field "metrics" r)))
                side
            in
            let va = values a and vb = values b in
            let show v =
              let q1, m, q3 = Stats.quartiles v in
              Printf.sprintf "%.6g [%.6g, %.6g] (%d)" m q1 q3 (List.length v)
            in
            match Stats.direction_of_string d.better with
            | None ->
                die "%s: unknown direction %S for %s" benchmark d.better
                  d.dname
            | Some dir ->
                let c =
                  Stats.compare_samples dir ~bound:d.bound
                    ?floor:(List.assoc_opt d.dname floors)
                    va vb
                in
                row wl d.dname (show va) (show vb)
                  (Printf.sprintf "%d/%d" c.Stats.wins c.Stats.pairs)
                  (Stats.verdict_name c.Stats.verdict))
          (declared "end_to_end" bench);
        let failed side =
          List.fold_left (fun acc r -> acc + to_int (field "failed" r)) 0 side
        in
        Printf.printf "%-10s %-14s A %d, B %d\n" wl "failed" (failed a)
          (failed b)
      end)
    (List.sort_uniq compare (List.map workload a_runs))

(* ------------------------------------------------------------ main *)

let main () =
  let workload = ref None and seed = ref 2006 and seconds = ref 0.0 in
  let trace = ref false and trace_file = ref None and json_file = ref None in
  let smoke = ref false and req = ref None in
  let some r = Arg.String (fun s -> r := Some s) in
  let spec =
    [
      ("--workload", some workload, "W  reproduce, audit, stream or serve");
      ("--seed", Arg.Set_int seed, "S  workload seed (default 2006)");
      ( "--seconds",
        Arg.Set_float seconds,
        "T  start repetitions while the next fits in T seconds (default 0)" );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun s -> trace := s = "1"),
        "  1 adds a traced run and reports the per-layer metrics" );
      ("--trace-file", some trace_file, "FILE  write spans as a Chrome trace");
      ("--json", some json_file, "FILE  write the full report for compare");
      ("--smoke", Arg.Set smoke, "  smoke sizes (see README.md)");
      ("--require", some req, "FILE  fail unless FILE's metrics are reported");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "oqsc_bench.exe [options]\n\
     oqsc_bench.exe compare [--benchmark FILE] A.json... -- B.json...";
  let workloads =
    match !workload with
    | None -> W.all
    | Some name -> (
        match W.find name with
        | Some w -> [ w ]
        | None -> die "unknown workload %S" name)
  in
  let size = if !smoke then W.Smoke else W.Full in
  let reports =
    List.map
      (fun w ->
        let r =
          run_workload ~size ~seed:!seed ~seconds:!seconds ~trace:!trace w
        in
        print_report ~trace:!trace r;
        r)
      workloads
  in
  Option.iter
    (fun f ->
      let doc =
        Json.Obj
          [
            ("kind", Json.Str "oqsc-bench-e2e");
            ("version", Json.Int 1);
            ("runs", Json.List (List.map report_json reports));
          ]
      in
      Out_channel.with_open_text f (fun oc ->
          Out_channel.output_string oc (Json.to_string doc)))
    !json_file;
  Option.iter
    (fun f ->
      Experiments.Chrome_trace.write f
        (Span.dump (List.map (fun r -> r.spans) reports)))
    !trace_file;
  Option.iter (fun f -> require f reports) !req;
  if List.exists (fun r -> r.failures <> []) reports then exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "child"; spawn_ns; name; seed; size; mode ] -> (
      match W.find name with
      | Some w ->
          child ~spawn_ns:(int_of_string spawn_ns) ~w
            ~seed:(int_of_string seed) ~size:(size_of_name size) ~mode
      | None -> die "unknown workload %S" name)
  | _ :: "compare" :: args -> compare_cmd args
  | _ -> main ()
