(* oqsc: command-line front end.

   Subcommands:
     gen   - generate an L_DISJ instance (member / intersecting / corrupted /
             malformed) on stdout
     run   - run a recognizer (quantum / block / naive / sketch) on an input
     ne    - decide the L_NE extension language nondeterministically
     run-all - run experiments across domains and print their tables
             (--only ID for one), emit/check JSON results,
             optionally record a Chrome trace timeline (--trace); --shard
             I/N runs one process-level shard of the selection
     space-audit - fit space-scaling exponents and gate them against
             the paper's bands; --shard I/N measures one slice of the
             k sweep (gate deferred to merge)
     merge - recombine a complete --shard document set into bytes
             identical to the unsharded run
     trace-lint - structurally validate an oqsc-trace document
     serve - long-lived batched experiment service (NDJSON on
             stdin/stdout, or length-prefixed frames on --socket);
             wire protocol in docs/PROTOCOL.md
     bench-serve - replay a recorded request mix against the serve
             engine and report throughput + server-side p50/p99
     ids   - list experiment ids with descriptions *)

open Cmdliner
open Mathx

(* Read the input ("-" for stdin) and run [f] on it; an unreadable file,
   or an input [f] rejects with [Invalid_argument], ends the command
   with the usage error ["<what>: <reason>"]. *)
let with_input ~what input f =
  match
    match input with
    | "-" -> In_channel.input_all In_channel.stdin
    | path -> In_channel.with_open_text path In_channel.input_all
  with
  | exception Sys_error msg -> `Error (false, what ^ ": " ^ msg)
  | text -> (
      match f (String.trim text) with
      | exception Invalid_argument msg -> `Error (false, what ^ ": " ^ msg)
      | () -> `Ok ())

(* Write [doc] to [dest] ("-" for stdout; nothing when [dest] is absent),
   then continue with [k]; a [Sys_error] ends the command with the error
   ["<what>: <reason>"]. *)
let write_json ~what dest doc k =
  match dest with
  | None -> k ()
  | Some dest -> (
      let text = Experiments.Json.to_string doc in
      match
        if dest = "-" then print_string text
        else
          Out_channel.with_open_text dest (fun oc ->
              Out_channel.output_string oc text)
      with
      | exception Sys_error msg -> `Error (false, what ^ ": " ^ msg)
      | () -> k ())

(* ------------------------------------------------------------------ gen *)

let gen_cmd =
  let k =
    Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Language parameter k >= 1.")
  in
  let kind =
    Arg.(
      value
      & opt (enum [ ("member", `Member); ("intersect", `Intersect); ("corrupt", `Corrupt); ("malformed", `Malformed) ]) `Member
      & info [ "kind" ] ~docv:"KIND" ~doc:"Instance kind: member | intersect | corrupt | malformed.")
  in
  let t =
    Arg.(value & opt int 1 & info [ "t" ] ~docv:"T" ~doc:"Planted intersections (intersect kind).")
  in
  let seed = Arg.(value & opt int 2006 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let action k kind t seed =
    let rng = Rng.create seed in
    match
      match kind with
      | `Member -> Lang.Instance.disjoint_pair rng ~k
      | `Intersect -> Lang.Instance.intersecting_pair rng ~k ~t
      | `Corrupt ->
          Lang.Instance.corrupt_repetition rng ~base:(Lang.Instance.disjoint_pair rng ~k)
      | `Malformed -> Lang.Instance.malformed rng ~k
    with
    | exception Invalid_argument msg -> `Error (false, "gen: " ^ msg)
    | inst ->
        print_string inst.Lang.Instance.input;
        print_newline ();
        Printf.eprintf "k=%d length=%d member=%b\n" k
          (String.length inst.Lang.Instance.input)
          (Lang.Instance.is_member inst);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate an L_DISJ instance on stdout (ground truth on stderr).")
    Term.(ret (const action $ k $ kind $ t $ seed))

(* ------------------------------------------------------------------ run *)

let run_cmd =
  let algo =
    Arg.(
      value
      & opt (enum [ ("quantum", `Quantum); ("block", `Block); ("naive", `Naive); ("bucket", `Bucket); ("subsample", `Subsample) ]) `Quantum
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"Recognizer: quantum | block | naive | bucket | subsample.")
  in
  let input =
    Arg.(value & opt string "-" & info [ "input" ] ~docv:"FILE" ~doc:"Input file, or - for stdin.")
  in
  let budget =
    Arg.(value & opt int 16 & info [ "budget" ] ~docv:"BITS" ~doc:"Sketch budget in bits.")
  in
  let seed = Arg.(value & opt int 2006 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let report algo w budget rng =
    (match algo with
    | `Quantum ->
        let r = Oqsc.Recognizer.run ~rng w in
        Printf.printf
          "verdict: %s (exact acceptance probability %.4f)\nspace: %d classical bits + %d qubits\nA1 ok: %b  A2 ok: %b  k: %s\n"
          (if r.Oqsc.Recognizer.accept then "in L_DISJ" else "not in L_DISJ")
          r.Oqsc.Recognizer.accept_probability
          r.Oqsc.Recognizer.space.Oqsc.Recognizer.classical_bits
          r.Oqsc.Recognizer.space.Oqsc.Recognizer.qubits r.Oqsc.Recognizer.a1_ok
          r.Oqsc.Recognizer.a2_ok
          (match r.Oqsc.Recognizer.k with Some k -> string_of_int k | None -> "?")
    | `Block ->
        let r = Oqsc.Classical_block.run ~rng w in
        Printf.printf "verdict: %s\nspace: %d bits (block store %d)\n"
          (if r.Oqsc.Classical_block.accept then "in L_DISJ" else "not in L_DISJ")
          r.Oqsc.Classical_block.space_bits r.Oqsc.Classical_block.storage_bits
    | `Naive ->
        let r = Oqsc.Naive.run ~rng w in
        Printf.printf "verdict: %s\nspace: %d bits (x store %d)\n"
          (if r.Oqsc.Naive.accept then "in L_DISJ" else "not in L_DISJ")
          r.Oqsc.Naive.space_bits r.Oqsc.Naive.storage_bits
    | `Bucket | `Subsample ->
        let strategy =
          if algo = `Bucket then Oqsc.Sketch.Bucket_filter else Oqsc.Sketch.Subsample
        in
        let r = Oqsc.Sketch.run ~rng ~strategy ~budget w in
        Printf.printf "sketch claims: %s\nspace: %d bits (budget %d)\n"
          (if r.Oqsc.Sketch.claims_intersecting then "intersecting" else "disjoint")
          r.Oqsc.Sketch.space_bits budget);
    Printf.printf "ground truth: %s\n"
      (if Lang.Ldisj.member w then "in L_DISJ" else "not in L_DISJ")
  in
  let action algo input budget seed =
    with_input ~what:"run" input (fun w -> report algo w budget (Rng.create seed))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a recognizer on an input string.")
    Term.(ret (const action $ algo $ input $ budget $ seed))

(* -------------------------------------------------------------- run-all *)

let run_all_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps and trial counts.") in
  let seed = Arg.(value & opt int 2006 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Comma-separated experiment ids to run (e.g. e3,e9); default all.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N" ~doc:"Domain count for the parallel runner.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write structured results as sorted-key JSON to FILE (- for stdout).")
  in
  let timing =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:"Print a per-experiment wall-clock summary and include wall_ms in the JSON output (wall_ms breaks byte-for-byte reproducibility; --check always ignores it).")
  in
  let check =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"BASELINE"
          ~doc:"Compare this run against a baseline JSON file and exit non-zero on drift.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.5
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Relative drift allowed per numeric value by --check, in percent.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the text tables.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a wall-clock timeline of the run and write it to FILE (- for stdout) as Chrome trace-event JSON (kind oqsc-trace; load in Perfetto or chrome://tracing). Tracing never affects results: the --json document is byte-identical with and without it.")
  in
  let shard =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Run only shard I of N (0-based): the selected experiments are dealt round-robin by catalogue position, so the N shards partition the run and each shard's output is byte-stable. The JSON document carries a shard provenance field; recombine a complete shard set with 'oqsc merge'.")
  in
  let action quick seed only domains json_file timing check tolerance quiet
      trace_file shard =
    let only =
      Option.map
        (fun s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun id -> id <> ""))
        only
    in
    let shard =
      match shard with
      | None -> Ok None
      | Some s -> Result.map Option.some (Experiments.Merge.parse_spec s)
    in
    if only = Some [] then
      `Error (false, "--only selected no experiments; try 'oqsc ids'")
    else
    match
      Option.fold ~none:(Ok ()) ~some:Experiments.Registry.validate_only only
    with
    | Error msg -> `Error (false, "--only: " ^ msg)
    | Ok () ->
    match shard with
    | Error msg -> `Error (false, "--shard: " ^ msg)
    | Ok shard ->
    (* The work list this process owns: the catalogue filtered by
       --only, then dealt round-robin into N shards by position. *)
    let selected =
      let base =
        match only with
        | None -> Experiments.Registry.ids
        | Some wanted ->
            List.filter
              (fun id -> List.mem id wanted)
              Experiments.Registry.ids
      in
      match shard with
      | None -> base
      | Some spec -> Experiments.Merge.assign spec base
    in
    let shard_field =
      Option.map
        (fun (s : Experiments.Merge.spec) -> (s.index, s.count))
        shard
    in
    begin
    if trace_file <> None then Obs.Trace.start ();
    (* The run and render phases land inside the trace; everything from
       the JSON emit on happens after [stop], which also means a crash
       while writing the trace file cannot leave tracing enabled. *)
    let traced_run () =
      let results =
        Obs.Trace.with_span "run-all.experiments" (fun () ->
            Experiments.Registry.results ~quick ~seed ?domains
              ~only:selected ())
      in
      if not quiet then
        Obs.Trace.with_span "run-all.render" (fun () ->
            List.iter (Experiments.Report.render Format.std_formatter) results;
            Format.pp_print_flush Format.std_formatter ());
      results
    in
    match traced_run () with
    | exception Not_found ->
        if trace_file <> None then ignore (Obs.Trace.stop ());
        `Error (false, "unknown experiment id in --only; try 'oqsc ids'")
    | results -> (
        (match trace_file with
        | None -> ()
        | Some path ->
            let dump = Obs.Trace.stop () in
            (try Experiments.Chrome_trace.write path dump
             with Sys_error msg -> Printf.eprintf "--trace: %s\n" msg));
        if timing then begin
          Printf.printf "\n== timing (wall-clock per experiment) ==\n";
          List.iter
            (fun (r : Experiments.Report.t) ->
              Printf.printf "%-4s %10.1f ms\n" r.Experiments.Report.id
                r.Experiments.Report.wall_ms)
            results;
          Printf.printf "%-4s %10.1f ms\n" "all"
            (List.fold_left
               (fun acc (r : Experiments.Report.t) ->
                 acc +. r.Experiments.Report.wall_ms)
               0.0 results)
        end;
        let doc ~timing =
          Experiments.Json.of_results ~timing ?shard:shard_field ~seed ~quick
            results
        in
        write_json ~what:"--json" json_file (doc ~timing) (fun () ->
        match check with
        | None -> `Ok ()
        | Some path -> (
            match In_channel.with_open_text path In_channel.input_all with
            | exception Sys_error msg -> `Error (false, "--check: " ^ msg)
            | raw ->
            match Experiments.Json.parse raw with
            | Error msg -> `Error (false, Printf.sprintf "--check %s: %s" path msg)
            | Ok baseline ->
                let drifts =
                  Experiments.Json.diff ~tolerance baseline (doc ~timing:false)
                in
                if drifts = [] then begin
                  Printf.printf "check OK: %d experiment(s) within %g%% of %s\n"
                    (List.length results) tolerance path;
                  `Ok ()
                end
                else begin
                  List.iter (fun d -> Printf.eprintf "DRIFT %s\n" d) drifts;
                  Printf.eprintf "check FAILED: %d drift(s) beyond %g%% vs %s\n"
                    (List.length drifts) tolerance path;
                  exit 1
                end)))
    end
  in
  Cmd.v
    (Cmd.info "run-all"
       ~doc:
         "Run experiments across domains; optionally emit JSON results, record a Chrome trace timeline, and gate against a baseline.")
    Term.(
      ret
        (const action $ quick $ seed $ only $ domains $ json_file
       $ timing $ check $ tolerance $ quiet $ trace_file $ shard))

(* ---------------------------------------------------------- space-audit *)

let space_audit_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced k sweep and simulation cap.") in
  let seed = Arg.(value & opt int 2006 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the audit document as sorted-key JSON to FILE (- for stdout).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the text table.")
  in
  let timing =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Print a per-row wall-clock summary and include wall_ms telemetry (per row and total) in the JSON document; the --check differ always ignores wall_ms, so timed and untimed documents gate interchangeably.")
  in
  let shard =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Measure only shard I of N of the k sweep (0-based, round-robin by row position; skipped rows still burn their PRNG splits so shard rows are byte-identical to the full sweep's). A shard document carries the shard provenance field and no fit/verdict — and the exit-code gate is deferred — until a complete shard set is recombined with 'oqsc merge'.")
  in
  let timing_table rows total =
    Printf.printf "\n== timing (wall-clock per row) ==\n";
    List.iter
      (fun (r : Experiments.Space_audit.row) ->
        Printf.printf "k=%-2d %10.1f ms\n" r.Experiments.Space_audit.k
          r.Experiments.Space_audit.wall_ms)
      rows;
    Printf.printf "all  %10.1f ms\n" total
  in
  let action quick seed json_file quiet timing shard =
    match
      match shard with
      | None -> Ok None
      | Some s -> Result.map Option.some (Experiments.Merge.parse_spec s)
    with
    | Error msg -> `Error (false, "--shard: " ^ msg)
    | Ok (Some spec) ->
        (* One shard of the sweep: rows only.  The fit needs the full
           row set, so the verdict (and the non-zero exit it drives)
           belongs to the merged document, not to any single shard. *)
        let shard = (spec.Experiments.Merge.index, spec.Experiments.Merge.count) in
        let rows = Experiments.Space_audit.rows ~quick ~shard ~seed () in
        if not quiet then begin
          Experiments.Report.render_body Format.std_formatter
            (Experiments.Space_audit.shard_body ~shard rows);
          Format.pp_print_flush Format.std_formatter ()
        end;
        if timing then
          timing_table rows
            (List.fold_left
               (fun acc (r : Experiments.Space_audit.row) ->
                 acc +. r.Experiments.Space_audit.wall_ms)
               0.0 rows);
        write_json ~what:"--json" json_file
          (Experiments.Space_audit.shard_to_json ~timing ~shard ~seed ~quick
             rows)
          (fun () -> `Ok ())
    | Ok None ->
        let a = Experiments.Space_audit.audit ~quick ~seed () in
        if not quiet then begin
          Experiments.Report.render_body Format.std_formatter
            (Experiments.Space_audit.body a);
          Format.pp_print_flush Format.std_formatter ()
        end;
        if timing then
          timing_table a.Experiments.Space_audit.rows
            (Experiments.Space_audit.total_wall_ms a);
        write_json ~what:"--json" json_file
          (Experiments.Space_audit.to_json ~timing ~seed ~quick a)
          (fun () ->
            if Experiments.Space_audit.passed a then `Ok ()
            else begin
              Printf.eprintf "space-audit FAILED: classical_ok=%b quantum_ok=%b\n"
                a.Experiments.Space_audit.verdict
                  .Experiments.Space_audit.classical_ok
                a.Experiments.Space_audit.verdict
                  .Experiments.Space_audit.quantum_ok;
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "space-audit"
       ~doc:
         "Sweep k, fit space-scaling exponents for the classical and quantum machines, and exit non-zero unless the classical slope lands in its n^(1/3) band and the quantum data prefers the logarithmic model.")
    Term.(
      ret
        (const action $ quick $ seed $ json_file $ quiet $ timing $ shard))

(* ---------------------------------------------------------------- merge *)

let merge_cmd =
  let out =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output path for the merged document, or - for stdout.")
  in
  let inputs =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"IN"
          ~doc:
            "Shard documents written with --shard (any order).  Together they must form one complete, disjoint shard set from a single run configuration.")
  in
  let action out inputs =
    let read_doc path =
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error msg -> Error msg
      | raw -> (
          match Experiments.Json.parse raw with
          | Ok doc -> Ok (path, doc)
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
    in
    let rec read_all acc = function
      | [] -> Ok (List.rev acc)
      | path :: rest -> (
          match read_doc path with
          | Ok entry -> read_all (entry :: acc) rest
          | Error msg -> Error msg)
    in
    match read_all [] inputs with
    | Error msg -> `Error (false, "merge: " ^ msg)
    | Ok docs -> (
        match Experiments.Merge.merge docs with
        | Error msg -> `Error (false, "merge: " ^ msg)
        | Ok merged ->
            write_json ~what:"merge" (Some out) merged (fun () -> `Ok ()))
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Recombine a complete set of --shard JSON documents into one document byte-identical to the corresponding unsharded run (the shard provenance field is validated, then dropped; a sharded space-audit's fit and verdict are recomputed from the merged rows).")
    Term.(ret (const action $ out $ inputs))

(* ----------------------------------------------------------- trace-lint *)

let trace_lint_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"An oqsc-trace document written by --trace.")
  in
  let action file =
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error msg -> `Error (false, "trace-lint: " ^ msg)
    | raw -> (
        match Experiments.Json.parse raw with
        | Error msg -> `Error (false, Printf.sprintf "trace-lint %s: %s" file msg)
        | Ok doc -> (
            match Experiments.Chrome_trace.lint doc with
            | Ok { Experiments.Chrome_trace.events; tracks; max_depth } ->
                Printf.printf
                  "trace OK: %d event(s) on %d track(s), max span depth %d\n"
                  events tracks max_depth;
                `Ok ()
            | Error problems ->
                List.iter (fun p -> Printf.eprintf "TRACE %s\n" p) problems;
                Printf.eprintf "trace-lint FAILED: %d problem(s) in %s\n"
                  (List.length problems) file;
                exit 1))
  in
  Cmd.v
    (Cmd.info "trace-lint"
       ~doc:
         "Validate an oqsc-trace document: envelope, per-track B/E span balance, nondecreasing timestamps, flow-arrow pairing, and zero dropped events.")
    Term.(ret (const action $ file))

(* ------------------------------------------------------------- log-lint *)

let log_lint_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"An NDJSON request log written by serve --log.")
  in
  let action file =
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error msg -> `Error (false, "log-lint: " ^ msg)
    | raw -> (
        let lines =
          String.split_on_char '\n' raw
          |> List.filter (fun l -> String.trim l <> "")
        in
        match Serve.Reqlog.lint lines with
        | Ok
            {
              Serve.Reqlog.lines;
              admitted;
              rejected;
              flushed;
              replied;
              dropped;
            } ->
            Printf.printf
              "log OK: %d event(s) — %d admitted, %d rejected, %d flushed, %d \
               replied, %d dropped\n"
              lines admitted rejected flushed replied dropped;
            `Ok ()
        | Error problems ->
            List.iter (fun p -> Printf.eprintf "LOG %s\n" p) problems;
            Printf.eprintf "log-lint FAILED: %d problem(s) in %s\n"
              (List.length problems) file;
            exit 1)
  in
  Cmd.v
    (Cmd.info "log-lint"
       ~doc:
         "Validate an NDJSON request log written by serve --log: every event carries the documented key set for its kind, seq counts from 0 with no gaps, and timestamps are nondecreasing (docs/SCHEMA.md, \"Request-log events\").")
    Term.(ret (const action $ file))

(* ---------------------------------------------------------------- serve *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at PATH (length-prefixed frames; see docs/PROTOCOL.md) instead of newline-delimited JSON on stdin/stdout.")
  in
  let queue =
    Arg.(
      value
      & opt int Serve.Server.default_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission-queue capacity; a full queue answers queue_full.")
  in
  let batch =
    Arg.(
      value
      & opt int Serve.Server.default_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:"Queue length that triggers a parallel flush (clamped to the queue capacity).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N" ~doc:"Cap the parallel runner at N domains.")
  in
  let max_clients =
    Arg.(
      value
      & opt int Serve.Server.default_max_clients
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Socket transport: serve up to N concurrent connections (one thread per client); further connections wait in the listen backlog until a slot frees.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record serve.admit / serve.request / serve.flush spans (with per-request flow arrows tying admission to dispatch) for the whole session and write Chrome trace-event JSON to FILE on exit. Tracing never affects reply payloads.")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Write one NDJSON event per request lifecycle transition (admitted, rejected, flushed, replied, dropped) to FILE; validate with 'oqsc log-lint'. Logging never affects reply payloads.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"FILE"
          ~doc:
            "Periodically (and at exit) write the metrics registry in Prometheus text exposition format to FILE, atomically via rename. The same snapshot a v2 metrics request serves as JSON.")
  in
  let action socket queue batch domains max_clients trace_file log_file
      metrics_file =
    if queue < 1 then `Error (false, "serve: --queue must be >= 1")
    else if batch < 1 then `Error (false, "serve: --batch must be >= 1")
    else if max_clients < 1 then
      `Error (false, "serve: --max-clients must be >= 1")
    else begin
      match
        match log_file with
        | None -> Ok None
        | Some p -> (
            try Ok (Some (Serve.Reqlog.open_log p))
            with Sys_error msg -> Error msg)
      with
      | Error msg -> `Error (false, "--log: " ^ msg)
      | Ok log ->
          let t = Serve.Server.create ~capacity:queue ~batch ?domains ?log () in
          if trace_file <> None then Obs.Trace.start ();
          let dump_metrics () =
            match metrics_file with
            | None -> ()
            | Some path -> (
                (* Write-then-rename so a scraper never reads a torn
                   file. *)
                let tmp = path ^ ".tmp" in
                try
                  Out_channel.with_open_text tmp (fun oc ->
                      Out_channel.output_string oc (Serve.Server.metrics_text t));
                  Sys.rename tmp path
                with Sys_error msg ->
                  Printf.eprintf "--metrics-file: %s\n" msg)
          in
          let dumper_stop = Atomic.make false in
          let dumper =
            match metrics_file with
            | None -> None
            | Some _ ->
                Some
                  (Thread.create
                     (fun () ->
                       while not (Atomic.get dumper_stop) do
                         Thread.delay 0.5;
                         dump_metrics ()
                       done)
                     ())
          in
          let stop_dumper () =
            match dumper with
            | None -> ()
            | Some th ->
                Atomic.set dumper_stop true;
                Thread.join th
          in
          let close_log () =
            match log with
            | None -> ()
            | Some l -> ( try Serve.Reqlog.close l with Sys_error _ -> ())
          in
          let finish_trace () =
            match trace_file with
            | None -> ()
            | Some path ->
                let dump = Obs.Trace.stop () in
                (try Experiments.Chrome_trace.write path dump
                 with Sys_error msg -> Printf.eprintf "--trace: %s\n" msg)
          in
          (match
             match socket with
             | None -> Serve.Server.serve_channels t stdin stdout
             | Some path -> Serve.Server.serve_socket ~max_clients t path
           with
          | () ->
              stop_dumper ();
              dump_metrics ();
              close_log ();
              finish_trace ();
              `Ok ()
          | exception Failure msg ->
              stop_dumper ();
              close_log ();
              if trace_file <> None then ignore (Obs.Trace.stop ());
              `Error (false, msg)
          | exception Unix.Unix_error (e, fn, arg) ->
              stop_dumper ();
              close_log ();
              if trace_file <> None then ignore (Obs.Trace.stop ());
              `Error
                ( false,
                  Printf.sprintf "serve: %s %s: %s" fn arg
                    (Unix.error_message e) ))
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived batched experiment service speaking the versioned request/reply protocol of docs/PROTOCOL.md (newline-delimited JSON on stdin/stdout, or length-prefixed frames with --socket). Served run/sweep payloads are byte-identical to run-all --only / space-audit --shard output; the telemetry switches (--trace, --log, --metrics-file) never change a payload byte.")
    Term.(
      ret
        (const action $ socket $ queue $ batch $ domains $ max_clients
       $ trace_file $ log_file $ metrics_file))

(* ---------------------------------------------------------- bench-serve *)

let bench_serve_cmd =
  let mix =
    Arg.(
      value
      & pos 0 string "examples/serve_mix.ndjson"
      & info [] ~docv:"MIX"
          ~doc:"Request mix: a file of newline-delimited request envelopes.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Replay against a running 'oqsc serve --socket PATH' process instead of an in-process engine.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"After the replay, send a shutdown request to the --socket server and wait for its reply.")
  in
  let clients =
    Arg.(
      value & opt int 1
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Socket mode: partition the mix round-robin across N concurrent connections, each strictly validating its replies and the per-connection ordering guarantee.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the replay report (counters, client-side timings, the server's stats payload, and its end-of-run metrics snapshot) as sorted-key JSON to FILE (- for stdout). Telemetry: wall clocks vary run to run.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N" ~doc:"Replay the whole mix N times back to back.")
  in
  let queue =
    Arg.(
      value
      & opt int Serve.Server.default_capacity
      & info [ "queue" ] ~docv:"N" ~doc:"In-process engine queue capacity.")
  in
  let batch =
    Arg.(
      value
      & opt int Serve.Server.default_batch
      & info [ "batch" ] ~docv:"N" ~doc:"In-process engine flush threshold.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N" ~doc:"Cap the in-process parallel runner at N domains.")
  in
  let payload_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "payload-dir" ] ~docv:"DIR"
          ~doc:
            "Write every completed run/sweep payload as canonical pretty JSON to DIR/<request-id>.json — what CI compares byte-for-byte against one-shot CLI output.")
  in
  let action mix socket shutdown clients json_file repeat queue batch domains
      payload_dir =
    match Serve.Bench_serve.load_mix mix with
    | Error msg -> `Error (false, "bench-serve: " ^ msg)
    | Ok lines -> (
        let result =
          match socket with
          | Some sock ->
              Serve.Bench_serve.replay_socket ?payload_dir ~repeat ~shutdown
                ~clients ~socket:sock lines
          | None ->
              if shutdown then Error "--shutdown requires --socket"
              else if clients <> 1 then Error "--clients requires --socket"
              else
                Serve.Bench_serve.replay_in_process ?payload_dir ~repeat
                  ~capacity:queue ~batch ?domains lines
        in
        match result with
        | Error msg -> `Error (false, "bench-serve: " ^ msg)
        | Ok report -> (
            (* --json - owns stdout: keep the human report off it *)
            let report_fmt =
              if json_file = Some "-" then Format.err_formatter
              else Format.std_formatter
            in
            Serve.Bench_serve.print report_fmt report;
            Format.pp_print_flush report_fmt ();
            write_json ~what:"--json" json_file
              (Serve.Bench_serve.to_json report) (fun () -> `Ok ())))
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Replay a recorded request mix against the serve engine (in-process, or over --socket against a live server), strictly validating every reply envelope, and report client-side throughput next to the server's p50/p99 latency.")
    Term.(
      ret
        (const action $ mix $ socket $ shutdown $ clients $ json_file $ repeat
       $ queue $ batch $ domains $ payload_dir))

(* ------------------------------------------------------------------ ids *)

let ne_cmd =
  let input =
    Arg.(value & opt string "-" & info [ "input" ] ~docv:"FILE" ~doc:"Input file, or - for stdin.")
  in
  let action input =
    with_input ~what:"ne" input @@ fun w ->
    let d = Oqsc.Nondet_ne.decide w in
    Printf.printf "L_NE verdict: %s\n"
      (if d.Oqsc.Nondet_ne.member then "member (x <> y)" else "not a member");
    (match d.Oqsc.Nondet_ne.witness with
    | Some g -> Printf.printf "witness index: %d\n" g
    | None -> ());
    Printf.printf "branch space: %d bits; ground truth: %b\n"
      d.Oqsc.Nondet_ne.branch_space_bits
      (Oqsc.Nondet_ne.member_reference w)
  in
  Cmd.v
    (Cmd.info "ne" ~doc:"Decide the L_NE = { x#y : x <> y } extension language nondeterministically.")
    Term.(ret (const action $ input))

let ids_cmd =
  let action () =
    List.iter
      (fun id -> Printf.printf "%-4s %s\n" id (Experiments.Registry.description id))
      Experiments.Registry.ids
  in
  Cmd.v (Cmd.info "ids" ~doc:"List experiment ids.") Term.(const action $ const ())

let main =
  let doc = "quantum vs classical online space complexity (Le Gall, SPAA 2006) — reproduction" in
  Cmd.group (Cmd.info "oqsc" ~version:"1.0.0" ~doc)
    [ gen_cmd; run_cmd; run_all_cmd; space_audit_cmd; merge_cmd; trace_lint_cmd; log_lint_cmd; ne_cmd; serve_cmd; bench_serve_cmd; ids_cmd ]

let () = exit (Cmd.eval main)
