open Mathx

(* Each catalogue entry builds a structured [Report.body]; identity,
   seed, and wall-clock telemetry are attached here.  Text output is
   [Report.render] over the same record the JSON emitter consumes. *)
let catalogue :
    (string * string * (quick:bool -> seed:int -> Report.body)) list =
  [
    ( "e1",
      "BCW quantum protocol cost for DISJ (Thm 3.1)",
      fun ~quick ~seed -> E1_bcw_cost.body ~quick ~seed () );
    ( "e2",
      "exact communication lower-bound certificates (Thm 3.2)",
      fun ~quick ~seed:_ -> E2_exact_cc.body ~quick () );
    ( "e3",
      "quantum online recognizer on L_DISJ (Thm 3.4)",
      fun ~quick ~seed -> E3_recognizer.body ~quick ~seed () );
    ( "e4",
      "amplification to OQBPL (Cor 3.5)",
      fun ~quick ~seed -> E4_amplification.body ~quick ~seed () );
    ( "e5",
      "configuration census at cuts (Thm 3.6 mechanics)",
      fun ~quick ~seed:_ -> E5_census.body ~quick () );
    ( "e6",
      "classical sketches against the n^(1/3) wall (Thm 3.6 consequence)",
      fun ~quick ~seed -> E6_sketch_wall.body ~quick ~seed () );
    ( "e7",
      "classical block algorithm space (Prop 3.7)",
      fun ~quick ~seed -> E7_block_space.body ~quick ~seed () );
    ( "e8",
      "quantum vs classical online space (the separation)",
      fun ~quick ~seed -> E8_separation.body ~quick ~seed () );
    ( "e9",
      "A3 rejection probability vs BBHT closed form (§3.2)",
      fun ~quick ~seed -> E9_bbht.body ~quick ~seed () );
    ( "e10",
      "A2 fingerprint error bound (§3.2)",
      fun ~quick ~seed -> E10_fingerprint.body ~quick ~seed () );
    ( "e11",
      "lowering A3's circuit to {H,T,CNOT} (Def 2.3)",
      fun ~quick ~seed -> E11_lowering.body ~quick ~seed () );
    ( "e12",
      "QFA vs DFA succinctness (footnote 2 extension)",
      fun ~quick ~seed -> E12_qfa.body ~quick ~seed () );
    ( "e13",
      "nondeterministic online space separation for L_NE (§1 extension)",
      fun ~quick ~seed -> E13_nondet.body ~quick ~seed () );
    ( "e14",
      "depolarizing noise vs the Theorem 3.4 guarantees (extension)",
      fun ~quick ~seed -> E14_noise.body ~quick ~seed () );
    ( "e15",
      "compiled Turing machines: the paper's primitives as real OPTMs (extension)",
      fun ~quick ~seed -> E15_compiled.body ~quick ~seed () );
  ]

let ids = List.map (fun (id, _, _) -> id) catalogue

let find id =
  match List.find_opt (fun (id', _, _) -> String.equal id id') catalogue with
  | Some entry -> entry
  | None -> raise Not_found

let description id =
  let _, d, _ = find id in
  d

(* The CLI's front line for --only/--shard selections: unlike [find]'s
   bare [Not_found], the message names every offending id and lists the
   valid ones, so a typo in a CI matrix fails with its fix attached. *)
let validate_only wanted =
  match List.filter (fun id -> not (List.mem id ids)) wanted with
  | [] -> Ok ()
  | unknown ->
      Error
        (Printf.sprintf "unknown experiment id%s %s; valid ids: %s"
           (if List.length unknown > 1 then "s" else "")
           (String.concat ", " unknown)
           (String.concat ", " ids))

(* Run one experiment to its structured result.  Results depend only on
   (id, quick, seed) — every experiment derives all randomness from its
   own [Rng.create seed] — so parallel and sequential execution agree
   bit for bit; [wall_ms] is telemetry, not part of that contract.

   A fresh [Obs] sink is installed around the body computation, so the
   [resources] snapshot covers exactly one experiment and inherits the
   same determinism (the sink observes; it never feeds back).  Nested
   [Parallel.map_chunks] inside an experiment merges per-chunk sinks in
   chunk order, keeping the snapshot domain-count independent.

   The body also runs inside an [Obs.Scope.with_span] named
   [experiment.<id>], which feeds both layers at once: the gated
   [span.experiment.<id>] counter in [resources] (deterministic, like
   any other span counter) and — when an [Obs.Trace] session is live —
   a timed slice on whichever domain ran the experiment.  GC telemetry
   is trace-only: when tracing, the [Gc.quick_stat] deltas of the body
   ride out as a [gc.experiment] instant plus cumulative [gc] counter
   samples, and never touch the sink. *)
let result ?(quick = false) ?(seed = 2006) id : Report.t =
  let _, description, build = find id in
  let sink = Obs.create () in
  let t0 = Unix.gettimeofday () in
  let gc0 = if Obs.Trace.enabled () then Some (Gc.quick_stat ()) else None in
  let body =
    Obs.Scope.with_sink sink (fun () ->
        Obs.Scope.with_span ("experiment." ^ id) (fun () -> build ~quick ~seed))
  in
  (match gc0 with
  | None -> ()
  | Some g0 ->
      let g1 = Gc.quick_stat () in
      Obs.Trace.instant "gc.experiment"
        ~args:
          [
            ("id", Obs.Trace.Str id);
            ( "minor_collections",
              Obs.Trace.Int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
            ( "major_collections",
              Obs.Trace.Int (g1.Gc.major_collections - g0.Gc.major_collections) );
            ( "promoted_words",
              Obs.Trace.Float (g1.Gc.promoted_words -. g0.Gc.promoted_words) );
          ];
      Obs.Trace.counter "gc"
        [
          ("minor_collections", float_of_int g1.Gc.minor_collections);
          ("major_collections", float_of_int g1.Gc.major_collections);
          ("promoted_words", g1.Gc.promoted_words);
        ]);
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  { Report.id; description; seed; quick; wall_ms; resources = Obs.snapshot sink; body }

(* Run a selection of experiments (default: all, in catalogue order)
   across domains.  [only] filters by id, preserving catalogue order;
   an unknown id raises [Not_found] before any work starts.
   [domains] defaults to [Parallel.recommended_domains]. *)
let results ?(quick = false) ?(seed = 2006) ?domains ?only () : Report.t list =
  let selected =
    match only with
    | None -> ids
    | Some wanted ->
        List.iter (fun id -> ignore (find id)) wanted;
        List.filter (fun id -> List.mem id wanted) ids
  in
  let arr = Array.of_list selected in
  Parallel.map_chunks ?domains ~chunks:(Array.length arr)
    (fun ~chunk ~rng:_ -> result ~quick ~seed arr.(chunk))
    ~rng:(Rng.create seed)

(* The single-id JSON entry point: the oqsc-experiments document for
   exactly one experiment, byte-identical to what
   `run-all --only <id> --json -` emits for the same (quick, seed) —
   both are [Json.of_results] over the same [result].  This is the
   payload contract the serve wire protocol (docs/PROTOCOL.md) and its
   CI byte-comparison rest on. *)
let document ?(quick = false) ?(seed = 2006) id : Json.t =
  Json.of_results ~seed ~quick [ result ~quick ~seed id ]
