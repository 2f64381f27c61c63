(* The four workloads of the end-to-end benchmark, their output checks,
   and the per-symbol layer probe of the traced pass.

   A workload is prepared (its set-up, timed as part of setup_s) into a
   unit of work; running the unit returns a check to run once the clock
   has stopped, so verification never counts against wall_s.  (serve
   checks each reply as it arrives, but with its clock stopped; see
   there.)  Every workload calls the same public entry points the CLI
   commands call. *)

open Mathx
open Bench_e2e
module Json = Experiments.Json
module Registry = Experiments.Registry
module Space_audit = Experiments.Space_audit
module Protocol = Serve.Protocol

type size = Full | Smoke

let size_name = function Full -> "full" | Smoke -> "smoke"

type outcome = {
  attempted : int;  (** operations whose output was checked *)
  failures : string list;  (** one message per operation that failed *)
  symbols : int;  (** input symbols fed to all machines *)
  latencies_ns : int list;  (** per-request latencies (serve) *)
  paused_ns : int;
      (** time the unit stopped its clock to check outputs (serve); not
          part of wall_s *)
  layers : (string * string * float) list;
      (** traced pass only: workload-specific layer metrics
          (name, unit, value) *)
}

let outcome ?(symbols = 0) ?(latencies_ns = []) ?(paused_ns = 0)
    ?(layers = []) ~attempted failures =
  { attempted; failures; symbols; latencies_ns; paused_ns; layers }

type t = {
  name : string;
  prepare : size -> seed:int -> Span.t -> unit -> unit -> outcome;
      (** set-up, then the unit of work, then its check *)
}

let seconds_of ns = float_of_int ns /. 1e9
let duration (s : Span.span) = s.Span.stop_ns - s.Span.start_ns
let md5 s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------- expected digests *)

(* expected.json, compiled in: MD5 digests of the gated bytes, keyed
   "<workload>/<seed>".  Seeds without an entry fall back to checking
   the paper's claims. *)
let expected =
  lazy
    (match Json.parse Expected_data.text with
    | Ok (Json.Obj fields) -> (
        match List.assoc_opt "digests" fields with
        | Some (Json.Obj d) -> d
        | _ -> failwith "expected.json: no digests object")
    | Ok _ | Error _ -> failwith "expected.json: not a JSON object")

let expected_for workload seed =
  List.assoc_opt (Printf.sprintf "%s/%d" workload seed) (Lazy.force expected)

let digest_check ~what ~expected bytes =
  let got = md5 bytes in
  if String.equal got expected then None
  else Some (Printf.sprintf "%s: digest %s, expected %s" what got expected)

(* ------------------------------------------------------- reproduce *)

let experiment_check ~seed ~quick id bytes =
  match Json.parse bytes with
  | Error msg -> Some (Printf.sprintf "%s: document does not parse: %s" id msg)
  | Ok doc when not (String.equal (Json.to_string doc) bytes) ->
      Some (id ^ ": document does not re-serialize to the same bytes")
  | Ok (Json.Obj f) -> (
      let get k = List.assoc_opt k f in
      match (get "seed", get "quick", get "experiments") with
      | Some (Json.Int s), Some (Json.Bool q), Some (Json.List [ Json.Obj e ])
        when s = seed && q = quick
             && List.assoc_opt "id" e = Some (Json.Str id) ->
          None
      | _ -> Some (id ^ ": envelope does not name its seed, mode and id"))
  | Ok _ -> Some (id ^ ": document is not an object")

(* run-all --quick, every registered experiment: a full-size run-all
   takes 73-80 s on a 2-core VM, too long to repeat within one run
   (README.md, Workloads). *)
let reproduce =
  let prepare _ ~seed sp =
    let quick = true in
    fun () ->
      let path =
        Filename.temp_file ~temp_dir:(Sys.getcwd ()) "oqsc-bench-" ".json"
      in
      let results, registry_spans =
        if Span.enabled sp then
          List.split
            (List.map
               (fun id ->
                 Span.measure sp ("experiments.registry." ^ id) (fun () ->
                     Registry.result ~quick ~seed id))
               Registry.ids)
        else (Registry.results ~quick ~seed (), [])
      in
      let text, json_span =
        Span.measure sp "experiments.json" (fun () ->
            let text = Json.to_string (Json.of_results ~seed ~quick results) in
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc text);
            text)
      in
      fun () ->
        let written = In_channel.with_open_text path In_channel.input_all in
        Sys.remove path;
        let expected =
          match expected_for "reproduce" seed with
          | Some (Json.Obj d) -> Some d
          | _ -> None
        in
        let check (r : Experiments.Report.t) =
          let id = r.Experiments.Report.id in
          let bytes = Json.to_string (Json.of_results ~seed ~quick [ r ]) in
          match expected with
          | None -> experiment_check ~seed ~quick id bytes
          | Some d -> (
              match List.assoc_opt id d with
              | Some (Json.Str e) -> digest_check ~what:id ~expected:e bytes
              | _ -> Some (id ^ ": no expected digest recorded"))
        in
        let failures =
          List.filter_map check results
          @
          if String.equal written text then []
          else [ "the written run-all document differs" ]
        in
        let layers =
          if registry_spans = [] then []
          else
            let secs =
              List.map (fun s -> seconds_of (duration s)) registry_spans
            in
            List.map2
              (fun id s -> ("experiments.registry." ^ id ^ ".s", "s", s))
              Registry.ids secs
            @ [
                ( "experiments.registry.sum_s",
                  "s",
                  List.fold_left ( +. ) 0.0 secs );
                ( "experiments.registry.max_s",
                  "s",
                  List.fold_left max 0.0 secs );
                ( "experiments.json.emit_s",
                  "s",
                  seconds_of (duration json_span) );
                ( "experiments.json.bytes",
                  "bytes",
                  float_of_int (String.length text) );
                ( "mathx.parallel.domains",
                  "count",
                  float_of_int (Parallel.recommended_domains ()) );
              ]
        in
        outcome ~attempted:(List.length results) ~layers failures
  in
  { name = "reproduce"; prepare }

(* ----------------------------------------------------------- audit *)

let audit_claims a =
  (if Space_audit.passed a then [] else [ "verdict is not passed" ])
  @ List.filter_map
      (fun (r : Space_audit.row) ->
        let k = r.Space_audit.k in
        if r.Space_audit.classical_storage_bits <> 1 lsl k then
          Some (Printf.sprintf "k=%d block store is not 2^k bits" k)
        else
          match r.Space_audit.quantum_qubits with
          | Some q when q <> (2 * k) + 2 ->
              Some (Printf.sprintf "k=%d recognizer uses %d qubits" k q)
          | _ -> None)
      a.Space_audit.rows

(* space-audit --quick, k = 1..5: the full sweep's k = 8 row alone
   takes 17-20 s, too long to repeat within one run (README.md,
   Workloads). *)
let audit =
  let prepare _ ~seed sp =
    let quick = true in
    fun () ->
      let a, row_spans =
        if Span.enabled sp then begin
          (* One shard per row, k = 1..5. *)
          let count = 5 in
          let rows, spans =
            List.split
              (List.init count (fun i ->
                   Span.measure sp
                     (Printf.sprintf "experiments.space_audit.k%d" (i + 1))
                     (fun () ->
                       Space_audit.rows ~quick ~shard:(i, count) ~seed ())))
          in
          ( Span.record sp "experiments.space_audit.fit" (fun () ->
                Space_audit.of_rows (List.concat rows)),
            spans )
        end
        else (Space_audit.audit ~quick ~seed (), [])
      in
      let text, json_span =
        Span.measure sp "experiments.json" (fun () ->
            Json.to_string (Space_audit.to_json ~seed ~quick a))
      in
      fun () ->
        let failures =
          match expected_for "audit" seed with
          | Some (Json.Str e) ->
              Option.to_list (digest_check ~what:"audit" ~expected:e text)
          | Some _ -> [ "audit: malformed expected digest" ]
          | None -> (
              match audit_claims a with
              | [] -> []
              | claims -> [ "audit: " ^ String.concat "; " claims ])
        in
        (* every row feeds the block machine, and the recognizer up to
           the simulation cap *)
        let symbols =
          List.fold_left
            (fun acc (r : Space_audit.row) ->
              let quantum = r.Space_audit.quantum_qubits <> None in
              acc + ((if quantum then 2 else 1) * r.Space_audit.n))
            0 a.Space_audit.rows
        in
        let layers =
          if row_spans = [] then []
          else
            List.mapi
              (fun i s ->
                ( Printf.sprintf "experiments.space_audit.k%d.s" (i + 1),
                  "s",
                  seconds_of (duration s) ))
              row_spans
            @ [
                ( "experiments.json.emit_s",
                  "s",
                  seconds_of (duration json_span) );
                ( "experiments.json.bytes",
                  "bytes",
                  float_of_int (String.length text) );
              ]
        in
        outcome ~attempted:1 ~symbols ~layers failures
  in
  { name = "audit"; prepare }

(* ---------------------------------------------------------- stream *)

(* Two members, one intersecting pair (t = 1) and one corrupted
   repetition. *)
let stream_instances sp ~k ~seed =
  let rng = Rng.create seed in
  let gen f = Span.record sp "lang.instance" f in
  let m1 = gen (fun () -> Lang.Instance.disjoint_pair rng ~k) in
  let m2 = gen (fun () -> Lang.Instance.disjoint_pair rng ~k) in
  let hit = gen (fun () -> Lang.Instance.intersecting_pair rng ~k ~t:1) in
  let bad = gen (fun () -> Lang.Instance.corrupt_repetition rng ~base:m2) in
  [ m1; m2; hit; bad ]

(* One verdict per machine run.  The machines run with their own
   default coins: the benchmark hands them inputs only, so the
   recognizer's Grover count j is the same on every seed. *)
let stream_checks ~k (inst : Lang.Instance.t) (q : Oqsc.Recognizer.run)
    (b : Oqsc.Classical_block.run) (nv : Oqsc.Naive.run) =
  let member = Lang.Instance.is_member inst in
  let fail ok machine =
    if ok then []
    else
      [
        Printf.sprintf "stream %s: %s"
          (if member then "member" else "non-member")
          machine;
      ]
  in
  fail
    (q.Oqsc.Recognizer.space.Oqsc.Recognizer.qubits = (2 * k) + 2
    && ((not member)
       || q.Oqsc.Recognizer.accept
          && q.Oqsc.Recognizer.accept_probability >= 1.0 -. 1e-9))
    "recognizer (2k+2 qubits, members accepted with probability 1)"
  @ fail
      (b.Oqsc.Classical_block.accept = member
      && b.Oqsc.Classical_block.storage_bits = 1 lsl k)
      "block machine (verdict = label, 2^k-bit store)"
  @ fail (nv.Oqsc.Naive.accept = member) "naive machine (verdict = label)"

(* k = 6: four k = 7 instances take 11-16 s, too long to repeat within
   one run (README.md, Workloads). *)
let stream =
  let prepare size ~seed sp =
    let k = match size with Full -> 6 | Smoke -> 3 in
    let instances = stream_instances sp ~k ~seed in
    fun () ->
      let runs =
        List.map
          (fun (inst : Lang.Instance.t) ->
            let input = inst.Lang.Instance.input in
            let count = String.length input in
            let run name f = Span.record sp ~count name (fun () -> f input) in
            let q = run "core.recognizer" (fun s -> Oqsc.Recognizer.run s) in
            let b = run "core.block" (fun s -> Oqsc.Classical_block.run s) in
            let nv = run "core.naive" (fun s -> Oqsc.Naive.run s) in
            (inst, q, b, nv))
          instances
      in
      fun () ->
        let failures =
          List.concat_map
            (fun (inst, q, b, nv) -> stream_checks ~k inst q b nv)
            runs
        in
        let symbols =
          List.fold_left
            (fun acc (i : Lang.Instance.t) ->
              acc + (3 * String.length i.Lang.Instance.input))
            0 instances
        in
        outcome ~attempted:(3 * List.length runs) ~symbols failures
  in
  { name = "stream"; prepare }

(* ----------------------------------------------------------- serve *)

type payload_key = Run_doc of string * int | Sweep_doc of int * int
type expect = Payload of payload_key | Code of Protocol.error_code | Pong
type request = { line : string; id : string option; expect : expect }

(* Exact composition per block of 50 lines, shuffled by the seed: 35
   run (70 %), 7 sweep (14 %), 6 ping (12 %), 2 malformed (4 %).  Fixed
   shares keep the cost of a script the same on every seed; experiment
   seeds come from a pool of 8 so payloads can be checked against
   one-shot documents after timing. *)
let serve_script ~lines ~seed =
  let rng = Rng.create seed in
  let pool = Array.init 8 (fun _ -> Rng.int rng 1_000_000) in
  let exps = [| "e2"; "e5"; "e12"; "e13" |] in
  let block =
    Array.concat
      [
        Array.make 35 `Run;
        Array.make 7 `Sweep;
        Array.make 6 `Ping;
        Array.make 2 `Bad;
      ]
  in
  let kinds =
    Array.init lines (fun i ->
        let j = i mod 50 in
        if j = 0 then
          for a = Array.length block - 1 downto 1 do
            let b = Rng.int rng (a + 1) in
            let tmp = block.(a) in
            block.(a) <- block.(b);
            block.(b) <- tmp
          done;
        block.(j))
  in
  let p = Printf.sprintf in
  Array.mapi
    (fun i kind ->
      let id = p "r%d" i in
      let req line expect = { line; id = Some id; expect } in
      let head = p {|{"v":1,"id":"%s"|} id in
      match kind with
      | `Run ->
          let exp = exps.(Rng.int rng 4) and s = pool.(Rng.int rng 8) in
          req
            (p {|%s,"op":"run","exp":"%s","quick":true,"seed":%d}|} head exp s)
            (Payload (Run_doc (exp, s)))
      | `Sweep ->
          let index = Rng.int rng 2 and s = pool.(Rng.int rng 8) in
          req
            (p {|%s,"op":"sweep","index":%d,"of":5,"quick":true,"seed":%d}|}
               head index s)
            (Payload (Sweep_doc (index, s)))
      | `Ping -> req (p {|%s,"op":"ping"}|} head) Pong
      | `Bad -> (
          match Rng.int rng 4 with
          | 0 ->
              req
                (p {|%s,"op":"run","exp":"e99","quick":true}|} head)
                (Code Protocol.Unknown_experiment)
          | 1 -> req (p {|%s,"op":"warp"}|} head) (Code Protocol.Unknown_op)
          | 2 ->
              req
                (p {|%s,"op":"sweep","index":5,"of":5,"quick":true}|} head)
                (Code Protocol.Bad_shard)
          | _ ->
              {
                line = p {|%s "op":"ping"}|} head;
                id = None;
                expect = Code Protocol.Parse_error;
              }))
    kinds

let one_shot = function
  | Run_doc (exp, seed) -> Registry.document ~quick:true ~seed exp
  | Sweep_doc (index, seed) ->
      let shard = (index, 5) in
      Space_audit.shard_to_json ~shard ~seed ~quick:true
        (Space_audit.rows ~quick:true ~shard ~seed ())

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Traced pass only: what the serve layers spent, from the spans and
   samples the unit recorded.  [submits] holds (submit span, replies
   returned, run/sweep replies returned); a submit that returned no
   reply only admitted, one that returned run/sweep replies flushed. *)
let serve_layers spans ~submits ~reply_bytes ~waits ~doc_ms =
  let mean_ns name =
    Array.to_list spans
    |> List.filter (fun (s : Span.span) -> String.equal s.Span.name name)
    |> List.map (fun s -> float_of_int (duration s))
    |> mean
  in
  let admits = List.filter (fun (_, replies, _) -> replies = 0) submits in
  let flushes = List.filter (fun (_, _, flushed) -> flushed > 0) submits in
  let mean_of f l = mean (List.map f l) in
  [
    ("serve.protocol.parse_ns", "ns", mean_ns "serve.protocol.parse");
    ("serve.protocol.encode_ns", "ns", mean_ns "serve.protocol.encode");
    ("serve.protocol.decode_ns", "ns", mean_ns "serve.protocol.decode");
    ("serve.protocol.reply_bytes", "bytes", mean reply_bytes);
    ( "serve.server.admit_us",
      "us",
      mean_of (fun (s, _, _) -> float_of_int (duration s) /. 1e3) admits );
    ( "serve.server.flush_ms",
      "ms",
      mean_of (fun (s, _, _) -> float_of_int (duration s) /. 1e6) flushes );
    ("serve.server.flushes", "count", float_of_int (List.length flushes));
    ( "serve.server.batch_mean",
      "requests",
      mean_of (fun (_, _, f) -> float_of_int f) flushes );
    ("serve.server.queue_wait_ms", "ms", mean waits);
    ("experiments.registry.document_ms", "ms", mean doc_ms);
  ]

(* One client in a closed loop against an in-process engine with the
   default capacity and batch: the next line is sent only after the
   previous submit returned.  A request's latency runs from just before
   the submit that admits it to the return of the call that hands back
   its reply.  8000 lines at full size: one 80 000-line replay takes
   about 10 s, too long to repeat within one run (README.md,
   Workloads).

   Each reply is checked (re-encoded, strictly decoded, its payload
   digested) as it arrives, with the client's clock stopped: the clock
   that stamps requests and replies skips the checking, and the unit
   reports the skipped time so wall_s leaves it out too.  Keeping every
   reply for a check after the loop would hold about 320 words per
   reply, some 20 MB at full size, which the GC would mark during the
   loop and peak_rss_mb would report. *)
let serve =
  let prepare size ~seed sp =
    let lines = match size with Full -> 8000 | Smoke -> 500 in
    let script = serve_script ~lines ~seed in
    let server = Serve.Server.create () in
    ignore
      (Serve.Server.submit_line server
         {|{"v":1,"id":"warmup","op":"run","exp":"e2","quick":true}|});
    ignore (Serve.Server.finish server);
    let by_id = Hashtbl.create lines in
    Array.iteri
      (fun i r -> Option.iter (fun id -> Hashtbl.replace by_id id i) r.id)
      script;
    let traced = Span.enabled sp in
    fun () ->
      let sent_ns = Array.make lines 0 and latency_ns = Array.make lines 0 in
      let replies = Array.make lines 0 in
      (* one verdict per line: its first failed check *)
      let bad = Array.make lines None and digests = Hashtbl.create 64 in
      let fail i msg =
        if bad.(i) = None then
          bad.(i) <- Some (Printf.sprintf "line %d: %s" i msg)
      in
      let submits = ref [] and reply_bytes = ref [] in
      let waits = ref [] and doc_ms = ref [] in
      let check i reply =
        replies.(i) <- replies.(i) + 1;
        let line =
          Span.record sp "serve.protocol.encode" (fun () ->
              Protocol.to_line (Protocol.reply_to_json reply))
        in
        let decoded =
          Span.record sp "serve.protocol.decode" (fun () ->
              Result.bind (Json.parse line) Protocol.reply_of_json)
        in
        if traced then
          reply_bytes := float_of_int (String.length line) :: !reply_bytes;
        match (decoded, script.(i).expect) with
        | Error msg, _ -> fail i ("reply does not strictly re-decode: " ^ msg)
        | Ok (Protocol.Ok_reply { payload; wall_ms; _ }), Payload key ->
            let d = md5 (Protocol.to_line payload) in
            (match Hashtbl.find_opt digests key with
            | None -> Hashtbl.replace digests key (d, i)
            | Some (d0, _) ->
                if not (String.equal d d0) then
                  fail i "payload differs between replies");
            if traced then begin
              let latency_ms = float_of_int latency_ns.(i) /. 1e6 in
              waits := (latency_ms -. wall_ms) :: !waits;
              match key with
              | Run_doc _ -> doc_ms := wall_ms :: !doc_ms
              | Sweep_doc _ -> ()
            end
        | Ok (Protocol.Ok_reply { op = "ping"; _ }), Pong -> ()
        | Ok (Protocol.Error_reply { code; _ }), Code c when code = c -> ()
        | Ok _, _ -> fail i "reply is not the expected kind"
      in
      let paused = ref 0 in
      let clock () = Span.now_ns () - !paused in
      let off_clock f =
        let t = Span.now_ns () in
        f ();
        paused := !paused + (Span.now_ns () - t)
      in
      let deliver ~current (out : Serve.Server.outcome) =
        let t1 = clock () in
        List.iter
          (fun reply ->
            Span.record sp "bench.client" (fun () ->
                let owner =
                  match reply with
                  | Protocol.Ok_reply { id; _ }
                  | Protocol.Error_reply { id = Some id; _ } ->
                      Hashtbl.find_opt by_id id
                  | Protocol.Error_reply { id = None; _ } -> Some current
                in
                match owner with
                | None -> fail current "reply names an id no request carries"
                | Some i ->
                    latency_ns.(i) <- t1 - sent_ns.(i);
                    off_clock (fun () -> check i reply)))
          out.Serve.Server.replies
      in
      Array.iteri
        (fun i r ->
          if traced then
            Span.record sp "serve.protocol.parse" (fun () ->
                ignore (Protocol.parse_line r.line));
          sent_ns.(i) <- clock ();
          let out, span =
            Span.measure sp "serve.server.submit" (fun () ->
                Serve.Server.submit_line server r.line)
          in
          (if traced then
             let replies = out.Serve.Server.replies in
             let flushed =
               List.length
                 (List.filter
                    (function
                      | Protocol.Ok_reply { op = "run" | "sweep"; _ } -> true
                      | _ -> false)
                    replies)
             in
             submits := (span, List.length replies, flushed) :: !submits);
          deliver ~current:i out)
        script;
      let tail =
        Span.record sp "serve.server.finish" (fun () ->
            Serve.Server.finish server)
      in
      deliver ~current:(lines - 1)
        { Serve.Server.replies = tail; stop = false };
      let paused_ns = !paused in
      fun () ->
        Array.iteri
          (fun i c ->
            if c <> 1 then fail i (Printf.sprintf "%d replies, not one" c))
          replies;
        Hashtbl.iter
          (fun key (d, i) ->
            if not (String.equal d (md5 (Protocol.to_line (one_shot key))))
            then fail i "payload differs from its one-shot document")
          digests;
        let layers =
          if not traced then []
          else
            serve_layers (Span.spans sp) ~submits:!submits
              ~reply_bytes:!reply_bytes ~waits:!waits ~doc_ms:!doc_ms
        in
        outcome ~attempted:lines ~layers ~paused_ns
          ~latencies_ns:(Array.to_list latency_ns)
          (List.filter_map Fun.id (Array.to_list bad))
  in
  { name = "serve"; prepare }

let all = [ reproduce; audit; stream; serve ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* ----------------------------------------------------- layer probe *)

(* Per-symbol layers cannot carry a span per symbol, so each gets one
   span around a loop over a whole instance, and its cost is a
   difference of loops: A1 = (A1 loop) - (bare stream loop), A2 =
   (A1 + A2 loop) - (A1 loop), A3 = Recognizer.run - (A1 + A2 loop).
   The A1 + A2 loop mirrors Recognizer.run_stream without A3. *)

let stream_loop input =
  Machine.Stream.iter ignore (Machine.Stream.of_string input)

let a1_loop input =
  let a1 = Oqsc.A1.create (Machine.Workspace.create ()) in
  Machine.Stream.iter
    (fun sym -> ignore (Sys.opaque_identity (Oqsc.A1.feed a1 sym)))
    (Machine.Stream.of_string input)

let a1a2_loop input =
  let ws = Machine.Workspace.create () in
  let rng = Rng.create 0xD15A in
  let a1 = Oqsc.A1.create ws in
  let a2 = ref None in
  Machine.Stream.iter
    (fun sym ->
      let role = Oqsc.A1.feed a1 sym in
      (match (role, Oqsc.A1.k a1) with
      | Oqsc.A1.Prefix_sep, Some k -> a2 := Some (Oqsc.A2.create ws rng ~k)
      | _ -> ());
      match !a2 with Some p -> Oqsc.A2.observe p role | None -> ())
    (Machine.Stream.of_string input)

let mulmod_loop p a b =
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc lxor Modarith.mulmod a.(i) b.(i) p
  done;
  ignore (Sys.opaque_identity !acc)

(* A whole k = 7 member and the first 2^22 symbols of a k = 8 member,
   where A2's fingerprint prime crosses 2^31; smoke size shrinks both. *)
let probe size ~seed sp =
  let k, k8, prefix, pairs =
    match size with
    | Full -> (7, 8, 1 lsl 22, 1 lsl 20)
    | Smoke -> (3, 4, 1 lsl 12, 1 lsl 10)
  in
  let member k =
    (Lang.Instance.disjoint_pair (Rng.create seed) ~k).Lang.Instance.input
  in
  let input, gen = Span.measure sp "lang.instance" (fun () -> member k) in
  let n = String.length input in
  let loops input =
    let count = String.length input in
    let run name f = snd (Span.measure sp ~count name (fun () -> f input)) in
    ( run "machine.stream" stream_loop,
      run "core.a1" a1_loop,
      run "core.a2" a1a2_loop )
  in
  let st, a1, a2 = loops input in
  let _, a1_k8, a2_k8 =
    let k8_member = Span.record sp "lang.instance" (fun () -> member k8) in
    loops (String.sub k8_member 0 prefix)
  in
  let mulmod k =
    let p = Primes.fingerprint_prime k and rng = Rng.create seed in
    let draw _ = Rng.int rng p in
    let a = Array.init pairs draw and b = Array.init pairs draw in
    snd
      (Span.measure sp ~count:pairs "mathx.modarith" (fun () ->
           mulmod_loop p a b))
  in
  let mm = mulmod k and mm8 = mulmod k8 in
  let machine name f =
    snd (Span.measure sp ~count:n name (fun () -> ignore (f input)))
  in
  let recog = machine "core.recognizer" (fun s -> Oqsc.Recognizer.run s) in
  let block = machine "core.block" (fun s -> Oqsc.Classical_block.run s) in
  let naive = machine "core.naive" (fun s -> Oqsc.Naive.run s) in
  let per_symbol (s : Span.span) =
    float_of_int (duration s) /. float_of_int s.Span.count
  in
  let words (s : Span.span) = s.Span.words /. float_of_int s.Span.count in
  let minus f a b = f a -. f b in
  [
    ("lang.instance.s", "s", seconds_of (duration gen));
    ("lang.instance.bytes", "bytes", float_of_int n);
    ("machine.stream.ns_per_symbol", "ns", per_symbol st);
    ("machine.stream.words_per_symbol", "words", words st);
    ("core.a1.ns_per_symbol", "ns", minus per_symbol a1 st);
    ("core.a1.words_per_symbol", "words", minus words a1 st);
    ("core.a2.ns_per_symbol", "ns", minus per_symbol a2 a1);
    ("core.a2.k8.ns_per_symbol", "ns", minus per_symbol a2_k8 a1_k8);
    ("mathx.modarith.mulmod_ns", "ns", per_symbol mm);
    ("mathx.modarith.k8.mulmod_ns", "ns", per_symbol mm8);
    ("core.a3.ns_per_symbol", "ns", minus per_symbol recog a2);
    ("core.a3.words_per_symbol", "words", minus words recog a2);
  ]
  @ List.concat_map
      (fun (name, s) ->
        [
          (name ^ ".ns_per_symbol", "ns", per_symbol s);
          (name ^ ".words_per_symbol", "words", words s);
        ])
      [
        ("core.block", block);
        ("core.naive", naive);
        ("core.recognizer", recog);
      ]
