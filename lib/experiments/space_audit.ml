open Mathx

type row = {
  k : int;
  n : int;
  classical_storage_bits : int;
  classical_total_bits : int;
  quantum_total_bits : int option;
  quantum_qubits : int option;
  wall_ms : float;
}

type fit = {
  classical_slope : float;
  classical_r2 : float;
  quantum_log_slope : float;
  quantum_log_r2 : float;
  quantum_power_slope : float;
  quantum_power_r2 : float;
}

type verdict = {
  classical_band : float * float;
  classical_ok : bool;
  quantum_ok : bool;
}

type audit = { rows : row list; fit : fit; verdict : verdict }

(* The gated quantity is the block store alone (exactly 2^k = (n/3)^{1/3}
   up to the header), so the fitted exponent converges on 1/3 quickly;
   total block space carries O(k) counter overhead that damps the
   small-k slope well below the band.  The band brackets 1/3 with room
   for the finite-size drift of the smallest k values. *)
let default_classical_band = (0.28, 0.40)

let quantum_cap quick = if quick then 4 else 6

(* Per-row wall-clock is measured unconditionally (two gettimeofday
   calls per k are noise) but serialized only on request: like the
   experiments document's wall_ms it is telemetry, never gated, and
   never feeds back into any measured quantity.

   [shard = (i, n)] restricts the sweep to the rows at positions
   [j mod n = i] of the k list.  The per-row PRNGs are sequential
   splits of one stream, so a skipped row must still burn exactly the
   splits it would have consumed — that keeps every measured row
   byte-identical to the same row of the full sweep, which is what
   lets [oqsc merge] reassemble an unsharded document. *)
let rows ?(quick = false) ?shard ~seed () =
  let rng = Rng.create seed in
  let ks = if quick then [ 1; 2; 3; 4; 5 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let keep position =
    match shard with None -> true | Some (i, n) -> position mod n = i
  in
  List.concat
    (List.mapi
       (fun position k ->
         if not (keep position) then begin
           ignore (Rng.split rng) (* the instance's stream *);
           if k <= quantum_cap quick then
             ignore (Rng.split rng) (* the recognizer's stream *);
           ignore (Rng.split rng) (* the block machine's stream *);
           []
         end
         else begin
           let t0 = Unix.gettimeofday () in
           let inst = Lang.Instance.disjoint_pair (Rng.split rng) ~k in
           let input = inst.Lang.Instance.input in
           let quantum =
             if k <= quantum_cap quick then
               Some (Oqsc.Recognizer.run ~rng:(Rng.split rng) input)
             else None
           in
           let b = Oqsc.Classical_block.run ~rng:(Rng.split rng) input in
           [
             {
               k;
               n = String.length input;
               classical_storage_bits = b.Oqsc.Classical_block.storage_bits;
               classical_total_bits = b.Oqsc.Classical_block.space_bits;
               quantum_total_bits =
                 Option.map
                   (fun (q : Oqsc.Recognizer.run) ->
                     q.Oqsc.Recognizer.space.Oqsc.Recognizer.classical_bits
                     + q.Oqsc.Recognizer.space.Oqsc.Recognizer.qubits)
                   quantum;
               quantum_qubits =
                 Option.map
                   (fun (q : Oqsc.Recognizer.run) ->
                     q.Oqsc.Recognizer.space.Oqsc.Recognizer.qubits)
                   quantum;
               wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
             };
           ]
         end)
       ks)

let fits rows =
  let classical_points =
    List.map
      (fun r -> (float_of_int r.n, float_of_int r.classical_storage_bits))
      rows
  in
  let quantum_points =
    List.filter_map
      (fun r -> Option.map (fun q -> (r.n, q)) r.quantum_total_bits)
      rows
  in
  let log2 x = log x /. log 2.0 in
  (* The same quantum data under two models: space = a * log2 n + b
     (Theorem 3.4) versus space = C * n^alpha (what a classical
     streaming bound would look like).  O(log n) growth means the
     logarithmic model should explain the data at least as well. *)
  let quantum_log_points =
    List.map
      (fun (n, q) -> (log2 (float_of_int n), float_of_int q))
      quantum_points
  in
  let quantum_power_points =
    List.map (fun (n, q) -> (float_of_int n, float_of_int q)) quantum_points
  in
  let classical_slope, _, classical_r2 = Cstats.loglog_fit_r2 classical_points in
  let quantum_log_slope, _, quantum_log_r2 =
    Cstats.linear_fit_r2 quantum_log_points
  in
  let quantum_power_slope, _, quantum_power_r2 =
    Cstats.loglog_fit_r2 quantum_power_points
  in
  {
    classical_slope;
    classical_r2;
    quantum_log_slope;
    quantum_log_r2;
    quantum_power_slope;
    quantum_power_r2;
  }

let judge ?(classical_band = default_classical_band) fit =
  let lo, hi = classical_band in
  {
    classical_band;
    classical_ok = fit.classical_slope >= lo && fit.classical_slope <= hi;
    quantum_ok = fit.quantum_log_r2 >= fit.quantum_power_r2;
  }

let of_rows ?classical_band rows =
  let fit = fits rows in
  { rows; fit; verdict = judge ?classical_band fit }

let audit ?quick ?classical_band ~seed () =
  of_rows ?classical_band (rows ?quick ~seed ())

let passed a = a.verdict.classical_ok && a.verdict.quantum_ok

let rows_table rows =
  Report.table
    ~title:"SPACE AUDIT  fitted scaling of the two machines on L_DISJ"
    ~header:
      [
        "k";
        "n";
        "block store bits";
        "block total bits";
        "quantum bits";
        "(qubits)";
      ]
    (List.map
       (fun r ->
         [
           Report.int r.k;
           Report.int r.n;
           Report.int r.classical_storage_bits;
           Report.int r.classical_total_bits;
           Report.opt Report.int r.quantum_total_bits;
           Report.opt Report.int r.quantum_qubits;
         ])
       rows)

(* A shard of the sweep has too few points to fit honestly, so its body
   is the measured rows alone; fit and verdict appear after the shards
   are recombined with [oqsc merge]. *)
let shard_body ~shard:(index, count) rows =
  {
    Report.tables = [ rows_table rows ];
    notes =
      [
        Printf.sprintf
          "shard %d/%d of the k sweep; fit and verdict are computed from the \
           merged document (oqsc merge)"
          index count;
      ];
    metrics = [];
  }

let body a =
  let lo, hi = a.verdict.classical_band in
  {
    Report.tables = [ rows_table a.rows ];
    notes =
      [
        Printf.sprintf
          "classical: block store ~ n^%.3f (r2 %.4f), band [%.2f, %.2f] -> %s"
          a.fit.classical_slope a.fit.classical_r2 lo hi
          (if a.verdict.classical_ok then "OK" else "FAIL");
        Printf.sprintf
          "quantum: %.2f * log2 n fit r2 %.4f vs power-law n^%.3f r2 %.4f -> %s"
          a.fit.quantum_log_slope a.fit.quantum_log_r2 a.fit.quantum_power_slope
          a.fit.quantum_power_r2
          (if a.verdict.quantum_ok then "OK (logarithmic wins)" else "FAIL");
      ];
    metrics =
      [
        ("classical_slope", a.fit.classical_slope);
        ("classical_r2", a.fit.classical_r2);
        ("quantum_log_slope", a.fit.quantum_log_slope);
        ("quantum_log_r2", a.fit.quantum_log_r2);
        ("quantum_power_slope", a.fit.quantum_power_slope);
        ("quantum_power_r2", a.fit.quantum_power_r2);
      ];
  }

let total_wall_ms a = List.fold_left (fun acc r -> acc +. r.wall_ms) 0.0 a.rows

let rows_json ~timing rows =
  let wall r = if timing then [ ("wall_ms", Json.Float r.wall_ms) ] else [] in
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           ([
              ("k", Json.Int r.k);
              ("n", Json.Int r.n);
              ("classical_storage_bits", Json.Int r.classical_storage_bits);
              ("classical_total_bits", Json.Int r.classical_total_bits);
              ( "quantum_total_bits",
                match r.quantum_total_bits with
                | Some q -> Json.Int q
                | None -> Json.Null );
              ( "quantum_qubits",
                match r.quantum_qubits with
                | Some q -> Json.Int q
                | None -> Json.Null );
            ]
           @ wall r))
       rows)

let envelope ~seed ~quick =
  [
    ("kind", Json.Str "oqsc-space-audit");
    ("version", Json.Int 1);
    ("seed", Json.Int seed);
    ("quick", Json.Bool quick);
  ]

let sum_wall_ms rows = List.fold_left (fun acc r -> acc +. r.wall_ms) 0.0 rows

(* A shard document: the envelope, its rows, and the shard provenance
   field — no fit or verdict, which only make sense on the full sweep
   (the merge recomputes them from the recombined rows). *)
let shard_to_json ?(timing = false) ~shard:(index, count) ~seed ~quick rows =
  Json.Obj
    (envelope ~seed ~quick
    @ [
        ("rows", rows_json ~timing rows);
        ( "shard",
          Json.Obj [ ("index", Json.Int index); ("of", Json.Int count) ] );
      ]
    @ if timing then [ ("wall_ms", Json.Float (sum_wall_ms rows)) ] else [])

let to_json ?(timing = false) ~seed ~quick a =
  let lo, hi = a.verdict.classical_band in
  Json.Obj
    (envelope ~seed ~quick
    @ [
      ("rows", rows_json ~timing a.rows);
      ( "fit",
        Json.Obj
          [
            ("classical_slope", Json.Float a.fit.classical_slope);
            ("classical_r2", Json.Float a.fit.classical_r2);
            ("quantum_log_slope", Json.Float a.fit.quantum_log_slope);
            ("quantum_log_r2", Json.Float a.fit.quantum_log_r2);
            ("quantum_power_slope", Json.Float a.fit.quantum_power_slope);
            ("quantum_power_r2", Json.Float a.fit.quantum_power_r2);
          ] );
      ( "verdict",
        Json.Obj
          [
            ("classical_band_lo", Json.Float lo);
            ("classical_band_hi", Json.Float hi);
            ("classical_ok", Json.Bool a.verdict.classical_ok);
            ("quantum_ok", Json.Bool a.verdict.quantum_ok);
            ("passed", Json.Bool (passed a));
          ] );
    ]
    @ if timing then [ ("wall_ms", Json.Float (total_wall_ms a)) ] else [])
