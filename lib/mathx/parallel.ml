let recommended_domains () =
  let cores = Domain.recommended_domain_count () in
  max 1 (min 8 (cores - 1))

(* Runs [run 0 .. run (chunks-1)] either inline (in order) or
   work-stealing one chunk at a time across domains; [run] must not
   touch the ambient Obs sink (spawned domains cannot see it) and chunk
   work must be independent. *)
let steal ~domains ~chunks run =
  if domains <= 1 || chunks <= 1 then
    for i = 0 to chunks - 1 do
      run i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < chunks then begin
          run i;
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      List.init
        (min domains chunks - 1)
        (fun _ ->
          Domain.spawn (fun () ->
              Obs.Trace.with_span "parallel.worker" worker))
    in
    worker ();
    List.iter Domain.join spawned
  end

let map_chunks ?domains ~chunks f ~rng =
  if chunks < 0 then invalid_arg "Parallel.map_chunks: negative chunk count";
  let domains = match domains with Some d -> max 1 d | None -> recommended_domains () in
  (* Split the PRNG sequentially so results don't depend on [domains]. *)
  let rngs = Array.init chunks (fun _ -> Rng.split rng) in
  (* The ambient Obs sink (if any) lives on the calling domain; spawned
     domains cannot see it.  Bridge: give every chunk its own sink,
     installed around the chunk's work wherever it runs, and fold them
     back into the caller's sink afterwards.  Chunk work is fixed up
     front and Obs.merge is commutative, so the totals are as
     deterministic as the results themselves. *)
  let parent_sink = Obs.Scope.current () in
  let chunk_sinks =
    match parent_sink with
    | None -> [||]
    | Some _ -> Array.init chunks (fun _ -> Obs.create ())
  in
  let call i =
    (* The span lands on whichever domain actually runs the chunk, so a
       trace shows the work-stealing schedule as it happened. *)
    Obs.Trace.with_span
      ~args:[ ("chunk", Obs.Trace.Int i) ]
      "parallel.map_chunk"
      (fun () ->
        match parent_sink with
        | None -> f ~chunk:i ~rng:rngs.(i)
        | Some _ ->
            Obs.Scope.with_sink chunk_sinks.(i) (fun () ->
                f ~chunk:i ~rng:rngs.(i)))
  in
  let results = Array.make chunks None in
  steal ~domains ~chunks (fun i -> results.(i) <- Some (call i));
  (match parent_sink with
  | None -> ()
  | Some sink -> Array.iter (fun c -> Obs.merge ~into:sink c) chunk_sinks);
  Array.to_list
    (Array.map
       (function Some v -> v | None -> failwith "Parallel.map_chunks: missing result")
       results)

(* ------------------------------------------------------- range kernels *)

(* Deterministic chunking: the chunk boundaries are a pure function of
   the range length (never of the domain count), so any chunk-local
   computation combined in chunk order yields the same bits whether the
   chunks run inline or across domains.  Two grains:

   - [map_grain] for write-disjoint element maps, where any split is
     bit-identical anyway, so we can afford fine chunks;
   - [sum_grain] for reductions, where the split changes the
     floating-point association; it is kept large enough that every
     register the stock experiments sweep (well under 2^14 amplitudes)
     reduces in a single chunk, i.e. in plain left-to-right order.
     Both are fixed constants: no env variable or API touches them, so
     reduced floats stay a pure function of the range length forever. *)
let map_grain = 2048
let sum_grain = 16384
let max_chunks = 64

let chunk_count ~grain n =
  if n <= grain then 1 else min max_chunks ((n + grain - 1) / grain)

let chunk_bounds n chunks i = (i * n / chunks, (i + 1) * n / chunks)

(* [steal] with a [parallel.range_chunk] span per chunk, but only when
   a trace session is live: the wrapping closure costs an allocation,
   which the untraced hot path should not pay. *)
let dispatch_chunks ~domains ~chunks run =
  let run =
    if Obs.Trace.enabled () then fun i ->
      Obs.Trace.with_span
        ~args:[ ("chunk", Obs.Trace.Int i) ]
        "parallel.range_chunk"
        (fun () -> run i)
    else run
  in
  steal ~domains ~chunks run

let iter_range n f =
  if n < 0 then invalid_arg "Parallel.iter_range: negative length";
  if n > 0 then begin
    let chunks = chunk_count ~grain:map_grain n in
    dispatch_chunks ~domains:(recommended_domains ()) ~chunks (fun i ->
        let lo, hi = chunk_bounds n chunks i in
        f lo hi)
  end

let sum_range ?domains n f =
  if n < 0 then invalid_arg "Parallel.sum_range: negative length";
  if n = 0 then 0.0
  else begin
    let domains =
      match domains with Some d -> max 1 d | None -> recommended_domains ()
    in
    let chunks = chunk_count ~grain:sum_grain n in
    if chunks = 1 then f 0 n
    else begin
      let partials = Array.make chunks 0.0 in
      dispatch_chunks ~domains ~chunks (fun i ->
          let lo, hi = chunk_bounds n chunks i in
          partials.(i) <- f lo hi);
      (* Combine in chunk order: the total is a pure function of [n]
         and [f], independent of [domains]. *)
      Array.fold_left ( +. ) 0.0 partials
    end
  end

let count_successes ?domains ~trials f ~rng =
  if trials < 0 then invalid_arg "Parallel.count_successes: negative trials";
  let hits =
    map_chunks ?domains ~chunks:trials (fun ~chunk:_ ~rng -> f rng) ~rng
  in
  List.length (List.filter Fun.id hits)
