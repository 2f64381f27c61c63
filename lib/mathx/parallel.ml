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
