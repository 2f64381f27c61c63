(* Property tests for Mathx.Parallel: the seed-determinism contract
   (results independent of the domain count), agreement with sequential
   folds, and the documented edge cases. *)

open Mathx

let qtest = QCheck_alcotest.to_alcotest

let prop_domain_count_invariant =
  QCheck.Test.make ~name:"map_chunks: domains:1 = domains:4 on the same seed"
    ~count:50
    QCheck.(pair small_nat (int_bound 40))
    (fun (seed, chunks) ->
      let run domains =
        Parallel.map_chunks ~domains ~chunks
          (fun ~chunk ~rng -> (chunk, Rng.int rng 1_000_000, Rng.float rng))
          ~rng:(Rng.create seed)
      in
      run 1 = run 4)

let prop_chunk_order =
  QCheck.Test.make ~name:"map_chunks: results arrive in chunk order" ~count:30
    QCheck.(int_bound 60)
    (fun chunks ->
      Parallel.map_chunks ~chunks (fun ~chunk ~rng:_ -> chunk)
        ~rng:(Rng.create 1)
      = List.init chunks Fun.id)

let prop_matches_sequential_fold =
  QCheck.Test.make
    ~name:"map_chunks = sequential fold over in-order splits" ~count:50
    QCheck.(pair small_nat (int_bound 60))
    (fun (seed, chunks) ->
      let f rng = Rng.int rng 10 < 3 in
      let parallel =
        Parallel.map_chunks ~domains:4 ~chunks
          (fun ~chunk:_ ~rng -> f rng)
          ~rng:(Rng.create seed)
      in
      let sequential =
        let rng = Rng.create seed in
        List.init chunks (fun _ -> f (Rng.split rng))
      in
      parallel = sequential)

let check_int = Alcotest.(check int)

let test_zero_chunks () =
  Alcotest.(check (list int)) "chunks:0 is []" []
    (Parallel.map_chunks ~chunks:0 (fun ~chunk ~rng:_ -> chunk)
       ~rng:(Rng.create 7));
  (* ...and consumes no randomness: the caller's stream is untouched. *)
  let a = Rng.create 7 and b = Rng.create 7 in
  ignore (Parallel.map_chunks ~chunks:0 (fun ~chunk ~rng:_ -> chunk) ~rng:a);
  check_int "rng untouched" (Rng.int b 1000) (Rng.int a 1000)

let test_zero_domains () =
  let run domains =
    Parallel.map_chunks ~domains ~chunks:9
      (fun ~chunk ~rng -> (chunk, Rng.int rng 100))
      ~rng:(Rng.create 3)
  in
  Alcotest.(check bool) "domains:0 behaves like domains:1" true (run 0 = run 1)

let test_negative_chunks () =
  Alcotest.check_raises "negative chunks rejected"
    (Invalid_argument "Parallel.map_chunks: negative chunk count") (fun () ->
      ignore
        (Parallel.map_chunks ~chunks:(-1) (fun ~chunk ~rng:_ -> chunk)
           ~rng:(Rng.create 1)))

let suite =
  [
    qtest prop_domain_count_invariant;
    qtest prop_chunk_order;
    qtest prop_matches_sequential_fold;
    ("chunks:0", `Quick, test_zero_chunks);
    ("domains:0", `Quick, test_zero_domains);
    ("negative chunks", `Quick, test_negative_chunks);
  ]
