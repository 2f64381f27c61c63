(* Scheduling never moves results: the gated JSON document of a cheap
   registry selection keeps every byte whatever the domain count. *)

module Json = Experiments.Json

(* Two experiments so the runner really has items to spread over
   domains; e3 builds quantum registers, so on more than one domain
   its kernels may run on a worker domain. *)
let gated_bytes ?domains () =
  let results =
    Experiments.Registry.results ~quick:true ~seed:2006 ?domains
      ~only:[ "e2"; "e3" ] ()
  in
  Json.to_string (Json.of_results ~seed:2006 ~quick:true results)

let test_domain_byte_invariance () =
  let baseline = gated_bytes ~domains:1 () in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "gated bytes unchanged with --domains %d" domains)
        baseline
        (gated_bytes ~domains ()))
    [ 1; 2; 3 ]

let suite =
  [
    ("gated bytes invariant under extreme thresholds", `Quick,
     test_domain_byte_invariance);
  ]
