(* Scheduling knobs never move results: the gated JSON document of a
   cheap registry selection keeps every byte under extreme settings of
   the register-kernel parallel threshold and the domain count. *)

module Json = Experiments.Json
module S = Quantum.State

(* Two experiments so the runner really has items to spread over
   domains; e3 builds quantum registers, so the kernels are exercised. *)
let gated_bytes ?domains () =
  let results =
    Experiments.Registry.results ~quick:true ~seed:2006 ?domains
      ~only:[ "e2"; "e3" ] ()
  in
  Json.to_string (Json.of_results ~seed:2006 ~quick:true results)

let with_threshold threshold f =
  let saved = S.parallel_threshold () in
  S.set_parallel_threshold threshold;
  Fun.protect ~finally:(fun () -> S.set_parallel_threshold saved) f

let test_threshold_byte_invariance () =
  let baseline = gated_bytes ~domains:1 () in
  List.iter
    (fun (label, threshold, domains) ->
      let bytes = with_threshold threshold (gated_bytes ~domains) in
      Alcotest.(check string)
        ("gated bytes unchanged under " ^ label)
        baseline bytes)
    [
      ("threshold 0 / domains 2 (chunked kernels everywhere)", 0, 2);
      ("threshold 1 / domains 3", 1, 3);
      ("huge threshold / domains 2", 1 lsl 30, 2);
    ]

let suite =
  [
    ("gated bytes invariant under extreme thresholds", `Quick,
     test_threshold_byte_invariance);
  ]
