(* Aggregated test entry point: one Alcotest section per library. *)

let () =
  Alcotest.run "oqsc"
    [
      ("mathx", Test_mathx.suite);
      ("obs", Test_obs.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("quantum", Test_quantum.suite);
      ("density", Test_density.suite);
      ("circuit", Test_circuit.suite);
      ("optimize", Test_optimize.suite);
      ("grover", Test_grover.suite);
      ("machine", Test_machine.suite);
      ("program", Test_program.suite);
      ("lang", Test_lang.suite);
      ("comm", Test_comm.suite);
      ("oqsc-core", Test_oqsc.suite);
      ("nondet", Test_nondet.suite);
      ("qfa", Test_qfa.suite);
      ("experiments", Test_experiments.suite);
      ("table+registry", Test_table.suite);
      ("parallel", Test_parallel.suite);
      ("json", Test_json.suite);
      ("runner", Test_runner.suite);
      ("tune", Test_tune.suite);
      ("merge", Test_merge.suite);
      ("integration", Test_integration.suite);
      ("serve", Test_serve.suite);
      ("edges", Test_edges.suite);
    ]
