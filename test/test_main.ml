(* Stardust test suite entry point: one alcotest section per library. *)

let () =
  Alcotest.run "stardust"
    [
      ("tensor", Test_tensor.suite);
      ("pack", Test_pack.suite);
      ("stats_cache", Test_stats_cache.suite);
      ("ir", Test_ir.suite);
      ("schedule", Test_schedule.suite);
      ("lower", Test_lower.suite);
      ("spatial", Test_spatial.suite);
      ("backends", Test_backends.suite);
      ("vonneumann", Test_vonneumann.suite);
      ("capstan", Test_capstan.suite);
      ("workloads", Test_workloads.suite);
      ("edge", Test_edge.suite);
      ("properties", Test_properties.suite);
      ("explore", Test_explore.suite);
      ("diag", Test_diag.suite);
      ("oracle", Test_oracle.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("ingest", Test_ingest.suite);
    ]
