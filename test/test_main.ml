let () =
  Alcotest.run "churnet"
    [
      ("prng", Test_prng.suite);
      ("dist", Test_dist.suite);
      ("stats", Test_stats.suite);
      ("json", Test_json.suite);
      ("util-structures", Test_util_structures.suite);
      ("codec", Test_codec.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("lint", Test_lint.suite);
      ("graph", Test_graph.suite);
      ("churn", Test_churn.suite);
      ("models", Test_models.suite);
      ("arena", Test_arena.suite);
      ("flood", Test_flood.suite);
      ("core-analysis", Test_core_analysis.suite);
      ("expansion", Test_expansion.suite);
      ("p2p", Test_p2p.suite);
      ("extensions", Test_extensions.suite);
      ("bounds", Test_bounds.suite);
      ("event-log", Test_event_log.suite);
      ("api-surface", Test_api_surface.suite);
      ("experiments", Test_experiments.suite);
      ("sweep", Test_sweep.suite);
      ("differential", Test_differential.suite);
      ("byte-equality", Test_byte_equality.suite);
    ]
