let () =
  Alcotest.run "tpm"
    [
      ("process", Test_process.suite);
      ("execution", Test_execution.suite);
      ("flex", Test_flex.suite);
      ("schedule", Test_schedule.suite);
      ("criteria", Test_criteria.suite);
      ("substrate", Test_substrate.suite);
      ("scheduler", Test_scheduler.suite);
      ("properties", Test_properties.suite);
      ("engine", Test_engine.suite);
      ("recovery", Test_recovery.suite);
      ("wal-corruption", Test_wal_corruption.suite);
      ("explore", Test_explore.suite);
      ("twopc-coord", Test_twopc_coord.suite);
      ("enforce", Test_enforce.suite);
      ("workloads", Test_workloads.suite);
      ("builder", Test_builder.suite);
      ("sim", Test_sim.suite);
      ("obs", Test_obs.suite);
      ("sot", Test_sot.suite);
      ("lang", Test_lang.suite);
      ("composite", Test_composite.suite);
      ("server", Test_server.suite);
      ("shard", Test_shard.suite);
      ("pager", Test_pager.suite);
      ("fingerprint", Test_fingerprint.suite);
      ("retire", Test_retire.suite);
      ("baseline", Test_baseline.suite);
      ("wakeup", Test_wakeup.suite);
      ("oracle", Test_oracle.suite);
    ]
