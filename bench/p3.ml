(* P3: weak vs strong order *)

open Harness

let run () =
  section "P3 — weak vs. strong inter-process order (Section 3.6, 5 seeds)";
  let rows =
    List.concat_map
      (fun (density, fail) ->
        let params =
          {
            Generator.default_params with
            conflict_density = density;
            services = 6;
            subsystems = 2;
          }
        in
        List.map
          (fun (name, config) ->
            let config = { config with Scheduler.stochastic_times = true } in
            let results =
              List.map (fun seed -> run_workload ~params ~config ~fail ~seed ()) seeds
            in
            [
              pct density;
              pct fail;
              name;
              f1 (avg (fun r -> r.makespan) results);
              f1 (avg (fun r -> float_of_int (Metrics.count r.m "weak_commit_waits")) results);
              f1 (avg (fun r -> float_of_int (Metrics.count r.m "local_restarts")) results);
            ])
          [
            ("strong", Scheduler.default_config);
            ("weak", { Scheduler.default_config with order = Scheduler.Weak });
          ])
      [ (0.2, 0.0); (0.5, 0.0); (0.8, 0.0); (0.5, 0.2) ]
  in
  print_table
    [ "conflicts"; "failures"; "order"; "makespan"; "commit waits"; "local restarts" ]
    rows;
  Format.printf "@.shape: the weak order overlaps conflicting executions, cutting the@.";
  Format.printf "makespan; the subsystem enforces the commit order instead.@."

let experiment = Harness.experiment "p3" (fun ~quick:_ ~json:_ -> run (); no_outcome)
