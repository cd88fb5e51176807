(* P2: pivot fraction / quasi-commit benefit *)

open Harness

let run () =
  section "P2 — pivot fraction and the quasi-commit of figure 9 (5 seeds)";
  let rows =
    List.concat_map
      (fun pivot_prob ->
        let params =
          { Generator.default_params with pivot_prob; conflict_density = 0.3 }
        in
        List.map
          (fun (name, config) ->
            let results =
              List.map (fun seed -> run_workload ~params ~config ~seed ()) seeds
            in
            [
              f2 pivot_prob;
              name;
              f1 (avg (fun r -> r.makespan) results);
              f1 (avg (fun r -> float_of_int (Metrics.count r.m "prepared")) results);
              f1 (avg (fun r -> float_of_int (Metrics.count r.m "admission_delays")) results);
            ])
          [
            ("conservative", { Scheduler.default_config with mode = Scheduler.Conservative });
            ("deferred", { Scheduler.default_config with mode = Scheduler.Deferred });
            ("quasi", { Scheduler.default_config with mode = Scheduler.Quasi });
          ])
      [ 0.1; 0.3; 0.6 ]
  in
  print_table [ "pivot prob"; "scheduler"; "makespan"; "prepared"; "delays" ] rows;
  Format.printf
    "@.shape: more pivots => more deferred commits (only a pivot behind a live@.";
  Format.printf
    "predecessor prepares); quasi admits some of them immediately once@.";
  Format.printf "predecessors are forward-recoverable.@."

let experiment = Harness.experiment "p2" (fun ~quick:_ ~json:_ -> run (); no_outcome)
