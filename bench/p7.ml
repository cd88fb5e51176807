(* P7: ablation — incremental dependency tracking vs exact per-admission
   reducibility checking (Section 3.5's "always consider S-tilde") *)

open Harness

let run () =
  section "P7 — ablation: incremental admission vs. exact per-admission RED check";
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (name, exact) ->
            let params = { Generator.default_params with conflict_density = 0.25 } in
            let config = { Scheduler.default_config with exact_admission = exact } in
            let t0 = Sys.time () in
            let results =
              List.map (fun seed -> run_workload ~params ~config ~n ~seed ()) [ 2; 3; 5 ]
            in
            let cpu = (Sys.time () -. t0) /. 3.0 in
            [
              string_of_int n;
              name;
              f1 (avg (fun r -> r.makespan) results);
              f1 (avg (fun r -> float_of_int r.committed) results);
              Printf.sprintf "%.0f" (cpu *. 1000.0);
            ])
          [ ("incremental (default)", false); ("exact S-tilde check", true) ])
      [ 5; 10; 15 ]
  in
  print_table [ "processes"; "admission"; "makespan"; "committed"; "cpu ms/run" ] rows;
  Format.printf
    "@.shape: both admit essentially the same schedules (the incremental@.";
  Format.printf
    "tracker is a sound approximation), but the exact check re-runs the@.";
  Format.printf "reduction per admission and its cost grows quickly with history size.@."

let experiment = Harness.experiment "p7" (fun ~quick:_ ~json:_ -> run (); no_outcome)
