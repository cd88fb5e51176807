(* P1: makespan/throughput vs conflict density, per scheduler variant *)

open Harness

let run () =
  section "P1 — scheduler variants vs. conflict density (n=10 processes, 5 seeds)";
  let variants =
    [
      ("serial", `Serial);
      ("naive-SR", `Config { Scheduler.default_config with mode = Scheduler.Naive_sr });
      ("conservative", `Config { Scheduler.default_config with mode = Scheduler.Conservative });
      ("deferred (paper)", `Config { Scheduler.default_config with mode = Scheduler.Deferred });
      ("quasi (fig 9)", `Config { Scheduler.default_config with mode = Scheduler.Quasi });
    ]
  in
  let densities = [ 0.05; 0.15; 0.3; 0.5 ] in
  let rows =
    List.concat_map
      (fun density ->
        let params = { Generator.default_params with conflict_density = density } in
        List.map
          (fun (name, kind) ->
            match kind with
            | `Serial ->
                let span =
                  avg
                    (fun seed ->
                      Baseline.serial_makespan
                        ~make_rms:(fun () -> Generator.rms params ~seed ())
                        ~spec:(Generator.spec params)
                        (Generator.batch ~seed:(seed * 131) params ~n:10))
                    (List.map float_of_int seeds |> List.map int_of_float)
                in
                [ pct density; name; f1 span; "10.0"; "0.0"; "-"; "100%" ]
            | `Config config ->
                let results =
                  List.map (fun seed -> run_workload ~params ~config ~check_pred:true ~seed ()) seeds
                in
                [
                  pct density;
                  name;
                  f1 (avg (fun r -> r.makespan) results);
                  f1 (avg (fun r -> float_of_int r.committed) results);
                  f1 (avg (fun r -> float_of_int r.aborted) results);
                  string_of_int
                    (int_of_float
                       (avg (fun r -> float_of_int (Metrics.count r.m "admission_delays")) results));
                  pct (avg (fun r -> if r.pred_ok then 1.0 else 0.0) results);
                ])
          variants)
      densities
  in
  print_table
    [ "conflicts"; "scheduler"; "makespan"; "committed"; "aborted"; "delays"; "PRED ok" ]
    rows;
  Format.printf
    "@.shape: the deferred-2PC protocol (the paper's) commits everything at well@.";
  Format.printf
    "below serial makespan; conservative delaying, which waits only on@.";
  Format.printf
    "predecessors that have not committed, commits everything too, a few@.";
  Format.printf
    "percent slower — deferred commits via 2PC buy overlap, not liveness.@.";
  Format.printf
    "naive-SR is fast but its histories violate PRED (unrecoverable).@."

let experiment = Harness.experiment "p1" (fun ~quick:_ ~json:_ -> run (); no_outcome)
