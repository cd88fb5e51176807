(* P8: open system — Poisson-ish arrivals, throughput and latency vs load *)

open Harness

let run () =
  section "P8 — open system: latency and throughput vs. arrival rate (3 seeds)";
  let rows =
    List.map
      (fun spacing ->
        let params = { Generator.default_params with conflict_density = 0.2 } in
        let n = 30 in
        let results =
          List.map
            (fun seed ->
              let rms = Generator.rms params ~seed () in
              let spec = Generator.spec params in
              let config =
                { Scheduler.default_config with seed; stochastic_times = true }
              in
              let t = Scheduler.create ~config ~spec ~rms () in
              List.iteri
                (fun i p -> Scheduler.submit t ~at:(spacing *. float_of_int i) p)
                (Generator.batch ~seed:(seed * 131) params ~n);
              Scheduler.run ~until:1e6 t;
              let m = Scheduler.metrics t in
              ( float_of_int (Metrics.count m "committed"
                              + Metrics.count m "committed_via_completion")
                /. Scheduler.now t,
                Metrics.mean m "latency",
                Metrics.quantile m "latency" 0.95 ))
            [ 2; 3; 5 ]
        in
        let avg3 f = avg f results in
        [
          f2 (1.0 /. spacing);
          f2 (avg3 (fun (tp, _, _) -> tp));
          f1 (avg3 (fun (_, lat, _) -> lat));
          f1 (avg3 (fun (_, _, p95) -> p95));
        ])
      [ 4.0; 2.0; 1.0; 0.5; 0.25 ]
  in
  print_table [ "arrival rate"; "throughput"; "mean latency"; "p95 latency" ] rows;
  Format.printf
    "@.shape: throughput follows the offered load until contention saturates@.";
  Format.printf "it; latency then grows sharply — a classic open-system knee.@."

let experiment = Harness.experiment "p8" (fun ~quick:_ ~json:_ -> run (); no_outcome)
