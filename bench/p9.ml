(* P9: robustness — periodic subsystem outages; degrading to alternative
   branches vs. waiting the windows out *)

open Harness

let run () =
  section "P9 — 20%-duty-cycle subsystem outages: degrade vs. wait (3 seeds)";
  let params = { Generator.default_params with conflict_density = 0.2 } in
  let n = 20 in
  let horizon = 60.0 in
  let plan rms =
    (* staggered periodic windows: at any instant roughly one fifth of
       every subsystem's timeline is dark, phases spread so the outages
       do not overlap across subsystems *)
    let subsystems = List.map Rm.name rms in
    let period = 10.0 in
    let k = float_of_int (List.length subsystems) in
    Faults.make
      ~outages:
        (List.concat
           (List.mapi
              (fun i ss ->
                Faults.periodic_outage ~subsystem:ss ~period ~duty:0.2
                  ~phase:(float_of_int i *. period /. k)
                  ~horizon ())
              subsystems))
      ()
  in
  let arms =
    [
      ("no faults", false, true);
      ("outage, degrade", true, true);
      ("outage, wait out", true, false);
    ]
  in
  let rows =
    List.map
      (fun (name, faulted, outage_degrade) ->
        let results =
          List.map
            (fun seed ->
              let rms = Generator.rms params ~seed () in
              let spec = Generator.spec params in
              let faults = if faulted then plan rms else Faults.none in
              let config = { Scheduler.default_config with seed; outage_degrade } in
              let t = Scheduler.create ~config ~faults ~spec ~rms () in
              List.iteri
                (fun i p -> Scheduler.submit t ~at:(0.5 *. float_of_int i) p)
                (Generator.batch ~seed:(seed * 131) params ~n);
              Scheduler.run ~until:1e6 t;
              let m = Scheduler.metrics t in
              ( float_of_int
                  (Metrics.count m "committed" + Metrics.count m "committed_via_completion")
                /. Scheduler.now t,
                Metrics.quantile m "latency" 0.95,
                float_of_int (Metrics.count m "outage_deflections"),
                float_of_int (Metrics.count m "retries"),
                float_of_int (Metrics.count m "aborted") ))
            [ 2; 3; 5 ]
        in
        let avg3 f = avg f results in
        [
          name;
          f2 (avg3 (fun (tp, _, _, _, _) -> tp));
          f1 (avg3 (fun (_, p95, _, _, _) -> p95));
          f1 (avg3 (fun (_, _, d, _, _) -> d));
          f1 (avg3 (fun (_, _, _, r, _) -> r));
          f1 (avg3 (fun (_, _, _, _, a) -> a));
        ])
      arms
  in
  print_table
    [ "faults"; "throughput"; "p95 latency"; "deflections"; "retries"; "aborted" ]
    rows;
  Format.printf
    "@.shape: waiting retries through the windows — every process still@.";
  Format.printf
    "commits, but the latency tail stretches by the outage length.@.";
  Format.printf
    "Degrading answers fast (deflections instead of retries) at the cost@.";
  Format.printf
    "of aborting processes whose alternative branches are exhausted.@."

let experiment = Harness.experiment "p9" (fun ~quick:_ ~json:_ -> run (); no_outcome)
