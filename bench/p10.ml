(* P10: commit-path latency under message loss, with and without the
   participant-side termination protocol (in-doubt inquiries) *)

open Harness

let run () =
  section "P10 — 2PC commit path under message loss: termination protocol on/off";
  let params =
    { Generator.default_params with conflict_density = 0.3; pivot_prob = 0.4 }
  in
  let n = 15 in
  let horizon = 50.0 in
  let p10_seeds = [ 2; 3; 5 ] in
  let rows =
    List.concat_map
      (fun loss ->
        List.map
          (fun (term_name, inquiry) ->
            let results =
              List.map
                (fun seed ->
                  let rms = Generator.rms params ~seed () in
                  let spec = Generator.spec params in
                  let faults =
                    if loss <= 0.0 then Faults.none
                    else
                      Faults.make
                        ~msg_faults:
                          (Faults.uniform_msg_faults ~drop:loss ~dup:loss
                             ~delay:0.5 ~horizon ())
                        ()
                  in
                  (* a deliberately sluggish coordinator (retransmission
                     every 4 t.u.) so the participant-side termination
                     protocol (inquiry after 1 t.u.) has something to beat *)
                  let config =
                    {
                      Scheduler.default_config with
                      mode = Scheduler.Deferred;
                      seed;
                      twopc_retransmit = 4.0;
                      twopc_inquiry = inquiry;
                    }
                  in
                  let t = Scheduler.create ~config ~faults ~spec ~rms () in
                  List.iteri
                    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
                    (Generator.batch ~seed:(seed * 131) params ~n);
                  Scheduler.run ~until:1e6 t;
                  let m = Scheduler.metrics t in
                  ( float_of_int
                      (Metrics.count m "committed"
                      + Metrics.count m "committed_via_completion")
                    /. Scheduler.now t,
                    Metrics.quantile m "twopc_decide_latency" 0.95,
                    float_of_int (Metrics.count m "msg_retransmits"),
                    float_of_int (Metrics.count m "msg_inquiries") ))
                p10_seeds
            in
            let avg3 f = avg f results in
            [
              pct loss;
              term_name;
              f2 (avg3 (fun (tp, _, _, _) -> tp));
              f2 (avg3 (fun (_, p95, _, _) -> p95));
              f1 (avg3 (fun (_, _, rt, _) -> rt));
              f1 (avg3 (fun (_, _, _, res) -> res));
            ])
          [ ("inquiry on", Some 1.0); ("inquiry off", None) ])
      [ 0.0; 0.01; 0.05 ]
  in
  print_table
    [ "msg loss"; "termination"; "throughput"; "commit p95"; "retransmits";
      "inquiries" ]
    rows;
  Format.printf
    "@.shape: loss stretches the commit-path tail by retransmission rounds;@.";
  Format.printf
    "the termination protocol resolves in-doubt participants early (inquiries@.";
  Format.printf
    "pull the decision) instead of waiting for coordinator retransmission,@.";
  Format.printf "trimming the p95 without changing throughput or outcomes.@."

let experiment = Harness.experiment "p10" (fun ~quick:_ ~json:_ -> run (); no_outcome)
