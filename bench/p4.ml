(* P4: micro-benchmarks of the checker hot paths (Bechamel) *)

open Harness

let run () =
  section "P4 — checker micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  (* pre-build schedules of growing size from scheduler runs *)
  let schedule_of_n n =
    let params = { Generator.default_params with conflict_density = 0.2 } in
    let rms = Generator.rms params ~seed:5 () in
    let spec = Generator.spec params in
    let t = Scheduler.create ~spec ~rms () in
    List.iteri
      (fun i p -> Scheduler.submit t ~at:(0.2 *. float_of_int i) p)
      (Generator.batch ~seed:42 params ~n);
    Scheduler.run t;
    Scheduler.history t
  in
  let tests =
    List.concat_map
      (fun n ->
        let s = schedule_of_n n in
        let events = Schedule.length s in
        [
          Test.make
            ~name:(Printf.sprintf "completed/%d-events" events)
            (Staged.stage (fun () -> ignore (Completed.of_schedule s)));
          Test.make
            ~name:(Printf.sprintf "red/%d-events" events)
            (Staged.stage (fun () -> ignore (Criteria.red s)));
          Test.make
            ~name:(Printf.sprintf "pred/%d-events" events)
            (Staged.stage (fun () -> ignore (Criteria.pred s)));
        ])
      [ 4; 8; 16 ]
  in
  let grouped = Test.make_grouped ~name:"checker" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 256) () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> rows := [ name; Printf.sprintf "%.1f" est ] :: !rows
      | _ -> ())
    results;
  print_table [ "benchmark"; "ns/run" ]
    (List.sort compare !rows);
  Format.printf "@.shape: the graph-based RED check is polynomial; PRED re-checks every@.";
  Format.printf "prefix and grows accordingly (the online scheduler avoids this by@.";
  Format.printf "incremental dependency tracking).@."

let experiment = Harness.experiment "p4" (fun ~quick:_ ~json:_ -> run (); no_outcome)
