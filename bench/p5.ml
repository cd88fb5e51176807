(* P5: crash recovery *)

open Harness

let run () =
  section "P5 — crash recovery (crash at t=3.0, varying load)";
  let rows =
    List.map
      (fun n ->
        let params = { Generator.default_params with conflict_density = 0.2 } in
        let seed = 17 in
        let rms = Generator.rms params ~seed () in
        let spec = Generator.spec params in
        let t = Scheduler.create ~config:{ Scheduler.default_config with seed } ~spec ~rms () in
        let procs = Generator.batch ~seed:(seed * 131) params ~n in
        List.iteri (fun i p -> Scheduler.submit t ~at:(0.1 *. float_of_int i) p) procs;
        Scheduler.run ~until:3.0 t;
        let records = Scheduler.crash t in
        let wal_size = List.length records in
        match Scheduler.recover ~spec ~rms ~procs records with
        | Error e -> [ string_of_int n; "recovery failed: " ^ e; "-"; "-"; "-"; "-" ]
        | Ok t2 ->
            Scheduler.run t2;
            let stitched = Scheduler.history t2 in
            let m = Scheduler.metrics t2 in
            [
              string_of_int n;
              string_of_int wal_size;
              string_of_int (Metrics.count m "recovered_processes");
              f1 (Scheduler.now t2);
              string_of_int (Metrics.count m "compensations" + Metrics.count m "completion_activities");
              (if Criteria.red stitched && Scheduler.finished t2 then "yes" else "NO");
            ])
      [ 4; 8; 16; 32 ]
  in
  print_table
    [ "processes"; "WAL records"; "interrupted"; "recovery time"; "recovery acts"; "recovered RED" ]
    rows;
  Format.printf "@.shape: recovery work grows linearly with the number of interrupted@.";
  Format.printf "processes; the stitched pre+post schedule is always reducible.@."

let experiment = Harness.experiment "p5" (fun ~quick:_ ~json:_ -> run (); no_outcome)
