(* Experiment harness.

   The paper (PODS'99) is a theory paper: its "evaluation" consists of the
   worked examples of figures 1-9.  Section E below regenerates every one
   of them as an executable check, printing the paper's claim next to the
   measured verdict.  Sections P1-P6 measure the protocol the paper says
   it implemented in the WISE system (an online PRED scheduler), against
   the baselines described in DESIGN.md.  Section P4 uses Bechamel for
   micro-benchmarks of the checker hot paths. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Shard = Tpm_scheduler.Shard
module Generator = Tpm_workload.Generator
module Cim = Tpm_workload.Cim
module Travel = Tpm_workload.Travel
module Baseline = Tpm_baseline.Baseline
module Metrics = Tpm_sim.Metrics
module Faults = Tpm_sim.Faults
module Rm = Tpm_subsys.Rm
module Obs = Tpm_obs.Obs
module Wal = Tpm_wal.Wal

(* ------------------------------------------------------------------ *)
(* run metadata, embedded in every BENCH_*.json artifact: enough to tell
   exactly which tree produced the numbers and on what kind of clock *)

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> "unknown"

(* the clock the experiment's figures are read on: wall-clock timings,
   the discrete-event simulation's virtual time, or both side by side *)
type clock =
  | Wall
  | Virtual
  | Wall_and_virtual

let clock_label = function
  | Wall -> "wall"
  | Virtual -> "virtual-discrete-event"
  | Wall_and_virtual -> "wall+virtual-discrete-event"

let meta_json ?(knobs = "") ~experiment ~clock () =
  Printf.sprintf
    "{\"git_commit\": %S, \"experiment\": %S, \"clock\": %S, \"harness\": \
     \"bench/main.exe\"%s}"
    (git_commit ()) experiment (clock_label clock)
    (if knobs = "" then "" else ", \"knobs\": " ^ knobs)

(* ------------------------------------------------------------------ *)
(* table printing *)

let rule = String.make 78 '-'

let section title =
  Format.printf "@.%s@.%s@.%s@." rule title rule

let print_table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Format.printf "%-*s  " (List.nth widths i) cell)
      cells;
    Format.printf "@."
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

(* ------------------------------------------------------------------ *)
(* Section E: the paper's figures and examples as executable checks *)

let paper_fixtures () =
  let act ~proc ~act:n ~service ~kind = Activity.make ~proc ~act:n ~service ~kind () in
  let p1 =
    Process.make_exn ~pid:1
      ~activities:
        [
          act ~proc:1 ~act:1 ~service:"s11" ~kind:Activity.Compensatable;
          act ~proc:1 ~act:2 ~service:"s12" ~kind:Activity.Pivot;
          act ~proc:1 ~act:3 ~service:"s13" ~kind:Activity.Compensatable;
          act ~proc:1 ~act:4 ~service:"s14" ~kind:Activity.Pivot;
          act ~proc:1 ~act:5 ~service:"s15" ~kind:Activity.Retriable;
          act ~proc:1 ~act:6 ~service:"s16" ~kind:Activity.Retriable;
        ]
      ~prec:[ (1, 2); (2, 3); (3, 4); (2, 5); (5, 6) ]
      ~pref:[ ((2, 3), (2, 5)) ]
  in
  let p2 =
    Process.make_exn ~pid:2
      ~activities:
        [
          act ~proc:2 ~act:1 ~service:"s21" ~kind:Activity.Compensatable;
          act ~proc:2 ~act:2 ~service:"s22" ~kind:Activity.Compensatable;
          act ~proc:2 ~act:3 ~service:"s23" ~kind:Activity.Pivot;
          act ~proc:2 ~act:4 ~service:"s24" ~kind:Activity.Retriable;
          act ~proc:2 ~act:5 ~service:"s25" ~kind:Activity.Retriable;
        ]
      ~prec:[ (1, 2); (2, 3); (3, 4); (4, 5) ]
      ~pref:[]
  in
  let p3 =
    Process.make_exn ~pid:3
      ~activities:
        [
          act ~proc:3 ~act:1 ~service:"s31" ~kind:Activity.Compensatable;
          act ~proc:3 ~act:2 ~service:"s32" ~kind:Activity.Pivot;
        ]
      ~prec:[ (1, 2) ]
      ~pref:[]
  in
  let spec =
    Conflict.of_pairs [ ("s11", "s21"); ("s12", "s24"); ("s15", "s25"); ("s11", "s31") ]
  in
  (p1, p2, p3, spec)

let section_e () =
  section "E — paper figures and worked examples (claim vs. measured)";
  let p1, p2, p3, spec = paper_fixtures () in
  let fwd p n = Schedule.Act (Activity.Forward (Process.find p n)) in
  let s_t2 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p2 3; fwd p1 2; fwd p2 4; fwd p1 3 ]
  in
  let s_t1 =
    Schedule.make ~spec ~procs:[ p1; p2 ] [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p2 3 ]
  in
  let s'_t2 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p2 3; fwd p2 4; fwd p1 2; fwd p1 3 ]
  in
  let s''_t1 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p2 1; fwd p2 2; fwd p2 3; fwd p2 4; fwd p1 1; fwd p2 5; fwd p1 2; fwd p1 3 ]
  in
  let s_star =
    Schedule.make ~spec ~procs:[ p1; p3 ] [ fwd p1 1; fwd p1 2; fwd p3 1; fwd p3 2 ]
  in
  (* E9: run figure 1 through the scheduler and check the deferral *)
  let e9 () =
    let part = "boiler" in
    let parts = [ part ] in
    let rms = Cim.rms ~parts () in
    let config =
      {
        Scheduler.default_config with
        service_time = (fun s -> if s = "tech_doc:" ^ part then 5.0 else 1.0);
      }
    in
    let t = Scheduler.create ~config ~spec:(Cim.spec ~parts) ~rms () in
    Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part);
    Scheduler.submit t ~at:2.5 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part);
    Scheduler.run t;
    let h = Scheduler.history t in
    let pos pred =
      let rec go i = function [] -> max_int | ev :: r -> if pred ev then i else go (i + 1) r in
      go 0 (Schedule.events h)
    in
    let produce =
      pos (function
        | Schedule.Act (Activity.Forward a) -> a.Activity.service = "produce:" ^ part
        | _ -> false)
    in
    let c1 = pos (function Schedule.Commit 1 -> true | _ -> false) in
    Criteria.pred h && produce > c1
  in
  let checks =
    [
      ( "E1", "fig 3: P1 has exactly 4 valid executions",
        List.length (Execution.valid_executions p1) = 4 );
      ( "E2", "ex 2: C(P1) after a13 = {a13' << a15 << a16}",
        let st =
          List.fold_left Execution.exec (Execution.start p1) [ 1; 2; 3 ]
        in
        Execution.completion st
        = [ Activity.Inverse (Process.find p1 3); Activity.Forward (Process.find p1 5);
            Activity.Forward (Process.find p1 6) ] );
      ("E3", "fig 4b: S'_t2 not serializable", not (Criteria.serializable s'_t2));
      ("E4", "fig 4a: S_t2 serializable", Criteria.serializable s_t2);
      ("E5", "fig 6: completed(S_t2) serializable", Criteria.serializable (Completed.of_schedule s_t2));
      ("E5b", "ex 6: S_t2 is RED", Criteria.red s_t2);
      ("E6", "fig 7: S''_t1 is RED and PRED", Criteria.red s''_t1 && Criteria.pred s''_t1);
      ("E7", "ex 8: prefix S_t1 irreducible => S_t2 not PRED",
        (not (Criteria.red s_t1)) && not (Criteria.pred s_t2));
      ("E8", "fig 9: quasi-commit schedule S* is PRED", Criteria.pred s_star);
      ("E9", "fig 1: scheduler defers produce past C_1, PRED", e9 ());
    ]
  in
  print_table [ "id"; "claim"; "measured" ]
    (List.map (fun (id, claim, ok) -> [ id; claim; (if ok then "reproduced" else "FAILED") ]) checks);
  List.for_all (fun (_, _, ok) -> ok) checks

(* ------------------------------------------------------------------ *)
(* shared runner for the P experiments *)

type run_result = {
  makespan : float;
  committed : int;
  aborted : int;
  pred_ok : bool;
  m : Metrics.t;
}

let run_workload ?(params = Generator.default_params) ?(n = 10) ?(fail = 0.0)
    ?(config = Scheduler.default_config) ?(check_pred = false) ~seed () =
  let rms = Generator.rms params ~fail_prob:(fun _ -> fail) ~seed () in
  let spec = Generator.spec params in
  let t = Scheduler.create ~config:{ config with seed } ~spec ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 131) params ~n);
  Scheduler.run ~until:1e6 t;
  let h = Scheduler.history t in
  let count status =
    List.length (List.filter (fun pid -> Scheduler.status t pid = status) (Schedule.proc_ids h))
  in
  {
    makespan = Scheduler.now t;
    committed = count Schedule.Committed;
    aborted = count Schedule.Aborted;
    pred_ok = (if check_pred then Criteria.pred h else true);
    m = Scheduler.metrics t;
  }

let seeds = [ 2; 3; 5; 7; 11 ]

let avg f l = List.fold_left (fun a x -> a +. f x) 0.0 l /. float_of_int (List.length l)

(* P1: makespan/throughput vs conflict density, per scheduler variant *)
let section_p1 () =
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

(* P2: pivot fraction / quasi-commit benefit *)
let section_p2 () =
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

(* P3: weak vs strong order *)
let section_p3 () =
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

(* P5: crash recovery *)
let section_p5 () =
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

(* P6: failure handling / guaranteed termination *)
let section_p6 () =
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

(* P4: micro-benchmarks of the checker hot paths (Bechamel) *)
let section_p4 () =
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

(* P7: ablation — incremental dependency tracking vs exact per-admission
   reducibility checking (Section 3.5's "always consider S-tilde") *)
let section_p7 () =
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

(* P8: open system — Poisson-ish arrivals, throughput and latency vs load *)
let section_p8 () =
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

(* P9: robustness — periodic subsystem outages; degrading to alternative
   branches vs. waiting the windows out *)
let section_p9 () =
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

(* P10: commit-path latency under message loss, with and without the
   participant-side termination protocol (in-doubt inquiries) *)
let section_p10 () =
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

(* P11: the incremental admission engine (interned services, conflict
   bitmatrix, cached future/occurrence bitsets, cycle detection against
   the combined graph's maintained order, O(1) schedule append) against the string-based reference
   path it replaced.  Both engines take identical decisions — the
   differential stress (`tools/stress.exe --check-admission`) proves it —
   so the comparison is pure cost.  The admission path is timed per call
   via [admission_clock]; throughput is admissions per second of
   admission-path time. *)

type p11_point = {
  p_label : string;
  p_procs : int;
  p_hist : int;  (* final history length, events *)
  p_admissions : int;
  p_mean_us : float;
  p_p95_us : float;
  p_wall_s : float;
}

(* [until] truncates the simulated horizon: at the largest scales the
   reference engine cannot be run to completion in reasonable wall time
   (that is the point of the experiment), so both engines are measured on
   the identical virtual-time prefix of the identical workload — the
   per-admission statistics stay apples-to-apples.  [spacing] compresses
   submissions so every process is registered well inside the prefix. *)
let p11_measure ?(until = 1e6) ?(spacing = 0.3) ~engine ~n ~params ~seed () =
  let rms = Generator.rms params ~seed () in
  let spec = Generator.spec params in
  let config =
    {
      Scheduler.default_config with
      seed;
      admission_engine = engine;
      admission_clock = Some Unix.gettimeofday;
    }
  in
  let t = Scheduler.create ~config ~spec ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(spacing *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 131) params ~n);
  let w0 = Unix.gettimeofday () in
  Scheduler.run ~until t;
  let wall = Unix.gettimeofday () -. w0 in
  let m = Scheduler.metrics t in
  {
    p_label = "";
    p_procs = n;
    p_hist = Schedule.length (Scheduler.history t);
    p_admissions = Metrics.count m "admissions";
    p_mean_us = 1e6 *. Metrics.mean m "admission_time";
    p_p95_us = 1e6 *. Metrics.quantile m "admission_time" 0.95;
    p_wall_s = wall;
  }

let p11_throughput p = if p.p_mean_us <= 0.0 then 0.0 else 1e6 /. p.p_mean_us

let p11_row p =
  [
    p.p_label;
    string_of_int p.p_procs;
    string_of_int p.p_hist;
    string_of_int p.p_admissions;
    f2 p.p_mean_us;
    f2 p.p_p95_us;
    Printf.sprintf "%.0f" (p11_throughput p);
    f2 p.p_wall_s;
  ]

let p11_json_point p =
  Printf.sprintf
    "{\"engine\": %S, \"procs\": %d, \"history_events\": %d, \"admissions\": %d, \
     \"mean_us\": %.3f, \"p95_us\": %.3f, \"throughput_per_s\": %.1f, \"wall_s\": %.3f}"
    p.p_label p.p_procs p.p_hist p.p_admissions p.p_mean_us p.p_p95_us
    (p11_throughput p) p.p_wall_s

(* Probe measurement: prepare a mid-run state with the default
   (incremental) engine — trajectories are engine-independent because
   both engines take identical decisions — then time the *pure* decision
   functions of both engines on that state over a bounded sample of
   (process, activity) candidates.  This is the only tractable way to
   measure the reference engine at scale: running it live amplifies its
   per-call cost by every dispatch wake (which is the point of the
   optimization). *)
let p11_probe ~n ~params ~seed =
  let rms = Generator.rms params ~seed () in
  let spec = Generator.spec params in
  let t = Scheduler.create ~config:{ Scheduler.default_config with seed } ~spec ~rms () in
  let procs = Generator.batch ~seed:(seed * 131) params ~n in
  List.iteri (fun i p -> Scheduler.submit t ~at:(0.05 *. float_of_int i) p) procs;
  (* just past full registration plus a slice of execution: nearly every
     process is live, with occurrences and in-flight work on the books *)
  Scheduler.run ~until:((0.05 *. float_of_int n) +. 1.5) t;
  let live =
    List.filter (fun p -> Scheduler.status t (Process.pid p) = Schedule.Active) procs
  in
  let cap = if n >= 256 then 150 else 400 in
  let samples =
    List.concat_map
      (fun p -> List.map (fun a -> (Process.pid p, a)) (Process.activity_ids p))
      live
    |> List.filteri (fun i _ -> i < cap)
  in
  let time_probe engine =
    let ts =
      List.map
        (fun (pid, act) ->
          let t0 = Unix.gettimeofday () in
          Scheduler.probe_admission t engine ~pid ~act;
          Unix.gettimeofday () -. t0)
        samples
    in
    let k = float_of_int (List.length ts) in
    let mean = List.fold_left ( +. ) 0.0 ts /. k in
    let sorted = List.sort compare ts in
    let p95 = List.nth sorted (min (List.length ts - 1) (int_of_float (0.95 *. k))) in
    (1e6 *. mean, 1e6 *. p95)
  in
  let rmean, rp95 = time_probe Scheduler.Reference in
  let imean, ip95 = time_probe Scheduler.Incremental in
  (List.length live, List.length samples, rmean, rp95, imean, ip95)

(* one seed per point: admission-path timing aggregates hundreds to
   thousands of calls per point, which does the averaging a seed sweep
   would *)
let section_p11 ?(quick = false) ?json () =
  section
    (if quick then "P11 — admission engine, perf smoke (quick scales)"
     else "P11 — incremental vs. reference admission engine");
  let params =
    {
      Generator.default_params with
      services = 12;
      conflict_density = 0.25;
      activities_min = 3;
      activities_max = 6;
    }
  in
  let seed = 7 in
  let measure label engine n ps =
    let p = { (p11_measure ~engine ~n ~params:ps ~seed ()) with p_label = label } in
    Printf.eprintf "  [p11] e2e %s n=%d: %.1fs wall\n%!" label n p.p_wall_s;
    p
  in
  let points = ref [] in
  (* end-to-end runs: the reference engine is only run live at the small
     scales (its cost at larger ones is the subject of the probe table) *)
  let rows_scale =
    List.concat_map
      (fun n ->
        let r = measure "reference" Scheduler.Reference n params in
        let i = measure "incremental" Scheduler.Incremental n params in
        points := !points @ [ r; i ];
        [ p11_row r; p11_row i ])
      [ 8; 16; 32 ]
    @
    if quick then []
    else
      (* past 128 even the end-to-end simulation is dominated by wake
         amplification (every event retries every waiting process); the
         256-process point lives on the probe axis below *)
      List.map
        (fun n ->
          let i = measure "incremental" Scheduler.Incremental n params in
          points := !points @ [ i ];
          p11_row i)
        [ 64; 128 ]
  in
  Format.printf "end-to-end runs (admission path timed in-run):@.";
  print_table
    [ "engine"; "procs"; "history"; "admissions"; "mean us"; "p95 us";
      "admissions/s"; "wall s" ]
    rows_scale;
  (* per-call probes on identical mid-run states *)
  let probe_scales = if quick then [ 8; 16; 32 ] else [ 8; 16; 32; 64; 128; 256 ] in
  let probes =
    List.map
      (fun n ->
        let live, k, rmean, rp95, imean, ip95 = p11_probe ~n ~params ~seed in
        Printf.eprintf "  [p11] probe n=%d: %d samples\n%!" n k;
        (n, live, k, rmean, rp95, imean, ip95))
      probe_scales
  in
  let speedups =
    List.map (fun (n, _, _, rmean, _, imean, _) -> (n, rmean /. imean)) probes
  in
  Format.printf "@.per-call probes (both engines on the identical mid-run state):@.";
  print_table
    [ "procs"; "live"; "samples"; "ref mean us"; "ref p95 us"; "inc mean us";
      "inc p95 us"; "speedup" ]
    (List.map
       (fun (n, live, k, rmean, rp95, imean, ip95) ->
         [
           string_of_int n; string_of_int live; string_of_int k; f2 rmean; f2 rp95;
           f2 imean; f2 ip95; Printf.sprintf "%.1fx" (rmean /. imean);
         ])
       probes);
  (* second axis: history length (activities per process) at fixed width *)
  let hist_points =
    if quick then []
    else
      List.concat_map
        (fun (lo, hi) ->
          let ps = { params with Generator.activities_min = lo; activities_max = hi } in
          let r = measure "reference" Scheduler.Reference 32 ps in
          let i = measure "incremental" Scheduler.Incremental 32 ps in
          [ r; i ])
        [ (2, 4); (4, 10); (10, 16) ]
  in
  if hist_points <> [] then begin
    Format.printf "@.history-length axis (32 processes, activities per process varied):@.";
    print_table
      [ "engine"; "procs"; "history"; "admissions"; "mean us"; "p95 us";
        "admissions/s"; "wall s" ]
      (List.map p11_row hist_points)
  end;
  Format.printf
    "@.shape: the reference path rescans every occurrence list and rebuilds the@.";
  Format.printf
    "dependency graph per admission — its per-admission cost grows with both@.";
  Format.printf
    "process count and history length.  The incremental engine's bitset@.";
  Format.printf
    "intersections and maintained topological order keep the mean near-flat.@.";
  (match json with
  | None -> ()
  | Some path ->
      let probe_json (n, live, k, rmean, rp95, imean, ip95) =
        Printf.sprintf
          "{\"procs\": %d, \"live\": %d, \"samples\": %d, \"ref_mean_us\": %.3f, \
           \"ref_p95_us\": %.3f, \"inc_mean_us\": %.3f, \"inc_p95_us\": %.3f, \
           \"speedup\": %.1f}"
          n live k rmean rp95 imean ip95 (rmean /. imean)
      in
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"P11 incremental admission engine\",\n\
        \  \"meta\": %s,\n\
        \  \"workload\": {\"services\": %d, \"conflict_density\": %.2f, \
         \"activities\": \"%d-%d\", \"seed\": %d},\n\
        \  \"scale_axis\": [\n    %s\n  ],\n\
        \  \"probe_axis\": [\n    %s\n  ],\n\
        \  \"history_axis\": [\n    %s\n  ],\n\
        \  \"speedup_mean\": {%s}\n}\n"
        (meta_json ~experiment:"P11" ~clock:Wall ())
        params.Generator.services params.Generator.conflict_density
        params.Generator.activities_min params.Generator.activities_max seed
        (String.concat ",\n    " (List.map p11_json_point !points))
        (String.concat ",\n    " (List.map probe_json probes))
        (String.concat ",\n    " (List.map p11_json_point hist_points))
        (String.concat ", "
           (List.map (fun (n, s) -> Printf.sprintf "\"%d\": %.1f" n s) speedups));
      close_out oc;
      Format.printf "@.wrote %s@." path);
  speedups

let p11_main args =
  let quick = ref false in
  let json = ref None in
  let min_throughput = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--json" :: path :: rest -> json := Some path; parse rest
    | "--min-throughput" :: x :: rest ->
        min_throughput := Some (float_of_string x); parse rest
    | arg :: _ -> failwith (Printf.sprintf "p11: unknown argument %S" arg)
  in
  parse args;
  let speedups = section_p11 ~quick:!quick ?json:!json () in
  match !min_throughput with
  | None -> ()
  | Some floor ->
      (* perf-smoke gate: the incremental engine's admission throughput at
         the largest measured scale must stay above the floor *)
      let n = List.fold_left (fun a (n, _) -> max a n) 0 speedups in
      let p =
        {
          (p11_measure ~engine:Scheduler.Incremental ~n
             ~params:
               {
                 Generator.default_params with
                 services = 12;
                 conflict_density = 0.25;
                 activities_min = 3;
                 activities_max = 6;
               }
             ~seed:7 ())
          with p_label = "incremental";
        }
      in
      let tp = p11_throughput p in
      if tp < floor then begin
        Format.printf "P11 SMOKE FAILED: %.0f admissions/s < floor %.0f@." tp floor;
        exit 1
      end
      else Format.printf "P11 smoke ok: %.0f admissions/s >= floor %.0f@." tp floor

(* P12: observability overhead.  The same P11 admission workload is run
   with tracing disabled, with the in-memory ring sink only, and with
   ring + JSONL file sink; each arm is repeated over many interleaved
   rounds and the minimum wall time taken (the noise-robust estimator
   for short runs: one run is about 10 ms).  The disabled arm
   must be bit-identical to a pre-observability scheduler — every
   instrumentation site is guarded by [Obs.Tracer.active] — so its wall
   time is the honest baseline, and the ring arm's overhead is the price
   of always-on forensics. *)

type p12_arm = {
  a_label : string;
  a_wall_s : float;  (* min over reps *)
  a_events : int;  (* trace events emitted by one run *)
  a_overhead : float;  (* a_wall_s / disabled wall - 1 *)
}

let p12_params =
  {
    Generator.default_params with
    services = 12;
    conflict_density = 0.25;
    activities_min = 3;
    activities_max = 6;
  }

let p12_run ~n ~seed ~mk_tracer =
  let rms = Generator.rms p12_params ~seed () in
  let spec = Generator.spec p12_params in
  let tracer = mk_tracer () in
  let t =
    Scheduler.create
      ~config:{ Scheduler.default_config with seed }
      ~tracer ~spec ~rms ()
  in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 131) p12_params ~n);
  (* start every timed run from the same heap state: the arms differ by
     ~100 KB of event allocations per run, which otherwise shifts GC
     scheduling between arms by more than the overhead being measured *)
  Gc.compact ();
  let w0 = Unix.gettimeofday () in
  Scheduler.run ~until:1e6 t;
  let wall = Unix.gettimeofday () -. w0 in
  Obs.Tracer.close tracer;
  (wall, Obs.Tracer.emitted tracer, Scheduler.metrics t)

let section_p12 ?(quick = false) ?json () =
  section
    "P12 — tracing overhead: disabled vs. ring sink vs. ring + JSONL (min of reps)";
  (* quick mode keeps the full batch size — the n=16 baseline is only a
     few milliseconds, too small to resolve a 10 % overhead against
     timer and GC noise — and economizes on rounds instead *)
  let n = 32 in
  let reps = if quick then 30 else 60 in
  let seed = 7 in
  let jsonl_path = Filename.temp_file "tpm_p12_trace" ".jsonl" in
  let arms =
    [
      ("disabled", fun () -> Obs.Tracer.disabled);
      ("ring", fun () -> Obs.Tracer.create ~ring_capacity:512 ());
      ( "ring+jsonl",
        fun () ->
          Obs.Tracer.create ~ring_capacity:512
            ~sinks:[ Obs.Sink.jsonl jsonl_path ] () );
    ]
  in
  let snapshot = ref None in
  (* interleave the arms round-robin so a transient load spike hits all
     of them alike, rotating which arm runs first so none always follows
     the same neighbour, and discard one warmup round so no arm pays the
     one-time heap growth; per-arm minimum over the remaining rounds *)
  let arms = Array.of_list arms in
  let k = Array.length arms in
  let walls = Array.make k infinity in
  let events = Array.make k 0 in
  Array.iter (fun (_, mk) -> ignore (p12_run ~n ~seed ~mk_tracer:mk)) arms;
  for r = 1 to reps do
    for j = 0 to k - 1 do
      let i = (r + j) mod k in
      let label, mk = arms.(i) in
      let w, e, m = p12_run ~n ~seed ~mk_tracer:mk in
      if w < walls.(i) then walls.(i) <- w;
      events.(i) <- e;
      if label = "ring" then snapshot := Some m
    done
  done;
  let measured =
    List.mapi
      (fun i (label, _) ->
        Printf.eprintf "  [p12] %s: min %.4fs over %d reps\n%!" label walls.(i) reps;
        (label, walls.(i), events.(i)))
      (Array.to_list arms)
  in
  (try Sys.remove jsonl_path with Sys_error _ -> ());
  let base = match measured with (_, w, _) :: _ -> w | [] -> 1.0 in
  let arms =
    List.map
      (fun (label, w, e) ->
        {
          a_label = label;
          a_wall_s = w;
          a_events = e;
          a_overhead = (w /. base) -. 1.0;
        })
      measured
  in
  print_table
    [ "tracing"; "wall s (min)"; "events/run"; "overhead" ]
    (List.map
       (fun a ->
         [
           a.a_label;
           Printf.sprintf "%.4f" a.a_wall_s;
           string_of_int a.a_events;
           Printf.sprintf "%+.1f%%" (100.0 *. a.a_overhead);
         ])
       arms);
  Format.printf
    "@.shape: every instrumentation site is branch-guarded, so the disabled@.";
  Format.printf
    "arm pays nothing; the ring sink costs one array store per event; the@.";
  Format.printf "JSONL sink adds formatting and file I/O per event.@.";
  (match json with
  | None -> ()
  | Some path ->
      let arm_json a =
        Printf.sprintf
          "{\"arm\": %S, \"wall_s\": %.4f, \"events_per_run\": %d, \
           \"overhead\": %.4f}"
          a.a_label a.a_wall_s a.a_events a.a_overhead
      in
      let metrics_json =
        match !snapshot with Some m -> Metrics.json_string m | None -> "null"
      in
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"P12 tracing overhead\",\n\
        \  \"meta\": %s,\n\
        \  \"workload\": {\"services\": %d, \"conflict_density\": %.2f, \
         \"activities\": \"%d-%d\", \"processes\": %d, \"seed\": %d, \
         \"reps\": %d},\n\
        \  \"arms\": [\n    %s\n  ],\n\
        \  \"metrics_snapshot\": %s\n}\n"
        (meta_json ~experiment:"P12" ~clock:Wall ())
        p12_params.Generator.services p12_params.Generator.conflict_density
        p12_params.Generator.activities_min p12_params.Generator.activities_max
        n seed reps
        (String.concat ",\n    " (List.map arm_json arms))
        metrics_json;
      close_out oc;
      Format.printf "@.wrote %s@." path);
  arms

let p12_main args =
  let quick = ref false in
  let json = ref None in
  let max_overhead = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--max-overhead" :: x :: rest ->
        max_overhead := Some (float_of_string x);
        parse rest
    | arg :: _ -> failwith (Printf.sprintf "p12: unknown argument %S" arg)
  in
  parse args;
  let arms = section_p12 ~quick:!quick ?json:!json () in
  match !max_overhead with
  | None -> ()
  | Some ceiling -> (
      (* perf-smoke gate: the always-on forensics configuration (ring sink
         only) must stay within the ceiling of the disabled baseline *)
      match List.find_opt (fun a -> a.a_label = "ring") arms with
      | None -> ()
      | Some ring ->
          if ring.a_overhead > ceiling then begin
            Format.printf "P12 SMOKE FAILED: ring overhead %.1f%% > ceiling %.1f%%@."
              (100.0 *. ring.a_overhead) (100.0 *. ceiling);
            exit 1
          end
          else
            Format.printf "P12 smoke ok: ring overhead %.1f%% <= ceiling %.1f%%@."
              (100.0 *. ring.a_overhead) (100.0 *. ceiling))

(* P14: group commit — durable-commit throughput vs. decision latency.
   The same workload runs over a real on-disk WAL under each sync policy;
   wall time is dominated by fsyncs, so coalescing them into one fsync
   per batch window multiplies durable-record throughput, while the
   window delays 2PC DECISIONs (held until their commit record's fsync)
   and stretches the virtual makespan — the latency being traded away. *)

type p14_arm = {
  g_label : string;
  g_wall_s : float;  (* min over reps *)
  g_records : int;
  g_fsyncs : int;
  g_max_batch : int;
  g_makespan : float;  (* virtual completion time *)
  g_throughput : float;  (* durable records per wall second *)
}

let p14_params =
  {
    Generator.default_params with
    services = 10;
    conflict_density = 0.25;
    activities_min = 3;
    activities_max = 6;
    subsystems = 3;
  }

let p14_run ~n ~seed ~sync =
  let dir = Filename.temp_file "tpm_p14" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let path = Filename.concat dir "wal.log" in
      let rms = Generator.rms p14_params ~seed () in
      let spec = Generator.spec p14_params in
      let config = { Scheduler.default_config with seed; wal_sync = sync } in
      let t = Scheduler.create ~config ~spec ~rms ~wal_path:path () in
      let procs = Generator.batch ~seed:(seed * 100) p14_params ~n in
      List.iteri (fun i p -> Scheduler.submit t ~at:(0.2 *. float_of_int i) p) procs;
      Gc.compact ();
      let w0 = Unix.gettimeofday () in
      Scheduler.run ~until:1e6 t;
      ignore (Wal.sync (Scheduler.wal t));
      let wall = Unix.gettimeofday () -. w0 in
      if not (Scheduler.finished t) then failwith "p14: run did not finish";
      (wall, Wal.stats (Scheduler.wal t), Scheduler.now t))

(* storage-level axis: direct WAL appends with one fsync per [batch]
   records (batch = 1 is [Sync_each]; batch = records is sync-at-close).
   Here the work IS the logging, so the fsync coalescing factor shows up
   undiluted by simulation CPU. *)
let p14_storage_run ~records ~batch =
  let dir = Filename.temp_file "tpm_p14s" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let path = Filename.concat dir "wal.log" in
      let sync = if batch = 1 then Wal.Sync_each else Wal.No_sync in
      let wal = Wal.create ~path ~sync () in
      Gc.compact ();
      let w0 = Unix.gettimeofday () in
      for i = 1 to records do
        Wal.append wal (Wal.Invoked { pid = 1; act = i });
        if batch > 1 && i mod batch = 0 then ignore (Wal.sync wal)
      done;
      ignore (Wal.sync wal);
      let wall = Unix.gettimeofday () -. w0 in
      Wal.close wal;
      let st = Wal.stats wal in
      assert (st.Wal.durable_records = records);
      (wall, st.Wal.fsyncs))

let section_p14 ?(quick = false) ?json () =
  section "P14 — group commit: durable-commit throughput vs. decision latency";
  let n = if quick then 24 else 48 in
  let reps = if quick then 2 else 3 in
  let seed = 7 in
  let arms =
    [
      ("each", Wal.Sync_each);
      ("group:0.05", Wal.Group 0.05);
      ("group:0.2", Wal.Group 0.2);
      ("none", Wal.No_sync);
    ]
  in
  (* one discarded warmup round, then per-arm minimum over [reps]
     interleaved rounds (the noise-robust estimator for fsync-bound runs) *)
  List.iter (fun (_, sync) -> ignore (p14_run ~n ~seed ~sync)) arms;
  let walls = Array.make (List.length arms) infinity in
  let finals = Array.make (List.length arms) None in
  for _ = 1 to reps do
    List.iteri
      (fun i (_, sync) ->
        let w, st, mk = p14_run ~n ~seed ~sync in
        if w < walls.(i) then walls.(i) <- w;
        finals.(i) <- Some (st, mk))
      arms
  done;
  let measured =
    List.mapi
      (fun i (label, _) ->
        let st, mk = Option.get finals.(i) in
        Printf.eprintf "  [p14] %s: min %.3fs, %d fsyncs\n%!" label walls.(i)
          st.Wal.fsyncs;
        {
          g_label = label;
          g_wall_s = walls.(i);
          g_records = st.Wal.durable_records;
          g_fsyncs = st.Wal.fsyncs;
          g_max_batch = st.Wal.max_batch;
          g_makespan = mk;
          g_throughput = float_of_int st.Wal.durable_records /. walls.(i);
        })
      arms
  in
  print_table
    [ "policy"; "wall s (min)"; "records"; "fsyncs"; "max batch"; "virtual makespan";
      "durable rec/s" ]
    (List.map
       (fun a ->
         [
           a.g_label;
           Printf.sprintf "%.3f" a.g_wall_s;
           string_of_int a.g_records;
           string_of_int a.g_fsyncs;
           string_of_int a.g_max_batch;
           f2 a.g_makespan;
           Printf.sprintf "%.0f" a.g_throughput;
         ])
       measured);
  (* storage-level axis: the fsync-bound multiplier, undiluted *)
  let s_records = if quick then 2000 else 5000 in
  let s_reps = if quick then 2 else 3 in
  let s_batches = [ 1; 8; 32; s_records ] in
  List.iter (fun b -> ignore (p14_storage_run ~records:s_records ~batch:b)) s_batches;
  let s_walls = Array.make (List.length s_batches) infinity in
  let s_fsyncs = Array.make (List.length s_batches) 0 in
  for _ = 1 to s_reps do
    List.iteri
      (fun i b ->
        let w, f = p14_storage_run ~records:s_records ~batch:b in
        if w < s_walls.(i) then s_walls.(i) <- w;
        s_fsyncs.(i) <- f)
      s_batches
  done;
  let storage =
    List.mapi
      (fun i b ->
        let label = if b = s_records then "close-only" else Printf.sprintf "batch %d" b in
        (label, b, s_walls.(i), s_fsyncs.(i), float_of_int s_records /. s_walls.(i)))
      s_batches
  in
  Format.printf "@.storage-level durable-append throughput (%d records, min of %d):@."
    s_records s_reps;
  let s_base =
    match storage with (_, _, _, _, tp) :: _ -> tp | [] -> 1.0
  in
  print_table
    [ "fsync cadence"; "wall s (min)"; "fsyncs"; "records/s"; "vs each" ]
    (List.map
       (fun (label, _, w, f, tp) ->
         [
           label;
           Printf.sprintf "%.3f" w;
           string_of_int f;
           Printf.sprintf "%.0f" tp;
           Printf.sprintf "%.1fx" (tp /. s_base);
         ])
       storage);
  Format.printf
    "@.shape: [each] pays one fsync per record that witnesses an effect or@.";
  Format.printf "decides an outcome — durable and slow.  [group:W]@.";
  Format.printf
    "coalesces a window's appends into one fsync (same record stream, fewer@.";
  Format.printf
    "fsyncs, higher durable throughput) at the price of decisions waiting out@.";
  Format.printf
    "the window: the virtual makespan grows with W.  [none] is the upper bound@.";
  Format.printf
    "no durability story can beat.  The end-to-end table dilutes the effect@.";
  Format.printf
    "with simulation CPU; the storage axis shows the fsync-bound multiplier.@.";
  (match json with
  | None -> ()
  | Some path ->
      let arm_json a =
        Printf.sprintf
          "{\"policy\": %S, \"wall_s\": %.4f, \"records\": %d, \"fsyncs\": %d, \
           \"max_batch\": %d, \"virtual_makespan\": %.2f, \
           \"durable_records_per_s\": %.0f}"
          a.g_label a.g_wall_s a.g_records a.g_fsyncs a.g_max_batch a.g_makespan
          a.g_throughput
      in
      let storage_json (label, batch, w, f, tp) =
        Printf.sprintf
          "{\"cadence\": %S, \"batch\": %d, \"wall_s\": %.4f, \"fsyncs\": %d, \
           \"records_per_s\": %.0f, \"speedup_vs_each\": %.1f}"
          label batch w f tp (tp /. s_base)
      in
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"P14 group commit\",\n\
        \  \"meta\": %s,\n\
        \  \"workload\": {\"services\": %d, \"conflict_density\": %.2f, \
         \"activities\": \"%d-%d\", \"subsystems\": %d, \"processes\": %d, \
         \"seed\": %d, \"reps\": %d},\n\
        \  \"end_to_end\": [\n    %s\n  ],\n\
        \  \"storage\": {\"records\": %d, \"reps\": %d, \"arms\": [\n    %s\n  ]}\n}\n"
        (meta_json ~experiment:"P14" ~clock:Wall_and_virtual ())
        p14_params.Generator.services p14_params.Generator.conflict_density
        p14_params.Generator.activities_min p14_params.Generator.activities_max
        p14_params.Generator.subsystems n seed reps
        (String.concat ",\n    " (List.map arm_json measured))
        s_records s_reps
        (String.concat ",\n    " (List.map storage_json storage));
      close_out oc;
      Format.printf "@.wrote %s@." path);
  (measured, storage)

let p14_main args =
  let quick = ref false in
  let json = ref None in
  let min_throughput = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--min-throughput" :: x :: rest ->
        min_throughput := Some (float_of_string x);
        parse rest
    | arg :: _ -> failwith (Printf.sprintf "p14: unknown argument %S" arg)
  in
  parse args;
  let arms, storage = section_p14 ~quick:!quick ?json:!json () in
  ignore arms;
  match !min_throughput with
  | None -> ()
  | Some floor -> (
      (* perf-smoke gate on the fsync-bound storage axis: batched durable
         appends must stay above the floor and multiply the fsync-per-
         record throughput (the group-commit payoff itself) *)
      let tp_of label =
        List.find_opt (fun (l, _, _, _, _) -> l = label) storage
        |> Option.map (fun (_, _, _, _, tp) -> tp)
      in
      match (tp_of "batch 32", tp_of "batch 1") with
      | Some batched, Some each ->
          if batched < floor then begin
            Format.printf "P14 SMOKE FAILED: %.0f durable rec/s < floor %.0f@." batched
              floor;
            exit 1
          end
          else if batched < 2.0 *. each then begin
            Format.printf
              "P14 SMOKE FAILED: batched durable appends (%.0f rec/s) do not multiply \
               fsync-per-record (%.0f rec/s)@."
              batched each;
            exit 1
          end
          else
            Format.printf "P14 smoke ok: %.0f durable rec/s >= floor %.0f (%.1fx each)@."
              batched floor (batched /. each)
      | _ -> ())

(* P15: open-world serving under overload — saturation curves.  The
   offered load (open-loop Poisson arrivals per unit of virtual time) is
   swept across the server's capacity for each overload policy.  At every
   point the run must stay civilized: the shed-accounting invariant holds
   exactly, the queue is empty after drain, and every admitted process
   reaches a terminal state.  Goodput counts committed processes per unit
   of virtual time; admission latency is the virtual-time wait between a
   submission and its hand-off to the scheduler. *)

module Server = Tpm_server.Server

type p15_point = {
  s_policy : string;
  s_rate : float;
  s_offered : int;
  s_admitted : int;  (* preferred-branch admits *)
  s_degraded : int;
  s_rejected : int;
  s_expired : int;
  s_committed : int;
  s_goodput : float;  (* committed per unit virtual time *)
  s_shed_rate : float;  (* (rejected+expired) / offered *)
  s_p95_wait : float;  (* virtual-time admission wait, p95 *)
  s_p99_wait : float;
  s_ok : bool;  (* accounting exact, queue drained, scheduler finished *)
}

let p15_params =
  {
    Generator.default_params with
    services = 8;
    conflict_density = 0.4;
    alt_prob = 0.8;
    activities_min = 3;
    activities_max = 6;
  }

let p15_max_live = 4
let p15_queue_capacity = 8
let p15_deadline = 4.0
let p15_saturation = 2
let p15_seed = 7

let p15_knobs_json =
  Printf.sprintf
    "{\"max_live\": %d, \"queue_capacity\": %d, \"default_deadline\": %.1f, \
     \"saturation_limit\": %d, \"service_time\": 1.0, \"seed\": %d}"
    p15_max_live p15_queue_capacity p15_deadline p15_saturation p15_seed

let p15_run ~policy ~rate ~horizon =
  let seed = p15_seed in
  let spec = Generator.spec p15_params in
  let rms = Generator.rms p15_params ~seed () in
  let sched =
    Scheduler.create ~config:{ Scheduler.default_config with seed } ~spec ~rms ()
  in
  let srv =
    Server.create
      ~config:
        {
          Server.default_config with
          policy;
          max_live = p15_max_live;
          queue_capacity = p15_queue_capacity;
          default_deadline = p15_deadline;
          saturation_limit = p15_saturation;
        }
      sched
  in
  let script = Generator.arrivals p15_params ~seed:(seed * 100) ~rate ~horizon in
  Server.play srv script;
  Server.run srv;
  Server.drain srv;
  let c = Server.counters srv in
  let committed =
    List.length
      (List.filter
         (fun p -> Scheduler.status sched (Process.pid p) = Schedule.Committed)
         (Server.admitted_procs srv))
  in
  let m = Scheduler.metrics sched in
  {
    s_policy = Server.policy_label policy;
    s_rate = rate;
    s_offered = c.Server.offered;
    s_admitted = c.Server.admitted;
    s_degraded = c.Server.degraded;
    s_rejected = c.Server.rejected;
    s_expired = c.Server.expired;
    s_committed = committed;
    s_goodput = float_of_int committed /. horizon;
    s_shed_rate =
      (if c.Server.offered = 0 then 0.0
       else
         float_of_int (c.Server.rejected + c.Server.expired)
         /. float_of_int c.Server.offered);
    s_p95_wait = Metrics.hquantile m "srv_admission_wait" 0.95;
    s_p99_wait = Metrics.hquantile m "srv_admission_wait" 0.99;
    s_ok =
      Server.accounting_ok srv && Server.queue_depth srv = 0
      && Scheduler.finished sched;
  }

let section_p15 ?(quick = false) ?json () =
  section
    (if quick then "P15 — open-world serving under overload (quick)"
     else "P15 — open-world serving under overload: saturation curves");
  let loads = if quick then [ 2.0; 8.0; 16.0 ] else [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let horizon = if quick then 12.0 else 30.0 in
  let policies = [ Server.Reject; Server.Queue; Server.Degrade ] in
  let fnan f = if Float.is_nan f then "-" else Printf.sprintf "%.2f" f in
  let curves =
    List.map
      (fun policy ->
        let points =
          List.map
            (fun rate ->
              let p = p15_run ~policy ~rate ~horizon in
              Printf.eprintf "  [p15] %s load=%.1f: goodput %.2f, shed %.0f%%\n%!"
                p.s_policy rate p.s_goodput (100.0 *. p.s_shed_rate);
              p)
            loads
        in
        (Server.policy_label policy, points))
      policies
  in
  List.iter
    (fun (policy, points) ->
      Format.printf "@.policy %s (window %d, queue %d, deadline %.1f):@." policy
        p15_max_live p15_queue_capacity p15_deadline;
      print_table
        [ "offered/s"; "offered"; "admit"; "degrade"; "reject"; "expire";
          "committed"; "goodput/s"; "shed"; "p95 wait"; "p99 wait"; "ok" ]
        (List.map
           (fun p ->
             [
               Printf.sprintf "%.1f" p.s_rate; string_of_int p.s_offered;
               string_of_int p.s_admitted; string_of_int p.s_degraded;
               string_of_int p.s_rejected; string_of_int p.s_expired;
               string_of_int p.s_committed; Printf.sprintf "%.2f" p.s_goodput;
               Printf.sprintf "%.0f%%" (100.0 *. p.s_shed_rate);
               fnan p.s_p95_wait; fnan p.s_p99_wait;
               (if p.s_ok then "yes" else "NO");
             ])
           points))
    curves;
  Format.printf
    "@.shape: goodput climbs with offered load until the %d-deep admission window@."
    p15_max_live;
  Format.printf
    "saturates (multi-activity processes at unit service time under conflicts),@.";
  Format.printf
    "then plateaus while the shed rate absorbs the excess — the server degrades@.";
  Format.printf "by shedding, never by collapsing.@.";
  (match json with
  | None -> ()
  | Some path ->
      let jf f = if Float.is_nan f then "null" else Printf.sprintf "%.4f" f in
      let point_json p =
        Printf.sprintf
          "{\"offered_per_s\": %.2f, \"offered\": %d, \"admitted\": %d, \
           \"degraded\": %d, \"rejected\": %d, \"expired\": %d, \
           \"committed\": %d, \"goodput_per_s\": %.4f, \"shed_rate\": %.4f, \
           \"p95_wait\": %s, \"p99_wait\": %s, \"invariants_ok\": %b}"
          p.s_rate p.s_offered p.s_admitted p.s_degraded p.s_rejected p.s_expired
          p.s_committed p.s_goodput p.s_shed_rate (jf p.s_p95_wait)
          (jf p.s_p99_wait) p.s_ok
      in
      let curve_json (policy, points) =
        Printf.sprintf "{\"policy\": %S, \"points\": [\n      %s\n    ]}" policy
          (String.concat ",\n      " (List.map point_json points))
      in
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"P15 open-world serving under overload\",\n\
        \  \"meta\": %s,\n\
        \  \"workload\": {\"services\": %d, \"conflict_density\": %.2f, \
         \"activities\": \"%d-%d\", \"arrivals\": \"poisson\", \
         \"horizon\": %.1f, \"seed\": %d},\n\
        \  \"curves\": [\n    %s\n  ]\n}\n"
        (meta_json ~experiment:"P15" ~clock:Virtual ~knobs:p15_knobs_json ())
        p15_params.Generator.services p15_params.Generator.conflict_density
        p15_params.Generator.activities_min p15_params.Generator.activities_max
        horizon p15_seed
        (String.concat ",\n    " (List.map curve_json curves));
      close_out oc;
      Format.printf "@.wrote %s@." path);
  curves

let p15_main args =
  let quick = ref false in
  let json = ref None in
  let min_goodput = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--min-goodput" :: x :: rest ->
        min_goodput := Some (float_of_string x);
        parse rest
    | arg :: _ -> failwith (Printf.sprintf "p15: unknown argument %S" arg)
  in
  parse args;
  let curves = section_p15 ~quick:!quick ?json:!json () in
  (* the shed-accounting invariant and drain/termination must hold at
     every measured point, whatever the load *)
  let all_ok =
    List.for_all (fun (_, points) -> List.for_all (fun p -> p.s_ok) points) curves
  in
  if not all_ok then begin
    Format.printf "P15 SMOKE FAILED: invariant violation at some load point@.";
    exit 1
  end;
  match !min_goodput with
  | None -> ()
  | Some floor ->
      (* saturation gate: at the highest offered load (deep overload),
         every policy must still push at least [floor] committed
         processes per unit of virtual time — shedding, not collapsing *)
      List.iter
        (fun (policy, points) ->
          let worst =
            List.fold_left
              (fun acc p -> if p.s_rate >= 8.0 then min acc p.s_goodput else acc)
              infinity points
          in
          if worst < floor then begin
            Format.printf
              "P15 SMOKE FAILED: policy %s goodput %.2f/s under overload < floor \
               %.2f/s@."
              policy worst floor;
            exit 1
          end
          else
            Format.printf "P15 smoke ok: policy %s goodput %.2f/s >= floor %.2f/s@."
              policy worst floor)
        curves

(* ------------------------------------------------------------------ *)
(* P16 — domain-sharded admission: conflict-component sharding vs the
   single engine at scale.  The workload is clustered (8 conflict-disjoint
   service universes), so the partition is exact and the sharded runs are
   decision-equivalent to the single engine (test/test_shard.ml proves
   that); what this experiment measures is the end-to-end cost.  Two
   effects compound: per-shard admission works on a live set 8x smaller
   (the per-call cost is superlinear in component size), and every
   dispatch wake rescans only shard-local waiters instead of the whole
   world.  The [domains] axis adds hardware parallelism on top when cores
   exist — on a single-core host it is flat by construction, which the
   recorded [cores] field makes explicit. *)

type p16_point = {
  q_label : string;
  q_procs : int;
  q_buckets : int;
  q_domains : int;
  q_admissions : int;
  q_mean_us : float;
  q_p95_us : float;
  q_wall_s : float;
}

let p16_params =
  {
    Generator.default_params with
    services = 6;
    subsystems = 2;
    conflict_density = 0.35;
    activities_min = 3;
    activities_max = 6;
  }

let p16_clusters = 8
let p16_seed = 11
let p16_reps = 3
let p16_throughput p = float_of_int p.q_procs /. p.q_wall_s

let p16_run ?(engine = Scheduler.Incremental) ~shards ~domains ~n () =
  let spec, make_rms, procs, _ =
    Generator.clustered ~seed:p16_seed p16_params ~clusters:p16_clusters ~n
  in
  let items = List.mapi (fun i p -> (0.3 *. float_of_int i, p)) procs in
  let config =
    {
      Scheduler.default_config with
      seed = p16_seed;
      admission_engine = engine;
      admission_clock = Some Unix.gettimeofday;
    }
  in
  let w0 = Unix.gettimeofday () in
  let scheds = Shard.run_parallel ~shards ~domains ~config ~spec ~make_rms items in
  let wall = Unix.gettimeofday () -. w0 in
  List.iter
    (fun t ->
      if not (Scheduler.finished t) then failwith "p16: shard did not finish")
    scheds;
  let samples =
    List.concat_map
      (fun t -> Metrics.samples (Scheduler.metrics t) "admission_time")
      scheds
  in
  let k = List.length samples in
  let sorted = List.sort compare samples in
  let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int (max 1 k) in
  let p95 =
    if k = 0 then 0.0
    else List.nth sorted (min (k - 1) (int_of_float (0.95 *. float_of_int k)))
  in
  {
    q_label = (if shards <= 1 then "single" else "sharded");
    q_procs = n;
    q_buckets = List.length scheds;
    q_domains = domains;
    q_admissions =
      List.fold_left
        (fun acc t -> acc + Metrics.count (Scheduler.metrics t) "admissions")
        0 scheds;
    q_mean_us = 1e6 *. mean;
    q_p95_us = 1e6 *. p95;
    q_wall_s = wall;
  }

let section_p16 ?(quick = false) ?json () =
  section
    (if quick then "P16 — sharded admission, perf smoke (quick)"
     else "P16 — domain-sharded admission at scale");
  let measure ?engine ~shards ~domains ~n () =
    let p = p16_run ?engine ~shards ~domains ~n () in
    Printf.eprintf "  [p16] %s n=%d shards=%d domains=%d: %.1fs wall\n%!"
      p.q_label n shards domains p.q_wall_s;
    p
  in
  let cores = Domain.recommended_domain_count () in
  (* (shards, domains, procs) per arm *)
  let arms =
    if quick then
      (* oversubscribing domains on a small host only measures preemption;
         the quick profile sticks to domain counts the hardware backs *)
      [ (1, 1, 256); (p16_clusters, 1, 256); (p16_clusters, 1, 1024) ]
      @ if cores >= 2 then [ (p16_clusters, min 4 cores, 1024) ] else []
    else
      (* the single-engine baseline stops at 1024: its cost is superlinear
         in the live set (that is the experiment's point) and the curve is
         established; the sharded axis continues to 2048.  The domain axis
         is swept at the large scales even past the core count — the
         [cores] field in the JSON is the context for those points. *)
      List.concat_map
        (fun n ->
          (if n <= 1024 then [ (1, 1, n) ] else [])
          @ List.map
              (fun domains -> (p16_clusters, domains, n))
              (if n >= 1024 then [ 1; 2; 4; 8 ] else [ 1 ]))
        [ 64; 256; 1024; 2048 ]
  in
  (* every arm runs [p16_reps] times, the arms interleaved round by round
     so a load spike on a shared host hits all of them alike; each point
     is the arm's median-wall run (the 2-domain arm is bimodal on a
     2-vCPU host, so one run, or the best of several, is not a figure) *)
  let runs = Array.make (List.length arms) [] in
  for _ = 1 to p16_reps do
    List.iteri
      (fun i (shards, domains, n) -> runs.(i) <- measure ~shards ~domains ~n () :: runs.(i))
      arms
  done;
  let points =
    Array.to_list
      (Array.map
         (fun rs ->
           List.nth (List.sort (fun a b -> compare a.q_wall_s b.q_wall_s) rs) (p16_reps / 2))
         runs)
  in
  (* the differential oracle survives sharding and real domains: a checked
     arm at moderate scale, every admission of every shard cross-checked
     against the reference engine *)
  let checked_ok =
    match
      measure ~engine:Scheduler.Checked ~shards:p16_clusters ~domains:2 ~n:256 ()
    with
    | p -> p.q_buckets > 0
    | exception e ->
        Printf.eprintf "  [p16] checked arm FAILED: %s\n%!" (Printexc.to_string e);
        false
  in
  print_table
    [ "engine"; "procs"; "buckets"; "domains"; "admissions"; "mean us";
      "p95 us"; "wall s"; "procs/s" ]
    (List.map
       (fun p ->
         [
           p.q_label; string_of_int p.q_procs; string_of_int p.q_buckets;
           string_of_int p.q_domains; string_of_int p.q_admissions;
           f2 p.q_mean_us; f2 p.q_p95_us; f2 p.q_wall_s;
           Printf.sprintf "%.0f" (p16_throughput p);
         ])
       points);
  (* per arm: (procs, domains, median sharded / median single throughput) *)
  let speedups =
    List.concat_map
      (fun base ->
        if base.q_label <> "single" then []
        else
          List.filter_map
            (fun p ->
              if p.q_label = "sharded" && p.q_procs = base.q_procs then
                Some (p.q_procs, p.q_domains, p16_throughput p /. p16_throughput base)
              else None)
            points)
      points
  in
  List.iter
    (fun (n, d, s) ->
      Format.printf
        "e2e speedup, sharded (%d domain%s) vs single engine at %d procs: %.1fx (medians of %d)@."
        d (if d = 1 then "" else "s") n s p16_reps)
    speedups;
  Format.printf "checked arm (per-shard differential oracle, 2 domains): %s@."
    (if checked_ok then "ok" else "FAILED");
  (match json with
  | None -> ()
  | Some path ->
      let point_json p =
        Printf.sprintf
          "{\"engine\": %S, \"procs\": %d, \"buckets\": %d, \"domains\": %d, \
           \"admissions\": %d, \"mean_us\": %.3f, \"p95_us\": %.3f, \
           \"wall_s\": %.3f, \"throughput_per_s\": %.1f}"
          p.q_label p.q_procs p.q_buckets p.q_domains p.q_admissions p.q_mean_us
          p.q_p95_us p.q_wall_s (p16_throughput p)
      in
      let knobs =
        Printf.sprintf
          "{\"clusters\": %d, \"services_per_cluster\": %d, \
           \"conflict_density\": %.2f, \"activities\": \"%d-%d\", \
           \"seed\": %d, \"cores\": %d, \"reps\": %d}"
          p16_clusters p16_params.Generator.services
          p16_params.Generator.conflict_density p16_params.Generator.activities_min
          p16_params.Generator.activities_max p16_seed
          (Domain.recommended_domain_count ()) p16_reps
      in
      let speedup_json n =
        String.concat ", "
          (List.filter_map
             (fun (n', d, s) -> if n' = n then Some (Printf.sprintf "\"%d\": %.1f" d s) else None)
             speedups)
      in
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"P16 domain-sharded admission\",\n\
        \  \"meta\": %s,\n\
        \  \"workload\": %s,\n\
        \  \"points\": [\n    %s\n  ],\n\
        \  \"speedup_e2e_vs_single\": {%s},\n\
        \  \"checked_ok\": %b\n}\n"
        (meta_json ~experiment:"P16" ~clock:Wall ~knobs ())
        knobs
        (String.concat ",\n    " (List.map point_json points))
        (String.concat ", "
           (List.map
              (fun n -> Printf.sprintf "\"%d\": {%s}" n (speedup_json n))
              (List.sort_uniq compare (List.map (fun (n, _, _) -> n) speedups))))
        checked_ok;
      close_out oc;
      Format.printf "@.wrote %s@." path);
  (points, speedups, checked_ok)

let p16_main args =
  let quick = ref false in
  let json = ref None in
  let max_p95 = ref None in
  let min_speedup = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--max-p95-us" :: x :: rest ->
        max_p95 := Some (float_of_string x);
        parse rest
    | "--min-speedup" :: x :: rest ->
        min_speedup := Some (float_of_string x);
        parse rest
    | arg :: _ -> failwith (Printf.sprintf "p16: unknown argument %S" arg)
  in
  parse args;
  let points, speedups, checked_ok = section_p16 ~quick:!quick ?json:!json () in
  if not checked_ok then begin
    Format.printf "P16 SMOKE FAILED: per-shard differential oracle@.";
    exit 1
  end;
  (match !max_p95 with
  | None -> ()
  | Some cap ->
      let cores = Domain.recommended_domain_count () in
      List.iter
        (fun p ->
          (* domains beyond the core count measure preemption, not
             admission latency — the gate applies to backed configs *)
          if
            p.q_label = "sharded" && p.q_procs >= 1024 && p.q_domains <= cores
            && p.q_p95_us >= cap
          then begin
            Format.printf
              "P16 SMOKE FAILED: sharded p95 %.1fus at %d procs >= cap %.1fus@."
              p.q_p95_us p.q_procs cap;
            exit 1
          end)
        points;
      Format.printf "P16 smoke ok: sharded p95 under %.0fus at 1k procs@." cap);
  match !min_speedup with
  | None -> ()
  | Some floor -> (
      (* the one-domain arm at the largest scale with a baseline: the
         gain of sharding itself, not of the host's cores *)
      match List.rev (List.filter (fun (_, d, _) -> d = 1) speedups) with
      | [] ->
          Format.printf "P16 SMOKE FAILED: no single-engine baseline measured@.";
          exit 1
      | (n, _, s) :: _ ->
          if s < floor then begin
            Format.printf
              "P16 SMOKE FAILED: e2e speedup %.1fx at %d procs < floor %.1fx@." s
              n floor;
            exit 1
          end
          else
            Format.printf "P16 smoke ok: e2e speedup %.1fx at %d procs@." s n)

(* P17: buffer-pool paged store — larger-than-RAM behavior.  A dataset
   spanning many pages runs a mixed read/write stream through pools sized
   as fractions of the page count, over a real on-disk WAL with periodic
   fuzzy [Dirty_pages] snapshots.  Reported per pool size: hit rate,
   eviction and flush traffic, op throughput, then crash-recovery cost —
   wall time and how many log records the checkpoint-bounded redo plan
   replays vs. skips.  The bounded-redo oracle is always on: the rebuilt
   store must equal the full durable replay, and no replayed record may
   lie below the plan's own start bound. *)

module Bufpool = Tpm_kv.Bufpool
module Pager = Tpm_kv.Pager
module KvRecovery = Tpm_wal.Recovery

type p17_point = {
  b_label : string;  (* pool size as a fraction of the dataset's pages *)
  b_frames : int;
  b_pages : int;
  b_hit_rate : float;
  b_evictions : int;
  b_flushes : int;
  b_ops_s : float;
  b_recover_s : float;
  b_replayed : int;
  b_skipped : int;
  b_ok : bool;
}

let p17_rm = "bench"
let p17_page_size = 1024

let p17_value rng =
  Tpm_kv.Value.Text (String.init 48 (fun _ -> Char.chr (97 + Random.State.int rng 26)))

let p17_key i = Printf.sprintf "key%04d" i

let with_p17_dir f =
  let dir = Filename.temp_file "tpm_p17" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* the dataset's page count at a given page size: one warmup store with an
   unbounded pool, just to size the fraction axis *)
let p17_npages ~nkeys =
  with_p17_dir (fun dir ->
      let s =
        Tpm_kv.Store.create_paged ~frames:max_int ~page_size:p17_page_size
          (Filename.concat dir "probe.pages")
      in
      let rng = Random.State.make [| 0x17 |] in
      for i = 0 to nkeys - 1 do
        Tpm_kv.Store.set s (p17_key i) (p17_value rng)
      done;
      let pool = Option.get (Tpm_kv.Store.bufpool s) in
      let n = Pager.npages (Bufpool.pager pool) in
      Pager.close (Bufpool.pager pool);
      n)

let p17_run ~nkeys ~ops ~frames =
  with_p17_dir (fun dir ->
      let wal_path = Filename.concat dir "wal.log" in
      let page_path = Filename.concat dir "store.pages" in
      let wal = Wal.create ~path:wal_path ~sync:Wal.Sync_each () in
      let store = Tpm_kv.Store.create_paged ~frames ~page_size:p17_page_size page_path in
      Tpm_kv.Store.connect_wal store
        ~log:(fun key value ->
          Wal.append wal (Wal.Kv_write { rm = p17_rm; key; value });
          Wal.size wal)
        ~durable_lsn:(fun () -> (Wal.stats wal).Wal.durable_records)
        ~force_durable:(fun () -> ignore (Wal.sync wal));
      let rng = Random.State.make [| 0x1700 + frames |] in
      for i = 0 to nkeys - 1 do
        Tpm_kv.Store.set store (p17_key i) (p17_value rng)
      done;
      let pool = Option.get (Tpm_kv.Store.bufpool store) in
      let s0 = Bufpool.stats pool in
      (* measured phase: uniform 70/30 read/write stream with a fuzzy
         dirty-page snapshot every 500 ops (what a checkpoint logs) *)
      Gc.compact ();
      let w0 = Unix.gettimeofday () in
      for op = 1 to ops do
        let key = p17_key (Random.State.int rng nkeys) in
        if Random.State.int rng 10 < 3 then Tpm_kv.Store.set store key (p17_value rng)
        else ignore (Tpm_kv.Store.get store key);
        if op mod 500 = 0 then
          Wal.append wal
            (Wal.Dirty_pages { rm = p17_rm; pages = Bufpool.dirty_page_table pool })
      done;
      let wall = Unix.gettimeofday () -. w0 in
      let s1 = Bufpool.stats pool in
      let npages = Pager.npages (Bufpool.pager pool) in
      (* crash: freeze the pool, then rebuild from page file + durable log *)
      Tpm_kv.Store.freeze store;
      Wal.close wal;
      Pager.close (Bufpool.pager pool);
      let image = (Wal.load wal_path).Wal.records in
      let plan = KvRecovery.kv_redo ~rm:p17_rm image in
      let r0 = Unix.gettimeofday () in
      let recovered, anomalies = Tpm_kv.Store.open_paged ~frames:max_int page_path in
      let bound_ok = ref (anomalies = []) in
      List.iter
        (fun (lsn, key, v) ->
          if lsn < plan.KvRecovery.start_lsn then bound_ok := false;
          Tpm_kv.Store.redo recovered ~lsn key v)
        plan.KvRecovery.ops;
      let recover_s = Unix.gettimeofday () -. r0 in
      let twin = Tpm_kv.Store.create () in
      List.iteri
        (fun i r ->
          match r with
          | Wal.Kv_write { rm; key; value } when String.equal rm p17_rm ->
              Tpm_kv.Store.redo twin ~lsn:(i + 1) key value
          | _ -> ())
        image;
      let ok = !bound_ok && Tpm_kv.Store.equal_state recovered twin in
      let skipped = ref 0 in
      List.iteri
        (fun i r ->
          match r with
          | Wal.Kv_write { rm; _ }
            when String.equal rm p17_rm && i + 1 < plan.KvRecovery.start_lsn ->
              incr skipped
          | _ -> ())
        image;
      (match Tpm_kv.Store.bufpool recovered with
      | Some p -> Pager.close (Bufpool.pager p)
      | None -> ());
      let hits = s1.Bufpool.hits - s0.Bufpool.hits in
      let misses = s1.Bufpool.misses - s0.Bufpool.misses in
      {
        b_label = "";
        b_frames = frames;
        b_pages = npages;
        b_hit_rate =
          (if hits + misses = 0 then 1.0
           else float_of_int hits /. float_of_int (hits + misses));
        b_evictions = s1.Bufpool.evictions - s0.Bufpool.evictions;
        b_flushes = s1.Bufpool.flushes - s0.Bufpool.flushes;
        b_ops_s = (if wall <= 0.0 then 0.0 else float_of_int ops /. wall);
        b_recover_s = recover_s;
        b_replayed = List.length plan.KvRecovery.ops;
        b_skipped = !skipped;
        b_ok = ok;
      })

(* the Tx read-set guard: one transaction reading [reads] distinct keys.
   The read set is tracked per read, so this is quadratic if the tracking
   regresses to a membership scan — the floor below catches that. *)
let p17_tx_reads ~reads =
  let store = Tpm_kv.Store.create () in
  for i = 0 to reads - 1 do
    Tpm_kv.Store.set store (Printf.sprintf "r%06d" i) (Tpm_kv.Value.Int i)
  done;
  Gc.compact ();
  let w0 = Unix.gettimeofday () in
  let tx = Tpm_kv.Tx.begin_ store in
  for i = 0 to reads - 1 do
    ignore (Tpm_kv.Tx.get tx (Printf.sprintf "r%06d" i))
  done;
  let n = List.length (Tpm_kv.Tx.read_set tx) in
  let wall = Unix.gettimeofday () -. w0 in
  Tpm_kv.Tx.abort tx;
  assert (n = reads);
  if wall <= 0.0 then infinity else float_of_int reads /. wall

let section_p17 ?(quick = false) ?json () =
  section
    (if quick then "P17 — buffer-pool paged store (quick scales)"
     else "P17 — buffer-pool paged store: larger-than-RAM datasets");
  let nkeys = if quick then 240 else 600 in
  let ops = if quick then 1500 else 4000 in
  let reads = if quick then 8_000 else 20_000 in
  let npages = p17_npages ~nkeys in
  let fractions =
    [ ("1/8", 0.125); ("1/4", 0.25); ("1/2", 0.5); ("1x", 1.0); ("2x", 2.0) ]
  in
  let points =
    List.map
      (fun (label, frac) ->
        let frames = max 1 (int_of_float (frac *. float_of_int npages)) in
        let p = { (p17_run ~nkeys ~ops ~frames) with b_label = label } in
        Printf.eprintf "  [p17] pool=%s (%d frames): hit %.0f%%, recover %.3fs\n%!" label
          frames (100.0 *. p.b_hit_rate) p.b_recover_s;
        p)
      fractions
  in
  print_table
    [ "pool"; "frames"; "pages"; "hit rate"; "evictions"; "flushes"; "ops/s";
      "recover s"; "replayed"; "skipped"; "ok" ]
    (List.map
       (fun p ->
         [
           p.b_label; string_of_int p.b_frames; string_of_int p.b_pages;
           pct p.b_hit_rate; string_of_int p.b_evictions; string_of_int p.b_flushes;
           Printf.sprintf "%.0f" p.b_ops_s; Printf.sprintf "%.4f" p.b_recover_s;
           string_of_int p.b_replayed; string_of_int p.b_skipped;
           (if p.b_ok then "yes" else "NO");
         ])
       points);
  Format.printf "With the pool a fraction of the dataset the store pages: hit rate and@.";
  Format.printf "throughput fall, eviction writeback rises, and recovery replays only@.";
  Format.printf "the records past the last dirty-page snapshot's bound.@.";
  let tx_rate = p17_tx_reads ~reads in
  Format.printf "@.Tx read-set: %d reads in one transaction, %.0f reads/s@." reads tx_rate;
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"P17 buffer-pool paged store\",\n  \"meta\": %s,\n\
        \  \"knobs\": {\"page_size\": %d, \"keys\": %d, \"dataset_pages\": %d, \
         \"ops\": %d, \"tx_reads\": %d},\n\
        \  \"pool_axis\": [\n    %s\n  ],\n\
        \  \"tx_read_axis\": {\"reads\": %d, \"reads_per_s\": %.1f}\n}\n"
        (meta_json ~experiment:"P17" ~clock:Wall ())
        p17_page_size nkeys npages ops reads
        (String.concat ",\n    "
           (List.map
              (fun p ->
                Printf.sprintf
                  "{\"pool\": %S, \"frames\": %d, \"pages\": %d, \"hit_rate\": %.4f, \
                   \"evictions\": %d, \"flushes\": %d, \"ops_per_s\": %.1f, \
                   \"recover_s\": %.4f, \"replayed\": %d, \"skipped\": %d, \"ok\": %b}"
                  p.b_label p.b_frames p.b_pages p.b_hit_rate p.b_evictions p.b_flushes
                  p.b_ops_s p.b_recover_s p.b_replayed p.b_skipped p.b_ok)
              points))
        reads tx_rate;
      close_out oc;
      Format.printf "@.JSON written to %s@." path);
  (points, tx_rate)

let p17_main args =
  let quick = ref false in
  let json = ref None in
  let min_hit_rate = ref None in
  let min_tx_reads = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--min-hit-rate" :: x :: rest ->
        min_hit_rate := Some (float_of_string x);
        parse rest
    | "--min-tx-reads" :: x :: rest ->
        min_tx_reads := Some (float_of_string x);
        parse rest
    | arg :: _ -> failwith (Printf.sprintf "p17: unknown argument %S" arg)
  in
  parse args;
  let points, tx_rate = section_p17 ~quick:!quick ?json:!json () in
  (* always-on: the bounded-redo oracle holds at every pool size *)
  List.iter
    (fun p ->
      if not p.b_ok then begin
        Format.printf "P17 SMOKE FAILED: bounded-redo oracle at pool %s@." p.b_label;
        exit 1
      end)
    points;
  (match !min_hit_rate with
  | None -> ()
  | Some floor -> (
      (* a pool at least as large as the working set must stop paging *)
      match List.find_opt (fun p -> p.b_frames >= p.b_pages) points with
      | None ->
          Format.printf "P17 SMOKE FAILED: no pool >= dataset measured@.";
          exit 1
      | Some p ->
          if p.b_hit_rate < floor then begin
            Format.printf "P17 SMOKE FAILED: hit rate %.3f at pool %s < floor %.3f@."
              p.b_hit_rate p.b_label floor;
            exit 1
          end
          else
            Format.printf "P17 smoke ok: hit rate %.3f at pool %s >= floor %.3f@."
              p.b_hit_rate p.b_label floor));
  match !min_tx_reads with
  | None -> ()
  | Some floor ->
      if tx_rate < floor then begin
        Format.printf "P17 SMOKE FAILED: %.0f tx reads/s < floor %.0f@." tx_rate floor;
        exit 1
      end
      else Format.printf "P17 smoke ok: %.0f tx reads/s >= floor %.0f@." tx_rate floor

(* ------------------------------------------------------------------ *)
(* P18 — PRED vs. classical concurrency control (strict 2PL, TSO) and
   the Section 3.6 weak order, across conflict densities.  All four arms
   run the same generated workloads over the same Rm substrate on the
   virtual clock: the paper's process-aware scheduler (Deferred mode)
   against real classical activity schedulers that treat a whole process
   as one transaction, plus PRED with the enforced weak order — the
   parallelism multiplier of overlapping conflicting local transactions
   under subsystem-enforced commit orders. *)

type p18_point = {
  e_arm : string;
  e_density : float;
  e_makespan : float;
  e_committed : int;
  e_aborted : int;
  e_throughput : float;  (* committed processes per unit virtual time *)
  e_abort_rate : float;
  e_compensations : int;
  e_restarts : int;  (* whole-process rollback+restart events (classical) *)
  e_local_restarts : int;  (* retriable local re-invocations (weak order) *)
}

let p18_fail = 0.10
let p18_horizon = 100000.0

(* a tight transient budget (2 attempts before degradation) so injected
   failures actually reach the degradation/abort paths — and, under the
   weak order, the retriable re-invocation of dependent locals *)
let p18_backoff = { Scheduler.default_backoff with max_attempts = Some 2 }

let p18_params density =
  {
    Generator.default_params with
    activities_min = 4;
    activities_max = 7;
    services = 6;
    subsystems = 3;
    conflict_density = density;
  }

let p18_zero label density =
  {
    e_arm = label;
    e_density = density;
    e_makespan = 0.0;
    e_committed = 0;
    e_aborted = 0;
    e_throughput = 0.0;
    e_abort_rate = 0.0;
    e_compensations = 0;
    e_restarts = 0;
    e_local_restarts = 0;
  }

let p18_add a b =
  {
    a with
    e_makespan = a.e_makespan +. b.e_makespan;
    e_committed = a.e_committed + b.e_committed;
    e_aborted = a.e_aborted + b.e_aborted;
    e_compensations = a.e_compensations + b.e_compensations;
    e_restarts = a.e_restarts + b.e_restarts;
    e_local_restarts = a.e_local_restarts + b.e_local_restarts;
  }

let p18_finalize ~n_total p =
  {
    p with
    e_throughput = (if p.e_makespan > 0.0 then float_of_int p.e_committed /. p.e_makespan else 0.0);
    e_abort_rate = float_of_int p.e_aborted /. float_of_int n_total;
  }

let p18_pred ~label ~config ~density ~seed ~n =
  let params = p18_params density in
  let rms = Generator.rms params ~fail_prob:(fun _ -> p18_fail) ~seed () in
  let spec = Generator.spec params in
  let t =
    Scheduler.create
      ~config:{ config with Scheduler.seed; backoff = p18_backoff }
      ~spec ~rms ()
  in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.1 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 100) params ~n);
  Scheduler.run ~until:p18_horizon t;
  if not (Scheduler.finished t) then
    failwith (Printf.sprintf "p18: %s density=%.2f seed=%d did not finish" label density seed);
  let m = Scheduler.metrics t in
  {
    (p18_zero label density) with
    e_makespan = Scheduler.now t;
    e_committed = Metrics.count m "committed";
    e_aborted = Metrics.count m "aborted";
    e_compensations = Metrics.count m "compensations";
    e_local_restarts = Metrics.count m "local_restarts";
  }

let p18_classical ~kind ~label ~density ~seed ~n =
  let params = p18_params density in
  let rms = Generator.rms params ~fail_prob:(fun _ -> p18_fail) ~seed () in
  let spec = Generator.spec params in
  let procs = Generator.batch ~seed:(seed * 100) params ~n in
  let r =
    Baseline.run kind ~spec ~rms ~horizon:p18_horizon
      ~submit_at:(fun i -> 0.1 *. float_of_int i)
      procs
  in
  if not r.Baseline.finished then
    failwith (Printf.sprintf "p18: %s density=%.2f seed=%d did not finish" label density seed);
  {
    (p18_zero label density) with
    e_makespan = r.Baseline.makespan;
    e_committed = r.Baseline.committed;
    e_aborted = r.Baseline.aborted;
    e_compensations = r.Baseline.compensations;
    e_restarts = r.Baseline.restarts;
  }

let p18_weak_config = { Scheduler.default_config with order = Scheduler.Weak }

let p18_row p =
  [
    p.e_arm;
    Printf.sprintf "%.2f" p.e_density;
    Printf.sprintf "%.1f" p.e_makespan;
    string_of_int p.e_committed;
    string_of_int p.e_aborted;
    Printf.sprintf "%.4f" p.e_throughput;
    Printf.sprintf "%.3f" p.e_abort_rate;
    string_of_int p.e_compensations;
    string_of_int p.e_restarts;
    string_of_int p.e_local_restarts;
  ]

let p18_json_point p =
  Printf.sprintf
    "{\"arm\": %S, \"conflict_density\": %.2f, \"makespan\": %.2f, \"committed\": %d, \
     \"aborted\": %d, \"throughput\": %.5f, \"abort_rate\": %.4f, \"compensations\": %d, \
     \"process_restarts\": %d, \"local_restarts\": %d}"
    p.e_arm p.e_density p.e_makespan p.e_committed p.e_aborted p.e_throughput p.e_abort_rate
    p.e_compensations p.e_restarts p.e_local_restarts

let section_p18 ?(quick = false) ?json () =
  section
    (if quick then "P18 — PRED vs classical baselines, smoke scales"
     else "P18 — PRED vs strict 2PL / TSO, and the weak-order multiplier");
  let densities = [ 0.1; 0.3; 0.6 ] in
  let seeds = if quick then [ 11; 12 ] else [ 11; 12; 13 ] in
  let n = if quick then 12 else 24 in
  let n_total = n * List.length seeds in
  let arm label runner density =
    p18_finalize ~n_total
      (List.fold_left
         (fun acc seed -> p18_add acc (runner ~density ~seed ~n))
         (p18_zero label density) seeds)
  in
  let points =
    List.concat_map
      (fun density ->
        let pred =
          arm "pred" (p18_pred ~label:"pred" ~config:Scheduler.default_config) density
        in
        let weak =
          arm "pred+weak" (p18_pred ~label:"pred+weak" ~config:p18_weak_config) density
        in
        let tpl =
          arm "2pl" (p18_classical ~kind:Baseline.Two_pl ~label:"2pl") density
        in
        let tso = arm "tso" (p18_classical ~kind:Baseline.Tso ~label:"tso") density in
        Printf.eprintf "  [p18] density %.2f done\n%!" density;
        [ pred; weak; tpl; tso ])
      densities
  in
  print_table
    [ "arm"; "density"; "makespan"; "committed"; "aborted"; "throughput"; "abort rate";
      "compens"; "restarts"; "local restarts" ]
    (List.map p18_row points);
  let find arm density =
    List.find (fun p -> p.e_arm = arm && p.e_density = density) points
  in
  (* the weak-order parallelism multiplier: same scheduler, same
     workloads; the only delta is overlapping conflicting locals under
     subsystem-enforced commit orders *)
  let speedups =
    List.map
      (fun d -> (d, (find "pred" d).e_makespan /. (find "pred+weak" d).e_makespan))
      densities
  in
  Format.printf "@.weak-order parallelism multiplier (PRED makespan / PRED+weak makespan):@.";
  List.iter
    (fun (d, s) -> Format.printf "  density %.2f: %.2fx@." d s)
    speedups;
  let d_hi = List.fold_left max 0.0 densities in
  let weak_hi = find "pred+weak" d_hi in
  Format.printf
    "@.at density %.2f: pred+weak throughput %.4f vs 2PL %.4f vs TSO %.4f; %d local \
     restarts over the bench@."
    d_hi weak_hi.e_throughput (find "2pl" d_hi).e_throughput (find "tso" d_hi).e_throughput
    (List.fold_left (fun acc p -> acc + p.e_local_restarts) 0 points);
  Format.printf
    "shape: the classical schedulers hold whole-process footprints — locks (2PL) or@.";
  Format.printf
    "timestamp windows (TSO) — so rising conflict density turns into blocking and@.";
  Format.printf
    "whole-process restarts.  PRED admits at activity granularity, and the weak@.";
  Format.printf
    "order overlaps even conflicting locals, re-invoking (not restarting) on a@.";
  Format.printf "predecessor abort.@.";
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"P18 PRED vs classical baselines\",\n\
        \  \"meta\": %s,\n\
        \  \"workload\": {\"services\": 8, \"subsystems\": 3, \"activities\": \"3-6\", \
         \"procs_per_seed\": %d, \"seeds\": %d, \"fail_prob\": %.2f},\n\
        \  \"arms\": [\n    %s\n  ],\n\
        \  \"weak_order_speedup\": {%s}\n}\n"
        (meta_json ~experiment:"P18" ~clock:Virtual ())
        n (List.length seeds) p18_fail
        (String.concat ",\n    " (List.map p18_json_point points))
        (String.concat ", "
           (List.map (fun (d, s) -> Printf.sprintf "\"%.2f\": %.3f" d s) speedups));
      close_out oc;
      Format.printf "@.wrote %s@." path);
  (points, speedups)

let p18_main args =
  let quick = ref false in
  let json = ref None in
  let min_weak_speedup = ref None in
  let check_baselines = ref false in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--json" :: path :: rest ->
        json := Some path;
        go rest
    | "--min-weak-speedup" :: v :: rest ->
        min_weak_speedup := Some (float_of_string v);
        go rest
    | "--check-baselines" :: rest ->
        check_baselines := true;
        go rest
    | arg :: _ -> failwith (Printf.sprintf "p18: unknown argument %S" arg)
  in
  go args;
  let points, speedups = section_p18 ~quick:!quick ?json:!json () in
  let d_hi = List.fold_left (fun acc (d, _) -> max acc d) 0.0 speedups in
  let hi_speedup = List.assoc d_hi speedups in
  let total_local_restarts =
    List.fold_left (fun acc p -> acc + p.e_local_restarts) 0 points
  in
  (match !min_weak_speedup with
  | None -> ()
  | Some floor ->
      if hi_speedup < floor then begin
        Format.printf "P18 SMOKE FAILED: weak-order speedup %.2fx < floor %.2fx at density %.2f@."
          hi_speedup floor d_hi;
        exit 1
      end
      else
        Format.printf "P18 smoke ok: weak-order speedup %.2fx >= floor %.2fx at density %.2f@."
          hi_speedup floor d_hi);
  if !check_baselines then begin
    let find arm = List.find (fun p -> p.e_arm = arm && p.e_density = d_hi) points in
    let weak = find "pred+weak" and tpl = find "2pl" and tso = find "tso" in
    if weak.e_throughput <= tpl.e_throughput || weak.e_throughput <= tso.e_throughput
    then begin
      Format.printf
        "P18 SMOKE FAILED: pred+weak throughput %.4f must beat 2PL %.4f and TSO %.4f at \
         density %.2f@."
        weak.e_throughput tpl.e_throughput tso.e_throughput d_hi;
      exit 1
    end;
    if total_local_restarts = 0 then begin
      Format.printf "P18 SMOKE FAILED: no retriable local re-invocations observed@.";
      exit 1
    end;
    Format.printf
      "P18 smoke ok: pred+weak %.4f > 2PL %.4f, > TSO %.4f at density %.2f; %d local \
       restarts@."
      weak.e_throughput tpl.e_throughput tso.e_throughput d_hi total_local_restarts
  end

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "p11" then begin
    Format.printf "Transactional Process Management — experiment harness@.";
    p11_main (List.tl (List.tl (Array.to_list Sys.argv)));
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "p12" then begin
    Format.printf "Transactional Process Management — experiment harness@.";
    p12_main (List.tl (List.tl (Array.to_list Sys.argv)));
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "p14" then begin
    Format.printf "Transactional Process Management — experiment harness@.";
    p14_main (List.tl (List.tl (Array.to_list Sys.argv)));
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "p15" then begin
    Format.printf "Transactional Process Management — experiment harness@.";
    p15_main (List.tl (List.tl (Array.to_list Sys.argv)));
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "p16" then begin
    Format.printf "Transactional Process Management — experiment harness@.";
    p16_main (List.tl (List.tl (Array.to_list Sys.argv)));
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "p17" then begin
    Format.printf "Transactional Process Management — experiment harness@.";
    p17_main (List.tl (List.tl (Array.to_list Sys.argv)));
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "p18" then begin
    Format.printf "Transactional Process Management — experiment harness@.";
    p18_main (List.tl (List.tl (Array.to_list Sys.argv)));
    exit 0
  end;
  Format.printf "Transactional Process Management — experiment harness@.";
  Format.printf "(reproduction of Schuldt, Alonso, Schek: PODS'99)@.";
  let ok = section_e () in
  section_p1 ();
  section_p2 ();
  section_p3 ();
  section_p4 ();
  section_p5 ();
  section_p6 ();
  section_p7 ();
  section_p8 ();
  section_p9 ();
  section_p10 ();
  ignore (section_p11 ~json:"bench/BENCH_P11.json" ());
  ignore (section_p12 ~json:"bench/BENCH_P12.json" ());
  ignore (section_p14 ~json:"bench/BENCH_P14.json" ());
  ignore (section_p15 ~json:"bench/BENCH_P15.json" ());
  ignore (section_p16 ~json:"bench/BENCH_P16.json" ());
  ignore (section_p17 ~json:"bench/BENCH_P17.json" ());
  ignore (section_p18 ~json:"bench/BENCH_P18.json" ());
  Format.printf "@.%s@." rule;
  Format.printf "scenario reproduction: %s@." (if ok then "ALL REPRODUCED" else "FAILURES ABOVE");
  if not ok then exit 1
