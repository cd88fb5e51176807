(* Integration tests of the online PRED scheduler, including the CIM
   scenario of figure 1 (experiment E9). *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Cim = Tpm_workload.Cim
module Generator = Tpm_workload.Generator
module Rm = Tpm_subsys.Rm
module Store = Tpm_kv.Store
module Value = Tpm_kv.Value

let check = Alcotest.check

let cim_setup ?(fail_prob = fun _ -> 0.0) ?(config = Scheduler.default_config) part =
  let parts = [ part ] in
  let rms = Cim.rms ~parts ~fail_prob () in
  let spec = Cim.spec ~parts in
  let t = Scheduler.create ~config ~spec ~rms () in
  (t, rms)

let find_rm rms name = List.find (fun rm -> Rm.name rm = name) rms

let event_pos s pred =
  let rec go i = function
    | [] -> None
    | ev :: rest -> if pred ev then Some i else go (i + 1) rest
  in
  go 0 (Schedule.events s)

let test_single_process_happy () =
  let t, rms = cim_setup "p1" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"p1");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "committed" true (Scheduler.status t 1 = Schedule.Committed);
  let h = Scheduler.history t in
  check Alcotest.bool "history legal" true (Schedule.legal h);
  check Alcotest.bool "history PRED" true (Criteria.pred h);
  let pdm = find_rm rms "pdm" in
  check Alcotest.bool "BOM written" true (Store.get (Rm.store pdm) "bom:p1" <> Value.Nil)

(* E9 — figure 1: construction and production in parallel.  The PRED
   scheduler must defer the production pivot until the construction
   process committed (paper, end of Section 3.5). *)
let test_cim_parallel_correct () =
  (* a slow technical documentation keeps the construction process alive
     while production catches up, exercising the deferred produce commit *)
  let config =
    {
      Scheduler.default_config with
      service_time = (fun s -> if s = "tech_doc:boiler" then 5.0 else 1.0);
    }
  in
  let t, rms = cim_setup ~config "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  (* submitted after the BOM exists, so the conflict is ordered P1 -> P2 *)
  Scheduler.submit t ~at:2.5 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "construction committed" true (Scheduler.status t 1 = Schedule.Committed);
  check Alcotest.bool "production committed" true (Scheduler.status t 2 = Schedule.Committed);
  let h = Scheduler.history t in
  check Alcotest.bool "history legal" true (Schedule.legal h);
  check Alcotest.bool "history serializable" true (Criteria.serializable h);
  check Alcotest.bool "history PRED" true (Criteria.pred h);
  (* the produce activity must not commit before C_1 *)
  let produce_pos =
    event_pos h (function
      | Schedule.Act (Activity.Forward a) -> a.Activity.service = "produce:boiler"
      | _ -> false)
  in
  let c1_pos = event_pos h (function Schedule.Commit 1 -> true | _ -> false) in
  (match (produce_pos, c1_pos) with
  | Some pp, Some cp ->
      check Alcotest.bool "produce commits after construction's commit" true (pp > cp)
  | _ -> Alcotest.fail "expected produce and C_1 in history");
  let productdb = find_rm rms "productdb" in
  check Alcotest.bool "part produced" true
    (Store.get (Rm.store productdb) "produced:boiler" = Value.Int 1)

(* Section 2.2: the construction test fails; the PDM entry is compensated
   and the production process — which read the BOM — must cascade. *)
let test_cim_test_failure_cascades () =
  (* the test activity is slow and fails only after production has read
     the BOM — the situation of Section 2.2 *)
  let config =
    {
      Scheduler.default_config with
      service_time = (fun s -> if s = "test:boiler" then 3.0 else 1.0);
    }
  in
  let t, rms =
    cim_setup ~config
      ~fail_prob:(fun s -> if s = "test:boiler" then 1.0 else 0.0)
      "boiler"
  in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.submit t ~at:2.2 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  (* construction terminates through its alternative (doc_drawing) *)
  check Alcotest.bool "construction committed via alternative" true
    (Scheduler.status t 1 = Schedule.Committed);
  (* production must not have produced anything *)
  check Alcotest.bool "production aborted" true (Scheduler.status t 2 = Schedule.Aborted);
  let h = Scheduler.history t in
  check Alcotest.bool "history legal" true (Schedule.legal h);
  check Alcotest.bool "history RED" true (Criteria.red h);
  let pdm = find_rm rms "pdm" in
  let productdb = find_rm rms "productdb" in
  let bizapp = find_rm rms "bizapp" in
  check Alcotest.bool "BOM compensated" true (Store.get (Rm.store pdm) "bom:boiler" = Value.Nil);
  check Alcotest.bool "nothing produced" true
    (Store.get (Rm.store productdb) "produced:boiler" = Value.Nil);
  check Alcotest.bool "material order cancelled" true
    (Store.get (Rm.store bizapp) "order:boiler" = Value.Nil);
  let docrepo = find_rm rms "docrepo" in
  check Alcotest.bool "drawing documented for reuse" true
    (Store.get (Rm.store docrepo) "drawing_doc:boiler" <> Value.Nil)

let test_cim_conservative_mode () =
  let config = { Scheduler.default_config with mode = Scheduler.Conservative } in
  let t, _ = cim_setup ~config "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.submit t ~at:0.5 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "both committed" true
    (Scheduler.status t 1 = Schedule.Committed && Scheduler.status t 2 = Schedule.Committed);
  check Alcotest.bool "history PRED" true (Criteria.pred (Scheduler.history t))

let test_deferred_overlaps_pivot_execution () =
  (* deferred mode lets the production pivot *execute* while construction
     is still running, committing it at 2PC time: makespan must not exceed
     the conservative one *)
  let run config =
    let t, _ = cim_setup ~config "boiler" in
    Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
    Scheduler.submit t ~args_of:Cim.args_of (Cim.production ~pid:2 ~part:"boiler");
    Scheduler.run t;
    check Alcotest.bool "finished" true (Scheduler.finished t);
    Scheduler.now t
  in
  let t_deferred = run { Scheduler.default_config with mode = Scheduler.Deferred } in
  let t_conservative = run { Scheduler.default_config with mode = Scheduler.Conservative } in
  check Alcotest.bool "deferred is at least as fast" true (t_deferred <= t_conservative)

let test_independent_parts_parallel () =
  (* processes on distinct parts do not conflict: full parallelism *)
  let parts = [ "a"; "b"; "c"; "d" ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let t = Scheduler.create ~spec ~rms () in
  List.iteri
    (fun i part ->
      Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:(i + 1) ~part))
    parts;
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  (* each construction takes 4 unit steps; with no conflicts the makespan
     equals one process's critical path *)
  check (Alcotest.float 0.001) "makespan equals critical path" 4.0 (Scheduler.now t);
  check Alcotest.bool "history PRED" true (Criteria.pred (Scheduler.history t))

let test_stall_resolution () =
  (* two processes with crossing conflicts: the scheduler must abort one
     victim instead of deadlocking *)
  let params =
    { Generator.default_params with services = 2; conflict_density = 1.0; subsystems = 1 }
  in
  let rms = Generator.rms params () in
  let spec = Generator.spec params in
  let mk pid s1 s2 =
    Process.make_exn ~pid
      ~activities:
        [
          Activity.make ~proc:pid ~act:1 ~service:s1 ~kind:Activity.Compensatable
            ~subsystem:"ss0" ();
          Activity.make ~proc:pid ~act:2 ~service:s2 ~kind:Activity.Compensatable
            ~subsystem:"ss0" ();
        ]
      ~prec:[ (1, 2) ] ~pref:[]
  in
  let t = Scheduler.create ~spec ~rms () in
  Scheduler.submit t (mk 1 "svc0" "svc1");
  Scheduler.submit t (mk 2 "svc1" "svc0");
  Scheduler.run t;
  check Alcotest.bool "finished despite crossing conflicts" true (Scheduler.finished t);
  check Alcotest.bool "at least one committed" true
    (Scheduler.status t 1 = Schedule.Committed || Scheduler.status t 2 = Schedule.Committed);
  let h = Scheduler.history t in
  check Alcotest.bool "history legal" true (Schedule.legal h);
  check Alcotest.bool "history RED" true (Criteria.red h)

let test_external_abort_b_rec () =
  let t, rms = cim_setup "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.production ~pid:2 ~part:"boiler");
  (* abort while the process is still compensatable (before produce at
     t=5): all effects must vanish *)
  Scheduler.request_abort t ~at:2.5 2;
  Scheduler.run t;
  check Alcotest.bool "aborted" true (Scheduler.status t 2 = Schedule.Aborted);
  let bizapp = find_rm rms "bizapp" in
  check Alcotest.bool "order gone" true (Store.get (Rm.store bizapp) "order:boiler" = Value.Nil);
  check Alcotest.bool "history RED" true (Criteria.red (Scheduler.history t))

let test_external_abort_f_rec_commits_forward () =
  let t, rms = cim_setup "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  (* abort after the pivot (test commits at t=3): forward recovery *)
  Scheduler.request_abort t ~at:3.5 1;
  Scheduler.run t;
  check Alcotest.bool "terminates committing (F-REC)" true
    (Scheduler.status t 1 = Schedule.Committed);
  let docrepo = find_rm rms "docrepo" in
  check Alcotest.bool "forward path executed" true
    (Store.get (Rm.store docrepo) "techdoc:boiler" <> Value.Nil)

(* An abort request is honoured whenever it arrives.  With the test
   failing every attempt, construction switches to its alternative
   branch at vt 50.5: pdm_entry is compensated until 51.5.  A request in
   that window (50.75, 51.25) waits for the switch and then aborts the
   process, which is B-REC on the alternative; one after it (51.75) finds
   the process running again.  Either way it ends aborted. *)
let test_abort_during_branch_switch () =
  List.iter
    (fun at ->
      let t, rms =
        cim_setup ~fail_prob:(fun s -> if s = "test:boiler" then 1.0 else 0.0) "boiler"
      in
      Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
      Scheduler.request_abort t ~at 1;
      Scheduler.run t;
      let what = Printf.sprintf "request at %.2f" at in
      check Alcotest.bool (what ^ ": aborted") true (Scheduler.status t 1 = Schedule.Aborted);
      check Alcotest.int (what ^ ": one abort request") 1
        (Tpm_sim.Metrics.count (Scheduler.metrics t) "abort_requests");
      check Alcotest.bool (what ^ ": CAD drawing gone") true
        (Store.get (Rm.store (find_rm rms "cad")) "drawing:boiler" = Value.Nil);
      check Alcotest.bool (what ^ ": history PRED") true (Criteria.pred (Scheduler.history t)))
    [ 50.75; 51.25; 51.75 ]

let test_random_workload_pred () =
  (* a mixed random workload must terminate with a legal PRED history *)
  let params = { Generator.default_params with services = 8; conflict_density = 0.3 } in
  let rms = Generator.rms params () in
  let spec = Generator.spec params in
  let t = Scheduler.create ~spec ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch params ~n:6);
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "PRED" true (Criteria.pred h);
  (* the protocol additionally enforces full Proc-REC (Definition 11) *)
  check Alcotest.bool "Proc-REC" true (Criteria.process_recoverable h);
  check Alcotest.bool "Lemma 2 on the history" true (Criteria.lemma2_holds h)

let test_random_workload_with_failures () =
  let params = { Generator.default_params with services = 8; conflict_density = 0.2 } in
  let rms = Generator.rms params ~fail_prob:(fun _ -> 0.15) () in
  let spec = Generator.spec params in
  let t = Scheduler.create ~spec ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.5 *. float_of_int i) p)
    (Generator.batch ~seed:17 params ~n:6);
  Scheduler.run t;
  check Alcotest.bool "finished (guaranteed termination)" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "RED" true (Criteria.red h)

let suite =
  [
    Alcotest.test_case "single process happy path" `Quick test_single_process_happy;
    Alcotest.test_case "E9: CIM parallel execution is PRED" `Quick test_cim_parallel_correct;
    Alcotest.test_case "E9: CIM test failure cascades" `Quick test_cim_test_failure_cascades;
    Alcotest.test_case "conservative mode" `Quick test_cim_conservative_mode;
    Alcotest.test_case "deferred commit overlaps pivot execution" `Quick
      test_deferred_overlaps_pivot_execution;
    Alcotest.test_case "independent parts run fully parallel" `Quick test_independent_parts_parallel;
    Alcotest.test_case "stall resolution via victim abort" `Quick test_stall_resolution;
    Alcotest.test_case "external abort in B-REC" `Quick test_external_abort_b_rec;
    Alcotest.test_case "external abort in F-REC" `Quick test_external_abort_f_rec_commits_forward;
    Alcotest.test_case "abort during a branch switch" `Quick test_abort_during_branch_switch;
    Alcotest.test_case "random workload is PRED" `Quick test_random_workload_pred;
    Alcotest.test_case "random workload with failures" `Quick test_random_workload_with_failures;
  ]

let test_exact_admission_mode () =
  (* the "always consider the completed schedule" scheduler (Section 3.5):
     definitionally exact admission; histories must be PRED and every
     process must still terminate *)
  let params = { Generator.default_params with services = 8; conflict_density = 0.3 } in
  let rms = Generator.rms params () in
  let spec = Generator.spec params in
  let config = { Scheduler.default_config with exact_admission = true } in
  let t = Scheduler.create ~config ~spec ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch ~seed:31 params ~n:5);
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "PRED" true (Criteria.pred h)

let exact_suite =
  [ Alcotest.test_case "exact-admission mode" `Quick test_exact_admission_mode ]

let suite = suite @ exact_suite

let test_quasi_mode_cim () =
  (* quasi-commit (figure 9): once construction passed its pivot (test),
     its pre-pivot compensations are off the table; production's pivot may
     commit without waiting for C_construction when no completion
     conflicts exist *)
  let config =
    {
      Scheduler.default_config with
      mode = Scheduler.Quasi;
      service_time = (fun s -> if s = "tech_doc:boiler" then 5.0 else 1.0);
    }
  in
  let t, _ = cim_setup ~config "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.submit t ~at:2.5 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "both committed" true
    (Scheduler.status t 1 = Schedule.Committed && Scheduler.status t 2 = Schedule.Committed);
  let h = Scheduler.history t in
  check Alcotest.bool "history PRED" true (Criteria.pred h)

let test_weak_order_with_failures_cim () =
  let config = { Scheduler.default_config with order = Scheduler.Weak } in
  let t, _ =
    cim_setup ~config ~fail_prob:(fun s -> if s = "test:boiler" then 1.0 else 0.0) "boiler"
  in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.submit t ~at:0.5 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "RED" true (Criteria.red (Scheduler.history t));
  check Alcotest.bool "locals commit-order serializable" true
    (List.for_all
       (fun (_, l) -> Tpm_composite.Local.commit_order_serializable l)
       (Scheduler.local_histories t))

let test_metrics_surface () =
  let t, _ = cim_setup "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.run t;
  let m = Scheduler.metrics t in
  check Alcotest.int "one submission" 1 (Tpm_sim.Metrics.count m "submitted");
  check Alcotest.int "one commit" 1 (Tpm_sim.Metrics.count m "committed");
  check Alcotest.int "four activities" 4 (Tpm_sim.Metrics.count m "activities");
  check Alcotest.bool "latency observed" true
    (Tpm_sim.Metrics.samples m "latency" <> [])

let test_wal_records_cover_run () =
  let t, _ = cim_setup "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.run t;
  let records = Scheduler.wal_records t in
  check Alcotest.bool "registered logged" true
    (List.mem (Tpm_wal.Wal.Process_registered 1) records);
  check Alcotest.bool "commit logged" true
    (List.mem (Tpm_wal.Wal.Process_committed 1) records);
  check Alcotest.int "four invocations logged" 4
    (List.length
       (List.filter (function Tpm_wal.Wal.Invoked _ -> true | _ -> false) records))

let late_suite =
  [
    Alcotest.test_case "quasi mode on the CIM scenario" `Quick test_quasi_mode_cim;
    Alcotest.test_case "weak order with failures on CIM" `Quick test_weak_order_with_failures_cim;
    Alcotest.test_case "metrics surface" `Quick test_metrics_surface;
    Alcotest.test_case "WAL covers the run" `Quick test_wal_records_cover_run;
  ]

let suite = suite @ late_suite

(* --- fault injection: outages, backoff, timeouts, crash trigger --- *)

module Faults = Tpm_sim.Faults
module Metrics = Tpm_sim.Metrics

let cim_setup_faults ?config ?(faults = Faults.none) part =
  let parts = [ part ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let t = Scheduler.create ?config ~faults ~spec ~rms () in
  (t, rms)

let summary_of t = Format.asprintf "%a" Metrics.pp_summary (Scheduler.metrics t)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* An outage spanning the pivot's subsystem: the non-retriable test
   activity is deflected to the alternative branch (doc_drawing) instead
   of waiting for a window that outlives the process. *)
let test_outage_deflects_pivot () =
  let faults =
    Faults.make
      ~outages:[ Faults.outage ~subsystem:"testdb" ~from_:0.0 ~until_:1000.0 ]
      ()
  in
  let t, rms = cim_setup_faults ~faults "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "committed via the alternative branch" true
    (Scheduler.status t 1 = Schedule.Committed);
  let h = Scheduler.history t in
  check Alcotest.bool "history legal" true (Schedule.legal h);
  check Alcotest.bool "history RED" true (Criteria.red h);
  let pdm = find_rm rms "pdm" in
  let docrepo = find_rm rms "docrepo" in
  check Alcotest.bool "BOM compensated on the way to the alternative" true
    (Store.get (Rm.store pdm) "bom:boiler" = Value.Nil);
  check Alcotest.bool "alternative documented the drawing" true
    (Store.get (Rm.store docrepo) "drawing_doc:boiler" <> Value.Nil);
  check Alcotest.bool "deflection counted" true
    (Metrics.count (Scheduler.metrics t) "outage_deflections" >= 1);
  check Alcotest.bool "deflections in the metrics summary" true
    (contains ~needle:"outage_deflections" (summary_of t))

(* The ablation arm: with degradation off, the pivot polls through the
   outage with capped backoff and commits on the preferred path once the
   window closes. *)
let test_outage_wait_ablation () =
  let faults =
    Faults.make ~outages:[ Faults.outage ~subsystem:"testdb" ~from_:0.0 ~until_:30.0 ] ()
  in
  let config = { Scheduler.default_config with outage_degrade = false } in
  let t, rms = cim_setup_faults ~config ~faults "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "committed on the preferred path" true
    (Scheduler.status t 1 = Schedule.Committed);
  let docrepo = find_rm rms "docrepo" in
  check Alcotest.bool "tech doc written (preferred path)" true
    (Store.get (Rm.store docrepo) "techdoc:boiler" <> Value.Nil);
  check Alcotest.bool "outage polls counted" true
    (Metrics.count (Scheduler.metrics t) "unavailable" >= 1);
  check Alcotest.bool "run outlives the outage window" true (Scheduler.now t > 30.0)

(* A retriable activity keeps retrying past the outage (Definition 3
   guarantees its eventual success): no deflection, just backoff. *)
let test_retriable_rides_out_outage () =
  let faults =
    Faults.make ~outages:[ Faults.outage ~subsystem:"docrepo" ~from_:3.5 ~until_:20.0 ] ()
  in
  let t, rms = cim_setup_faults ~faults "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "committed on the preferred path" true
    (Scheduler.status t 1 = Schedule.Committed);
  let docrepo = find_rm rms "docrepo" in
  check Alcotest.bool "tech doc written after the outage" true
    (Store.get (Rm.store docrepo) "techdoc:boiler" <> Value.Nil);
  check Alcotest.bool "no deflection for retriables" true
    (Metrics.count (Scheduler.metrics t) "outage_deflections" = 0);
  check Alcotest.bool "retries counted" true
    (Metrics.count (Scheduler.metrics t) "retries" >= 1);
  check Alcotest.bool "retries in the metrics summary" true
    (contains ~needle:"retries" (summary_of t));
  check Alcotest.bool "run outlives the outage window" true (Scheduler.now t > 20.0)

(* A latency spike pushing the invocation past the client-side timeout:
   the attempt is abandoned, backed off, and eventually succeeds once the
   spike window closes. *)
let test_latency_spike_timeout () =
  let faults =
    Faults.make
      ~spikes:[ Faults.spike ~subsystem:"docrepo" ~from_:0.0 ~until_:50.0 ~factor:10.0 ]
      ()
  in
  let config = { Scheduler.default_config with invocation_timeout = Some 3.0 } in
  let t, rms = cim_setup_faults ~config ~faults "boiler" in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "committed" true (Scheduler.status t 1 = Schedule.Committed);
  let docrepo = find_rm rms "docrepo" in
  check Alcotest.bool "tech doc written after the spike" true
    (Store.get (Rm.store docrepo) "techdoc:boiler" <> Value.Nil);
  check Alcotest.bool "timeouts counted" true
    (Metrics.count (Scheduler.metrics t) "timeouts" >= 1);
  check Alcotest.bool "retries counted" true
    (Metrics.count (Scheduler.metrics t) "retries" >= 1);
  check Alcotest.bool "backoff waits observed" true
    (Metrics.samples (Scheduler.metrics t) "backoff_wait" <> [])

(* The scripted crash trigger: die right after the third WAL append, then
   recover from the truncated log. *)
let test_crash_trigger_fault_plan () =
  let faults = Faults.make ~crash_after_appends:3 () in
  let parts = [ "boiler" ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let t = Scheduler.create ~faults ~spec ~rms () in
  let construction = Cim.construction ~pid:1 ~part:"boiler" in
  Scheduler.submit t ~args_of:Cim.args_of construction;
  Scheduler.run t;
  check Alcotest.bool "crash trigger fired" true (Scheduler.is_crashed t);
  check Alcotest.int "log truncated exactly at the trigger" 3
    (List.length (Scheduler.wal_records t));
  check Alcotest.bool "not finished at the crash" false (Scheduler.finished t);
  match Scheduler.recover ~spec ~rms ~procs:[ construction ] (Scheduler.wal_records t) with
  | Error e -> Alcotest.fail e
  | Ok t2 ->
      Scheduler.run t2;
      check Alcotest.bool "recovery finished" true (Scheduler.finished t2);
      let h = Scheduler.history t2 in
      check Alcotest.bool "recovered history legal" true (Schedule.legal h);
      check Alcotest.bool "recovered history RED" true (Criteria.red h)

(* Jittered backoff still comes from the seeded stream: two identical runs
   must agree event for event. *)
let test_jitter_is_deterministic () =
  let run () =
    let params = { Generator.default_params with services = 8; conflict_density = 0.3 } in
    let rms = Generator.rms params ~fail_prob:(fun _ -> 0.3) ~seed:5 () in
    let spec = Generator.spec params in
    let config =
      {
        Scheduler.default_config with
        seed = 5;
        backoff = { Scheduler.default_backoff with jitter = 0.4 };
      }
    in
    let t = Scheduler.create ~config ~spec ~rms () in
    List.iteri
      (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
      (Generator.batch ~seed:50 params ~n:5);
    Scheduler.run t;
    check Alcotest.bool "finished" true (Scheduler.finished t);
    (Scheduler.now t, List.length (Schedule.events (Scheduler.history t)))
  in
  let t1, e1 = run () in
  let t2, e2 = run () in
  check (Alcotest.float 0.0) "same makespan" t1 t2;
  check Alcotest.int "same event count" e1 e2

(* A bad submission raises from [submit] itself, before any event is
   scheduled, and leaves the scheduler usable. *)
let test_submit_rejects_bad_process () =
  let t, _ = cim_setup "p1" in
  let valid = Cim.construction ~pid:1 ~part:"p1" in
  let a1 = Process.find valid 1 in
  let single ?(service = a1.Activity.service) ~pid ~act ~subsystem () =
    Process.make_exn ~pid
      ~activities:
        [ Activity.make ~proc:pid ~act ~service ~kind:Activity.Compensatable ~subsystem () ]
      ~prec:[] ~pref:[]
  in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: submit returned" name
    | exception Invalid_argument _ -> ()
  in
  raises "act out of range" (fun () ->
      Scheduler.submit t (single ~pid:2 ~act:1_000_001 ~subsystem:a1.Activity.subsystem ()));
  raises "unknown subsystem" (fun () ->
      Scheduler.submit t (single ~pid:3 ~act:1 ~subsystem:"nowhere" ()));
  raises "unknown service" (fun () ->
      Scheduler.submit t
        (single ~service:"nosuch" ~pid:5 ~act:1 ~subsystem:a1.Activity.subsystem ()));
  (* activity 2 lies on the path 1 -> 2 -> 3 but outside the group *)
  raises "ill-formed grouping" (fun () ->
      Scheduler.submit t ~groups:[ { Compose.gname = "g"; members = [ 1; 3 ] } ] valid);
  (* two well-formed groups under one name: admission keys groups by name *)
  raises "reused group name" (fun () ->
      Scheduler.submit t
        ~groups:
          [
            { Compose.gname = "g"; members = [ 1; 2 ] };
            { Compose.gname = "g"; members = [ 3; 4 ] };
          ]
        valid);
  Scheduler.submit t ~args_of:Cim.args_of valid;
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "valid process committed" true (Scheduler.status t 1 = Schedule.Committed)

let fault_suite =
  [
    Alcotest.test_case "submit raises on a bad process" `Quick test_submit_rejects_bad_process;
    Alcotest.test_case "outage over the pivot deflects to the alternative" `Quick
      test_outage_deflects_pivot;
    Alcotest.test_case "outage wait-out ablation (no degradation)" `Quick
      test_outage_wait_ablation;
    Alcotest.test_case "retriable rides out an outage" `Quick test_retriable_rides_out_outage;
    Alcotest.test_case "latency spike hits the invocation timeout" `Quick
      test_latency_spike_timeout;
    Alcotest.test_case "scripted crash trigger and recovery" `Quick
      test_crash_trigger_fault_plan;
    Alcotest.test_case "jittered backoff is deterministic" `Quick test_jitter_is_deterministic;
  ]

let suite = suite @ fault_suite
