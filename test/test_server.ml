(* The open-world server: overload policies, deadline shedding, circuit
   breakers, graceful drain, the deterministic-overload property and the
   wire protocol. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Server = Tpm_server.Server
module Generator = Tpm_workload.Generator
module Faults = Tpm_sim.Faults
module Choice = Tpm_sim.Choice
module Wal = Tpm_wal.Wal
module Recovery = Tpm_wal.Recovery

let check = Alcotest.check

let params =
  {
    Generator.default_params with
    activities_min = 2;
    activities_max = 4;
    services = 10;
    subsystems = 2;
    conflict_density = 0.3;
  }

let make_server ?(policy = Server.Queue) ?(max_live = 4) ?(queue_capacity = 8)
    ?(deadline = 5.0) ?(saturation_limit = 2) ?(breaker_threshold = 3)
    ?(breaker_cooldown = 5.0) ?(seed = 1) ?faults ?choice ?(params = params) () =
  let spec = Generator.spec params in
  let rms = Generator.rms params () in
  let config = { Scheduler.default_config with seed } in
  let sched = Scheduler.create ~config ?faults ?choice ~spec ~rms () in
  let scfg =
    {
      Server.default_config with
      policy;
      max_live;
      queue_capacity;
      default_deadline = deadline;
      saturation_limit;
      breaker_threshold;
      breaker_cooldown;
    }
  in
  Server.create ~config:scfg sched

let single_retriable ~pid ~svc ~ss =
  let a =
    Activity.make ~proc:pid ~act:1 ~service:svc ~kind:Activity.Retriable ~subsystem:ss ()
  in
  Process.make_exn ~pid ~activities:[ a ] ~prec:[] ~pref:[]

let finish_accounting srv =
  check Alcotest.bool "accounting invariant" true (Server.accounting_ok srv);
  check Alcotest.int "queue drained" 0 (Server.queue_depth srv)

(* --- underload: everything admits and commits --- *)

let test_underload_admits_all () =
  let srv = make_server ~max_live:16 () in
  let script = Generator.arrivals params ~seed:4 ~rate:0.5 ~horizon:10.0 in
  check Alcotest.bool "script non-empty" true (script <> []);
  Server.play srv script;
  Server.run srv;
  let c = Server.counters srv in
  check Alcotest.int "offered = script" (List.length script) c.Server.offered;
  check Alcotest.int "all admitted" c.Server.offered c.Server.admitted;
  check Alcotest.int "none rejected" 0 c.Server.rejected;
  check Alcotest.int "none expired" 0 c.Server.expired;
  check Alcotest.bool "scheduler finished" true (Scheduler.finished (Server.scheduler srv));
  check Alcotest.bool "history PRED" true (Criteria.pred (Scheduler.history (Server.scheduler srv)));
  finish_accounting srv

(* --- Reject policy: overload fast-fails with a typed reason --- *)

let test_reject_policy_sheds () =
  let srv = make_server ~policy:Server.Reject ~max_live:2 () in
  let script = Generator.arrivals params ~seed:4 ~rate:10.0 ~horizon:4.0 in
  Server.play srv script;
  Server.run srv;
  let c = Server.counters srv in
  check Alcotest.bool "some rejected" true (c.Server.rejected > 0);
  check Alcotest.bool "some admitted" true (c.Server.admitted > 0);
  check Alcotest.int "queue never used" 0 (Server.queue_depth srv);
  check Alcotest.bool "window-full reason recorded" true
    (List.exists
       (fun l -> String.length l > 0 && String.index_opt l ':' <> None)
       (Server.decision_log srv));
  check Alcotest.bool "reject reasons typed" true
    (List.exists
       (fun l ->
         match String.index_opt l ' ' with
         | Some i -> String.sub l (i + 1) (String.length l - i - 1) = "reject:window-full"
         | None -> false)
       (Server.decision_log srv));
  finish_accounting srv

(* --- Queue policy: bounded queue, deadline-aware shedding --- *)

let test_queue_policy_bounds_and_expiry () =
  let srv = make_server ~policy:Server.Queue ~max_live:1 ~queue_capacity:4 ~deadline:2.0 () in
  let script = Generator.arrivals params ~seed:4 ~rate:10.0 ~horizon:3.0 in
  Server.play srv script;
  Server.run srv;
  let c = Server.counters srv in
  check Alcotest.bool "queue overflow rejects" true (c.Server.rejected > 0);
  check Alcotest.bool "deadline expiries" true (c.Server.expired > 0);
  check Alcotest.bool "some admitted" true (c.Server.admitted > 0);
  check Alcotest.bool "queue-full reason in log" true
    (List.exists
       (fun l ->
         match String.index_opt l ' ' with
         | Some i ->
             let d = String.sub l (i + 1) (String.length l - i - 1) in
             d = "reject:queue-full" || d = "reject:deadline-expired"
         | None -> false)
       (Server.decision_log srv));
  check Alcotest.bool "scheduler finished" true (Scheduler.finished (Server.scheduler srv));
  finish_accounting srv

(* --- Degrade policy: saturated preferred branch admits the fallback --- *)

let test_degrade_policy () =
  let params =
    { params with activities_min = 4; activities_max = 8; alt_prob = 0.9; conflict_density = 0.6 }
  in
  let srv = make_server ~params ~policy:Server.Degrade ~max_live:32 ~saturation_limit:1 () in
  let script = Generator.arrivals params ~seed:4 ~rate:6.0 ~horizon:5.0 in
  Server.play srv script;
  Server.run srv;
  let c = Server.counters srv in
  check Alcotest.bool "some degraded admits" true (c.Server.degraded > 0);
  (* some admitted variant is strictly smaller than what was offered *)
  let offered_sizes =
    List.map (fun (_, p) -> (Process.pid p, List.length (Process.activities p))) script
  in
  check Alcotest.bool "degraded variants are smaller" true
    (List.exists
       (fun p ->
         match List.assoc_opt (Process.pid p) offered_sizes with
         | Some n -> List.length (Process.activities p) < n
         | None -> false)
       (Server.admitted_procs srv));
  (* every admitted variant must itself be well-formed *)
  List.iter
    (fun p ->
      check Alcotest.bool "admitted variant well-formed" true
        (Result.is_ok (Flex.well_formed p)))
    (Server.admitted_procs srv);
  check Alcotest.bool "scheduler finished" true (Scheduler.finished (Server.scheduler srv));
  check Alcotest.bool "history PRED" true (Criteria.pred (Scheduler.history (Server.scheduler srv)));
  finish_accounting srv

(* --- circuit breaker: consecutive Unavailable opens, success closes --- *)

let test_breaker_opens_and_closes () =
  let faults =
    Faults.make
      ~outages:[ { Faults.out_subsystem = "ss0"; out_window = { Faults.from_ = 0.0; until_ = 50.0 } } ]
      ()
  in
  let srv =
    make_server ~policy:Server.Reject ~max_live:8 ~breaker_threshold:3 ~breaker_cooldown:100.0
      ~faults ()
  in
  (* P1 rides out the outage retrying (retriable): its consecutive
     Unavailable answers open ss0's breaker *)
  Server.submit_at srv ~at:0.0 (single_retriable ~pid:1 ~svc:"svc0" ~ss:"ss0");
  Server.run srv ~until:20.0;
  check Alcotest.string "breaker open mid-outage" "open" (Server.breaker_state srv "ss0");
  (* a fresh submission preferring ss0 fast-fails while the breaker is open *)
  let d = Server.offer srv (single_retriable ~pid:2 ~svc:"svc2" ~ss:"ss0") in
  check Alcotest.string "breaker fast-fail" "reject:breaker-open:ss0" (Server.decision_label d);
  (* ss1 is unaffected *)
  let d = Server.offer srv (single_retriable ~pid:3 ~svc:"svc1" ~ss:"ss1") in
  check Alcotest.string "other subsystem admits" "admit" (Server.decision_label d);
  (* the outage ends; P1's success closes the breaker again *)
  Server.run srv;
  check Alcotest.string "breaker closed after success" "closed" (Server.breaker_state srv "ss0");
  check Alcotest.bool "P1 committed" true
    (Scheduler.status (Server.scheduler srv) 1 = Schedule.Committed);
  let d = Server.offer srv (single_retriable ~pid:4 ~svc:"svc4" ~ss:"ss0") in
  check Alcotest.string "admits after close" "admit" (Server.decision_label d);
  Server.run srv;
  finish_accounting srv

let test_breaker_half_open_probe () =
  let faults =
    Faults.make
      ~outages:[ { Faults.out_subsystem = "ss0"; out_window = { Faults.from_ = 0.0; until_ = 50.0 } } ]
      ()
  in
  let srv =
    make_server ~policy:Server.Reject ~max_live:8 ~breaker_threshold:3 ~breaker_cooldown:5.0
      ~faults ()
  in
  Server.submit_at srv ~at:0.0 (single_retriable ~pid:1 ~svc:"svc0" ~ss:"ss0");
  Server.run srv ~until:30.0;
  (* the cooldown elapsed long ago: the next interested offer is the probe *)
  let d = Server.offer srv (single_retriable ~pid:2 ~svc:"svc2" ~ss:"ss0") in
  check Alcotest.string "half-open admits the probe" "admit" (Server.decision_label d);
  check Alcotest.string "state is half-open" "half-open" (Server.breaker_state srv "ss0");
  (* the probe fails (outage still on): the breaker reopens *)
  Server.run srv ~until:32.0;
  check Alcotest.string "probe failure reopens" "open" (Server.breaker_state srv "ss0");
  Server.run srv;
  check Alcotest.string "eventual success closes" "closed" (Server.breaker_state srv "ss0");
  finish_accounting srv

(* --- graceful drain --- *)

let test_drain () =
  let srv = make_server ~policy:Server.Queue ~max_live:1 ~queue_capacity:32 ~deadline:50.0 () in
  let script = Generator.arrivals params ~seed:4 ~rate:5.0 ~horizon:10.0 in
  Server.play srv script;
  Server.run srv ~until:4.0;
  check Alcotest.bool "queue backed up" true (Server.queue_depth srv > 0);
  Server.drain srv;
  check Alcotest.bool "draining" true (Server.draining srv);
  check Alcotest.int "queue flushed" 0 (Server.queue_depth srv);
  check Alcotest.bool "in-flight settled" true (Scheduler.finished (Server.scheduler srv));
  check Alcotest.int "wal sealed (nothing pending)" 0 (Wal.pending (Scheduler.wal (Server.scheduler srv)));
  let d = Server.offer srv (single_retriable ~pid:9999 ~svc:"svc0" ~ss:"ss0") in
  check Alcotest.string "intake stopped" "reject:draining" (Server.decision_label d);
  (* post-drain arrivals from the script (scheduled past 4.0) are shed *)
  finish_accounting srv;
  check Alcotest.bool "drain is idempotent" true
    (Server.drain srv;
     Server.accounting_ok srv)

(* The drain's checkpoint is the only one a running system takes.  On the
   log it seals, compaction must drop the records of the processes it
   closed without changing the recovery plan, and that plan must leave
   nothing to complete: every admitted process terminated first. *)
let test_drain_checkpoint_compacts () =
  let srv = make_server ~policy:Server.Queue ~max_live:2 ~queue_capacity:16 ~deadline:50.0 () in
  Server.play srv (Generator.arrivals params ~seed:6 ~rate:2.0 ~horizon:6.0);
  Server.run srv ~until:3.0;
  Server.drain srv;
  let records = Scheduler.wal_records (Server.scheduler srv) in
  let compacted = Wal.compact records in
  check Alcotest.bool "compaction drops records" true
    (List.length compacted < List.length records);
  let procs = Server.admitted_procs srv in
  match (Recovery.analyze ~procs records, Recovery.analyze ~procs compacted) with
  | Ok full, Ok small ->
      Fixtures.check_same_plan "drained log" full small;
      check Alcotest.int "nothing interrupted" 0 (List.length full.Recovery.interrupted);
      check Alcotest.bool "some process committed" true (full.Recovery.committed <> [])
  | Error e, _ | _, Error e -> Alcotest.fail ("analyze failed: " ^ e)

(* --- deterministic overload: same seed + script => bit-identical log --- *)

let overload_run choice () =
  let faults =
    Faults.make
      ~outages:
        (Faults.periodic_outage ~subsystem:"ss0" ~period:5.0 ~duty:0.3 ~horizon:20.0 ())
      ()
  in
  let srv =
    make_server ~policy:Server.Queue ~max_live:2 ~queue_capacity:6 ~deadline:3.0 ~faults
      ?choice:(Some (choice ())) ()
  in
  let script = Generator.arrivals params ~seed:9 ~rate:4.0 ~horizon:15.0 in
  Server.play srv script;
  Server.run srv;
  (Server.decision_log srv, Server.counters srv, Server.steps srv)

let test_deterministic_overload_passive () =
  let run () = overload_run (fun () -> Choice.passive) () in
  let log1, c1, s1 = run () in
  let log2, c2, s2 = run () in
  check Alcotest.(list string) "decision logs bit-identical" log1 log2;
  check Alcotest.bool "counters identical" true (c1 = c2);
  check Alcotest.int "step counts identical" s1 s2;
  check Alcotest.bool "something was shed" true (c1.Server.rejected + c1.Server.expired > 0)

let test_deterministic_overload_driven () =
  let run () = overload_run (fun () -> Choice.driven ()) () in
  let log1, c1, s1 = run () in
  let log2, c2, s2 = run () in
  check Alcotest.(list string) "driven decision logs bit-identical" log1 log2;
  check Alcotest.bool "driven counters identical" true (c1 = c2);
  check Alcotest.int "driven step counts identical" s1 s2

(* --- 4x overload: shed, don't collapse --- *)

let test_overload_4x_sheds_not_collapses () =
  List.iter
    (fun policy ->
      let srv = make_server ~policy ~max_live:4 ~queue_capacity:8 ~deadline:4.0 () in
      (* service time 1.0, window 4 => capacity ~4/s against ~16/s offered *)
      let script = Generator.arrivals params ~seed:11 ~rate:16.0 ~horizon:8.0 in
      Server.play srv script;
      Server.run srv;
      let c = Server.counters srv in
      check Alcotest.bool
        (Server.policy_label policy ^ ": sheds under overload")
        true
        (c.Server.rejected + c.Server.expired + c.Server.degraded > 0);
      check Alcotest.bool
        (Server.policy_label policy ^ ": finished")
        true
        (Scheduler.finished (Server.scheduler srv));
      check Alcotest.bool
        (Server.policy_label policy ^ ": PRED holds")
        true
        (Criteria.pred (Scheduler.history (Server.scheduler srv)));
      check Alcotest.bool
        (Server.policy_label policy ^ ": accounting")
        true (Server.accounting_ok srv);
      check Alcotest.int
        (Server.policy_label policy ^ ": queue empty at quiescence")
        0 (Server.queue_depth srv))
    [ Server.Reject; Server.Queue; Server.Degrade ]

(* --- crash mid-serve, recover to a consistent state --- *)

let test_crash_mid_serve_recovers () =
  let spec = Generator.spec params in
  let rms = Generator.rms params () in
  let sched = Scheduler.create ~spec ~rms () in
  let srv =
    Server.create
      ~config:{ Server.default_config with policy = Server.Queue; max_live = 2 }
      sched
  in
  Server.set_step_hook srv (fun ~stage:_ ~step ->
      if step = 12 then ignore (Scheduler.crash sched));
  let script = Generator.arrivals params ~seed:4 ~rate:6.0 ~horizon:6.0 in
  Server.play srv script;
  Server.run srv;
  check Alcotest.bool "crashed" true (Scheduler.is_crashed sched);
  let records = Scheduler.wal_records sched in
  match
    Scheduler.recover ~spec ~rms ~procs:(Server.admitted_procs srv) records
  with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok t2 ->
      Scheduler.run t2;
      check Alcotest.bool "recovered run finished" true (Scheduler.finished t2);
      check Alcotest.bool "recovered history PRED" true (Criteria.pred (Scheduler.history t2))

(* --- Lemma 1 defers only behind live predecessors --- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* One wire-protocol connection: send [request], serve it to EOF, and
   return everything the server replied. *)
let converse srv request =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let n = Unix.write_substring client request 0 (String.length request) in
  check Alcotest.int "request written" (String.length request) n;
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Server.handle_connection srv server;
  Unix.close server;
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let rec slurp () =
    match Unix.read client chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        slurp ()
  in
  slurp ();
  Unix.close client;
  Buffer.contents buf

(* Fifty copies of a compensatable step followed by a pivot, each served
   alone over the wire: every conflicting predecessor has committed by
   the time the next pivot is admitted, so Lemma 1 has nothing to wait
   for.  The pivot is invoked directly — no prepare, no 2PC coordinator —
   and each process logs exactly register, one invocation per activity,
   the commit request and the commit.  The log is on disk under the
   default [Sync_each]: when a document's final [.] reply goes out,
   nothing it logged is still pending, and the document cost one fsync
   per activity plus one for the commit. *)
let test_sequential_pivots_skip_2pc () =
  let params = { Generator.default_params with services = 2; subsystems = 1 } in
  let spec = Generator.spec { params with Generator.conflict_density = 0.0 } in
  let rms = Generator.rms params () in
  let wal_path = Filename.temp_file "tpm_server_wal" ".log" in
  let sched =
    Scheduler.create ~config:{ Scheduler.default_config with mode = Scheduler.Deferred }
      ~spec ~rms ~wal_path ()
  in
  let wal = Scheduler.wal sched in
  let srv = Server.create sched in
  let n = 50 and k = 2 in
  for pid = 1 to n do
    let act a service kind =
      Activity.make ~proc:pid ~act:a ~service ~kind ~subsystem:"ss0" ()
    in
    let proc =
      Process.make_exn ~pid
        ~activities:[ act 1 "svc0" Activity.Compensatable; act 2 "svc1" Activity.Pivot ]
        ~prec:[ (1, 2) ] ~pref:[]
    in
    let doc = Lang.print { Lang.spec = Conflict.empty; processes = [ proc ]; schedule = None } in
    let fsyncs_before = (Wal.stats wal).Wal.fsyncs in
    let reply = converse srv (doc ^ ".\n") in
    check Alcotest.bool (Printf.sprintf "P%d committed" pid) true
      (contains (Printf.sprintf "status %d committed" pid) reply && Scheduler.finished sched);
    let st = Wal.stats wal in
    check Alcotest.int (Printf.sprintf "P%d reply: nothing pending" pid) 0 (Wal.pending wal);
    check Alcotest.int (Printf.sprintf "P%d reply: whole log durable" pid) (Wal.size wal)
      st.Wal.durable_records;
    check Alcotest.int (Printf.sprintf "P%d fsyncs = activities + 1" pid) (k + 1)
      (st.Wal.fsyncs - fsyncs_before)
  done;
  Wal.close wal;
  List.iter Sys.remove (Wal.segment_files wal_path);
  Sys.remove wal_path;
  let h = Scheduler.history sched in
  check Alcotest.bool "history PRED" true (Criteria.pred h);
  let m = Scheduler.metrics sched in
  check Alcotest.int "no 2PC rounds" 0
    (Tpm_sim.Metrics.count m "twopc_commits" + Tpm_sim.Metrics.count m "twopc_aborts");
  check Alcotest.int "nothing prepared" 0 (Tpm_sim.Metrics.count m "prepared");
  let records = Scheduler.wal_records sched in
  check Alcotest.int "no coordinator instance" 0
    (List.length (List.filter (function Wal.Coord_begin _ -> true | _ -> false) records));
  check Alcotest.int "records per process" ((3 + k) * n) (List.length records);
  for pid = 1 to n do
    let own =
      List.filter
        (function
          | Wal.Process_registered p | Wal.Commit_requested p | Wal.Process_committed p ->
              p = pid
          | Wal.Invoked { pid = p; _ } -> p = pid
          | _ -> false)
        records
    in
    check Alcotest.bool (Printf.sprintf "P%d logs register, invocations, commit" pid) true
      (own
      = [ Wal.Process_registered pid; Wal.Invoked { pid; act = 1 }; Wal.Invoked { pid; act = 2 };
          Wal.Commit_requested pid; Wal.Process_committed pid ])
  done

(* --- Lang front-end and the wire protocol --- *)

let test_offer_text () =
  let srv = make_server ~policy:Server.Reject ~max_live:8 () in
  let text =
    "process 101 {\n  1 svc0 retriable @ss0\n}\nprocess 102 {\n  1 svc1 retriable @ss1\n}\n"
  in
  (match Server.offer_text srv text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok decisions ->
      check Alcotest.int "two decisions" 2 (List.length decisions);
      List.iter
        (fun (_, d) -> check Alcotest.string "admitted" "admit" (Server.decision_label d))
        decisions);
  (match Server.offer_text srv "process {" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed document accepted");
  (* a document naming an unknown subsystem is shed, not detonated *)
  (match Server.offer_text srv "process 103 {\n  1 svc0 retriable @nosuch\n}\n" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok [ (103, d) ] ->
      check Alcotest.string "unknown subsystem rejected" "reject:unknown-subsystem:nosuch"
        (Server.decision_label d)
  | Ok _ -> Alcotest.fail "expected one decision");
  Server.run srv;
  finish_accounting srv

let test_wire_protocol () =
  let srv = make_server ~policy:Server.Reject ~max_live:8 () in
  let doc = "process 1 {\n  1 svc0 retriable @ss0\n}\nprocess 2 {\n  1 svc1 retriable @ss1\n}\n.\n" in
  let reply = converse srv doc in
  check Alcotest.bool "decision line P1" true (contains "decision 1 admit" reply);
  check Alcotest.bool "decision line P2" true (contains "decision 2 admit" reply);
  check Alcotest.bool "status line P1" true (contains "status 1 committed" reply);
  check Alcotest.bool "status line P2" true (contains "status 2 committed" reply);
  check Alcotest.bool "counters line" true (contains "counters offered=2 admitted=2" reply);
  finish_accounting srv

let suite =
  [
    Alcotest.test_case "sequential pivots skip 2PC" `Quick test_sequential_pivots_skip_2pc;
    Alcotest.test_case "underload admits all" `Quick test_underload_admits_all;
    Alcotest.test_case "reject policy sheds" `Quick test_reject_policy_sheds;
    Alcotest.test_case "queue bounds and expiry" `Quick test_queue_policy_bounds_and_expiry;
    Alcotest.test_case "degrade policy" `Quick test_degrade_policy;
    Alcotest.test_case "breaker opens and closes" `Quick test_breaker_opens_and_closes;
    Alcotest.test_case "breaker half-open probe" `Quick test_breaker_half_open_probe;
    Alcotest.test_case "graceful drain" `Quick test_drain;
    Alcotest.test_case "drain checkpoint compacts" `Quick test_drain_checkpoint_compacts;
    Alcotest.test_case "deterministic overload (passive)" `Quick
      test_deterministic_overload_passive;
    Alcotest.test_case "deterministic overload (driven)" `Quick
      test_deterministic_overload_driven;
    Alcotest.test_case "4x overload sheds, not collapses" `Quick
      test_overload_4x_sheds_not_collapses;
    Alcotest.test_case "crash mid-serve recovers" `Quick test_crash_mid_serve_recovers;
    Alcotest.test_case "lang front-end" `Quick test_offer_text;
    Alcotest.test_case "wire protocol" `Quick test_wire_protocol;
  ]
