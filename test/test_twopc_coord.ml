(* The message-driven, durably-logged, presumed-abort 2PC coordinator
   with its one participant per instance: fault-free record sequence
   (commit applied at the participant), presumed abort on a refused vote
   (no commit record),
   retransmission through loss, idempotence under duplication, the
   participant-side termination protocol, and the scheduler-level
   guarantee that a durable commit decision survives any crash or message
   loss, while coordinator amnesia presumes it aborted.  Also the
   idempotence of [Recovery.analyze] under
   duplicated/reordered [Prepared_decided] records. *)

open Tpm_core
module Des = Tpm_sim.Des
module Bus = Tpm_sim.Bus
module Prng = Tpm_sim.Prng
module Faults = Tpm_sim.Faults
module Metrics = Tpm_sim.Metrics
module Wal = Tpm_wal.Wal
module Recovery = Tpm_wal.Recovery
module Coordinator = Tpm_twopc.Coordinator
module Service = Tpm_subsys.Service
module Rm = Tpm_subsys.Rm
module Store = Tpm_kv.Store
module Value = Tpm_kv.Value
module Tx = Tpm_kv.Tx
module Scheduler = Tpm_scheduler.Scheduler
module Generator = Tpm_workload.Generator

let check = Alcotest.check
let value = Alcotest.testable Value.pp Value.equal

let counter_registry () =
  let reg = Service.Registry.create () in
  Service.Registry.register reg
    (Service.make ~name:"incr" ~compensation:(Service.Inverse_service "decr")
       ~reads:[ "n" ] ~writes:[ "n" ]
       (fun tx ~args:_ ->
         let v =
           Value.int_exn (match Tx.get tx "n" with Value.Nil -> Value.Int 0 | v -> v)
         in
         Tx.set tx "n" (Value.Int (v + 1));
         Value.Int (v + 1)));
  Service.Registry.register reg
    (Service.make ~name:"decr" ~reads:[ "n" ] ~writes:[ "n" ]
       (fun tx ~args:_ ->
         let v =
           Value.int_exn (match Tx.get tx "n" with Value.Nil -> Value.Int 0 | v -> v)
         in
         Tx.set tx "n" (Value.Int (v - 1));
         Value.Int (v - 1)));
  reg

let prepared_rm ~name ~token =
  let rm = Rm.create ~name ~registry:(counter_registry ()) () in
  (match Rm.prepare rm ~token ~service:"incr" () with
  | Rm.Prepared _ -> ()
  | _ -> Alcotest.fail "prepare failed");
  rm

type world = {
  sim : Des.t;
  bus : Coordinator.msg Bus.t;
  coord : Coordinator.t;
  metrics : Metrics.t;
  records : Wal.record list ref;
}

let world ?faults ?retransmit_after ?inquiry_after rms =
  let sim = Des.create () in
  let metrics = Metrics.create () in
  let bus = Bus.create ~sim ~rng:(Prng.create 3) ~metrics ?faults () in
  let records = ref [] in
  let coord =
    Coordinator.create ~sim ~bus
      ~log:(fun r -> records := r :: !records)
      ~metrics ?retransmit_after ()
  in
  List.iter
    (fun rm -> Coordinator.Participant.attach ~sim ~bus ~rm ~metrics ?inquiry_after ())
    rms;
  { sim; bus; coord; metrics; records }

(* ------------------------------------------------------------------ *)
(* coordinator: fault-free WAL record sequence, synchronous completion *)

let test_fault_free_records () =
  let rm = prepared_rm ~name:"db1" ~token:1 in
  let w = world [ rm ] in
  let decision = ref None in
  let cid =
    Coordinator.start w.coord ~pid:1 ~act:2 ~rm ~token:1
      ~on_done:(fun ~commit -> decision := Some commit)
  in
  (* a fault-free bus delivers synchronously: the round completed inside
     [start], without the virtual clock moving *)
  check Alcotest.(option bool) "committed" (Some true) !decision;
  check Alcotest.int "no open instances" 0 (Coordinator.open_instances w.coord);
  (match List.rev !(w.records) with
  | [
   Wal.Coord_begin { cid = c1; pid = 1; act = 2; parts };
   Wal.Coord_committed { cid = c2; pid = 1 };
   Wal.Coord_forgotten { cid = c3; pid = 1 };
  ] ->
      check Alcotest.(list string) "participant logged" [ "db1" ] parts;
      check Alcotest.(list int) "one cid throughout" [ cid; cid ] [ c2; c3 ];
      check Alcotest.int "begin cid" cid c1
  | rs ->
      Alcotest.failf "unexpected log: %a"
        (Format.pp_print_list Wal.pp_record) rs);
  Des.run w.sim;
  check Alcotest.(float 0.0) "clock never moved" 0.0 (Des.now w.sim);
  check value "committed at the participant" (Value.Int 1) (Store.get (Rm.store rm) "n")

(* a refused vote: presumed abort — no commit record is ever written *)
let test_fault_free_abort_unlogged () =
  let rm = prepared_rm ~name:"db1" ~token:1 in
  let w = world [ rm ] in
  let decision = ref None in
  (* the participant does not hold token 9: it votes no *)
  ignore
    (Coordinator.start w.coord ~pid:1 ~act:2 ~rm ~token:9
       ~on_done:(fun ~commit -> decision := Some commit));
  Des.run w.sim;
  check Alcotest.(option bool) "aborted" (Some false) !decision;
  check Alcotest.int "no open instances" 0 (Coordinator.open_instances w.coord);
  check Alcotest.bool "no Coord_committed for an abort" true
    (List.for_all
       (function Wal.Coord_committed _ -> false | _ -> true)
       !(w.records));
  check Alcotest.bool "never in doubt" true (Rm.in_doubt rm = [])

(* ------------------------------------------------------------------ *)
(* retransmission drives the round through total early loss *)

let test_retransmit_through_loss () =
  let rm = prepared_rm ~name:"db" ~token:1 in
  (* everything the coordinator sends to db is lost before t=1.5: the
     initial PREPARE and its first retransmission die, the second
     retransmission (t=2) gets through *)
  let faults =
    Faults.make
      ~msg_faults:[ Faults.link_fault ~dst:"db" ~from_:0.0 ~until_:1.5 ~drop:1.0 () ]
      ()
  in
  let w = world ~faults [ rm ] in
  let decision = ref None in
  ignore
    (Coordinator.start w.coord ~pid:1 ~act:2 ~rm ~token:1
       ~on_done:(fun ~commit -> decision := Some commit));
  Des.run w.sim;
  check Alcotest.(option bool) "committed despite loss" (Some true) !decision;
  check value "effects applied once" (Value.Int 1) (Store.get (Rm.store rm) "n");
  check Alcotest.bool "retransmissions counted" true
    (Metrics.count w.metrics "msg_retransmits" >= 2);
  check Alcotest.bool "drops counted" true (Metrics.count w.metrics "msg_dropped" >= 2);
  check Alcotest.bool "commit decision durable" true
    (List.exists
       (function Wal.Coord_committed _ -> true | _ -> false)
       !(w.records))

(* ------------------------------------------------------------------ *)
(* duplicating every message must not duplicate any effect *)

let test_duplicates_idempotent () =
  let rm = prepared_rm ~name:"db" ~token:1 in
  let faults =
    Faults.make ~msg_faults:(Faults.uniform_msg_faults ~dup:1.0 ~horizon:100.0 ()) ()
  in
  let w = world ~faults [ rm ] in
  let done_count = ref 0 in
  ignore
    (Coordinator.start w.coord ~pid:1 ~act:2 ~rm ~token:1
       ~on_done:(fun ~commit ->
         incr done_count;
         check Alcotest.bool "committed" true commit));
  Des.run w.sim;
  check Alcotest.int "decision delivered exactly once" 1 !done_count;
  check value "exactly one increment" (Value.Int 1) (Store.get (Rm.store rm) "n");
  check Alcotest.bool "duplicates counted" true
    (Metrics.count w.metrics "msg_duplicated" > 0);
  check Alcotest.int "exactly one durable commit record" 1
    (List.length
       (List.filter
          (function Wal.Coord_committed _ -> true | _ -> false)
          !(w.records)))

(* ------------------------------------------------------------------ *)
(* termination protocol: an in-doubt participant pulls the decision by
   inquiry long before the (deliberately glacial) coordinator timer *)

let test_inquiry_pulls_decision () =
  let rm = prepared_rm ~name:"db" ~token:1 in
  let faults =
    Faults.make
      ~msg_faults:
        [
          (* the vote leaves at t=0 and is delayed into (0, 2) *)
          Faults.link_fault ~src:"db" ~dst:"coord" ~from_:0.0 ~until_:0.1 ~delay:2.0 ();
          (* every DECISION sent before t=3 is lost *)
          Faults.link_fault ~src:"coord" ~dst:"db" ~from_:0.5 ~until_:3.0 ~drop:1.0 ();
        ]
      ()
  in
  let w = world ~faults ~retransmit_after:50.0 ~inquiry_after:1.0 [ rm ] in
  let decision = ref None in
  ignore
    (Coordinator.start w.coord ~pid:1 ~act:2 ~rm ~token:1
       ~on_done:(fun ~commit -> decision := Some commit));
  Des.run w.sim;
  check Alcotest.(option bool) "committed" (Some true) !decision;
  check value "effects applied" (Value.Int 1) (Store.get (Rm.store rm) "n");
  check Alcotest.bool "inquiries sent" true (Metrics.count w.metrics "msg_inquiries" >= 1);
  check Alcotest.bool "resolved via inquiry, not the 50-unit retransmission" true
    (Des.now w.sim < 10.0)

(* ------------------------------------------------------------------ *)
(* satellite: Rm.is_prepared agrees with the token table *)

let test_is_prepared () =
  let rm = Rm.create ~name:"db" ~registry:(counter_registry ()) () in
  check Alcotest.bool "nothing prepared" false (Rm.is_prepared rm ~token:1);
  ignore (Rm.prepare rm ~token:1 ~service:"incr" ());
  check Alcotest.bool "prepared" true (Rm.is_prepared rm ~token:1);
  check Alcotest.bool "agrees with prepared_tokens" true
    (List.mem 1 (Rm.prepared_tokens rm));
  Rm.commit_prepared rm ~token:1;
  check Alcotest.bool "gone after commit" false (Rm.is_prepared rm ~token:1);
  ignore (Rm.prepare rm ~token:2 ~service:"incr" ());
  Rm.abort_prepared rm ~token:2;
  check Alcotest.bool "gone after abort" false (Rm.is_prepared rm ~token:2)

(* ------------------------------------------------------------------ *)
(* scheduler level: a durable commit decision survives the crash even
   though the DECISION message never reached the participant *)

let sched_params =
  {
    Generator.default_params with
    activities_min = 3;
    activities_max = 6;
    services = 6;
    conflict_density = 0.3;
    subsystems = 3;
  }

let sched_config =
  { Scheduler.default_config with mode = Scheduler.Deferred; seed = 11 }

let sched_run ?faults () =
  let rms = Generator.rms sched_params ~fail_prob:(fun _ -> 0.2) ~seed:11 () in
  let procs = Generator.batch ~seed:1100 sched_params ~n:3 in
  let t =
    Scheduler.create ~config:sched_config ?faults ~spec:(Generator.spec sched_params)
      ~rms ()
  in
  List.iteri (fun i p -> Scheduler.submit t ~at:(0.4 *. float_of_int i) p) procs;
  Scheduler.run ~until:100000.0 t;
  (t, rms, procs)

(* index (1-based append position) of the first durable commit decision,
   and the activity it decides *)
let first_durable_commit records =
  let acts = Hashtbl.create 8 in
  let rec go i = function
    | [] -> Alcotest.fail "workload produced no Coord_committed record"
    | Wal.Coord_begin { cid; pid; act; _ } :: rest ->
        Hashtbl.replace acts cid (pid, act);
        go (i + 1) rest
    | Wal.Coord_committed { cid; _ } :: _ -> (i, Hashtbl.find acts cid)
    | _ :: rest -> go (i + 1) rest
  in
  go 1 records

let test_durable_commit_never_reversed () =
  let t0, _, _ = sched_run () in
  let k, (pid, act) = first_durable_commit (Scheduler.wal_records t0) in
  (* crash the instant the commit record hit the log: the decision is
     durable but no participant has seen it *)
  let faults = Faults.make ~crash_after_appends:k () in
  let t, rms, procs = sched_run ~faults () in
  check Alcotest.bool "crashed" true (Scheduler.is_crashed t);
  match
    Scheduler.recover ~config:sched_config ~spec:(Generator.spec sched_params) ~rms
      ~procs (Scheduler.wal_records t)
  with
  | Error e -> Alcotest.fail e
  | Ok t2 ->
      Scheduler.run ~until:100000.0 t2;
      check Alcotest.bool "finished" true (Scheduler.finished t2);
      let h = Scheduler.history t2 in
      check Alcotest.bool "legal" true (Schedule.legal h);
      check Alcotest.bool "PRED" true (Criteria.pred h);
      let decided commit =
        List.exists
          (function
            | Wal.Prepared_decided { pid = p; act = a; commit = c } ->
                p = pid && a = act && c = commit
            | _ -> false)
          (Scheduler.wal_records t2)
      in
      check Alcotest.bool "re-delivered and committed" true (decided true);
      check Alcotest.bool "never aborted" false (decided false)

(* coordinator amnesia: recovery without the Coord_* records still
   terminates every process cleanly, leaking no prepared token.  The
   instance's one participant never saw the decision, so no one
   remembers the durable commit: the in-doubt activity is presumed
   aborted, never committed *)
let test_amnesia_recovery () =
  let t0, _, _ = sched_run () in
  let k, (pid, act) = first_durable_commit (Scheduler.wal_records t0) in
  let faults = Faults.make ~crash_after_appends:k () in
  let t, rms, procs = sched_run ~faults () in
  check Alcotest.bool "crashed" true (Scheduler.is_crashed t);
  match
    Scheduler.recover ~config:sched_config ~amnesia:true
      ~spec:(Generator.spec sched_params) ~rms ~procs (Scheduler.wal_records t)
  with
  | Error e -> Alcotest.fail e
  | Ok t2 ->
      Scheduler.run ~until:100000.0 t2;
      check Alcotest.bool "finished" true (Scheduler.finished t2);
      check Alcotest.bool "legal" true (Schedule.legal (Scheduler.history t2));
      check Alcotest.bool "PRED" true (Criteria.pred (Scheduler.history t2));
      check Alcotest.bool "no leaked prepared token" true
        (List.for_all (fun rm -> Rm.prepared_tokens rm = []) rms);
      let decided commit =
        List.exists
          (function
            | Wal.Prepared_decided { pid = p; act = a; commit = c } ->
                p = pid && a = act && c = commit
            | _ -> false)
          (Scheduler.wal_records t2)
      in
      check Alcotest.bool "presumed aborted" true (decided false);
      check Alcotest.bool "never committed" false (decided true)

(* ------------------------------------------------------------------ *)
(* satellite: Recovery.analyze is idempotent under duplicated and
   reordered Prepared_decided records *)

let test_analyze_dup_reorder () =
  let plan_string records =
    match Recovery.analyze ~procs:[ Fixtures.p1; Fixtures.p2 ] records with
    | Error e -> Alcotest.fail e
    | Ok plan -> Format.asprintf "%a" Recovery.pp plan
  in
  let decided = Wal.Prepared_decided { pid = 1; act = 2; commit = true } in
  let clean =
    [
      Wal.Process_registered 1;
      Wal.Invoked { pid = 1; act = 1 };
      Wal.Prepared { pid = 1; act = 2 };
      Wal.Process_registered 2;
      Wal.Invoked { pid = 2; act = 1 };
      decided;
    ]
  in
  let duplicated = clean @ [ decided; decided ] in
  let reordered =
    [
      Wal.Process_registered 1;
      Wal.Invoked { pid = 1; act = 1 };
      Wal.Prepared { pid = 1; act = 2 };
      decided;
      Wal.Process_registered 2;
      Wal.Invoked { pid = 2; act = 1 };
      decided;
    ]
  in
  let reference = plan_string clean in
  check Alcotest.string "duplicated decision records" reference
    (plan_string duplicated);
  check Alcotest.string "reordered decision records" reference
    (plan_string reordered)

let suite =
  [
    Alcotest.test_case "fault-free coordinator record sequence" `Quick
      test_fault_free_records;
    Alcotest.test_case "aborts are presumed, never logged" `Quick
      test_fault_free_abort_unlogged;
    Alcotest.test_case "retransmission drives through loss" `Quick
      test_retransmit_through_loss;
    Alcotest.test_case "duplicated messages are idempotent" `Quick
      test_duplicates_idempotent;
    Alcotest.test_case "inquiry termination protocol" `Quick test_inquiry_pulls_decision;
    Alcotest.test_case "Rm.is_prepared" `Quick test_is_prepared;
    Alcotest.test_case "durable commit never reversed by recovery" `Quick
      test_durable_commit_never_reversed;
    Alcotest.test_case "coordinator amnesia recovery" `Quick test_amnesia_recovery;
    Alcotest.test_case "analyze under duplicated/reordered decisions" `Quick
      test_analyze_dup_reorder;
  ]
