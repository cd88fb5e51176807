(* Write-ahead log and crash recovery: log round-trips, recovery analysis,
   and full crash/recover cycles of the scheduler (the group abort of
   Definition 8 after a scheduler failure). *)

open Tpm_core
module Wal = Tpm_wal.Wal
module Recovery = Tpm_wal.Recovery
module Scheduler = Tpm_scheduler.Scheduler
module Generator = Tpm_workload.Generator
module Cim = Tpm_workload.Cim
module Rm = Tpm_subsys.Rm
module Store = Tpm_kv.Store
module Value = Tpm_kv.Value
module Bufpool = Tpm_kv.Bufpool
module Obs = Tpm_obs.Obs

let check = Alcotest.check

let rm_log path =
  List.iter Sys.remove (Wal.segment_files path);
  if Sys.file_exists path then Sys.remove path

let test_wal_roundtrip () =
  let path = Filename.temp_file "tpm_wal" ".log" in
  let wal = Wal.create ~path () in
  let records =
    [
      Wal.Process_registered 1;
      Wal.Invoked { pid = 1; act = 1 };
      Wal.Prepared { pid = 1; act = 2 };
      Wal.Prepared_decided { pid = 1; act = 2; commit = true };
      Wal.Compensated { pid = 1; act = 1 };
      Wal.Commit_requested 1;
      Wal.Process_committed 1;
      Wal.Ckpt_begin { ckpt = 1 };
      Wal.Ckpt_end { ckpt = 1; committed = [ 1 ]; aborted = [] };
    ]
  in
  List.iter (Wal.append wal) records;
  Wal.close wal;
  check Alcotest.int "in-memory size" (List.length records) (Wal.size wal);
  let report = Wal.load path in
  check Alcotest.bool "file round-trip" true (report.Wal.records = records);
  check Alcotest.int "clean log has no anomalies" 0 (List.length report.Wal.anomalies);
  check Alcotest.int "every record has an extent" (List.length records)
    (List.length report.Wal.extents);
  rm_log path

(* Regression: [Wal.create] used to open the mirror with [open_out_bin],
   silently truncating — and thereby destroying — an existing log.  It must
   refuse unless the caller explicitly asks for a fresh log. *)
let test_create_refuses_existing_log () =
  let path = Filename.temp_file "tpm_wal_reopen" ".log" in
  let wal = Wal.create ~path () in
  Wal.append wal (Wal.Process_registered 1);
  Wal.close wal;
  (match Wal.create ~path () with
  | exception Invalid_argument _ -> ()
  | (_ : Wal.t) -> Alcotest.fail "reopening a nonempty log must be refused");
  check Alcotest.bool "refused create left the log intact" true
    (Wal.load_records path = [ Wal.Process_registered 1 ]);
  let wal2 = Wal.create ~path ~fresh:true () in
  Wal.append wal2 (Wal.Process_registered 2);
  Wal.close wal2;
  check Alcotest.bool "fresh:true starts over" true
    (Wal.load_records path = [ Wal.Process_registered 2 ]);
  rm_log path

(* The record kinds [Sync_each] forces, listed here independently of the
   WAL's own predicate: every record that witnesses an effect or decides
   an outcome.  The other seven kinds stay buffered until the next
   forcing append; a page write ([Kv_write]) rides its witness's fsync,
   a page snapshot ([Dirty_pages]) its checkpoint's. *)
let forcing = function
  | Wal.Invoked _ | Wal.Prepared _ | Wal.Prepared_decided _ | Wal.Compensated _
  | Wal.Process_committed _ | Wal.Process_aborted _ | Wal.Ckpt_end _ | Wal.Coord_begin _
  | Wal.Coord_committed _ -> true
  | Wal.Process_registered _ | Wal.Commit_requested _ | Wal.Abort_requested _
  | Wal.Ckpt_begin _ | Wal.Coord_forgotten _ | Wal.Kv_write _ | Wal.Dirty_pages _ -> false

(* the longest prefix of [records] that ends in a forcing record *)
let forced_prefix records =
  let last = ref 0 in
  List.iteri (fun i r -> if forcing r then last := i + 1) records;
  List.filteri (fun i _ -> i < !last) records

(* The default sync policy fsyncs exactly at the forcing records: a
   forcing append returns durable together with every lazy record before
   it, and a crash loses only a trailing run of lazy records. *)
let test_default_sync_is_durable () =
  let path = Filename.temp_file "tpm_wal_durable" ".log" in
  let records = [ Wal.Process_registered 1; Wal.Invoked { pid = 1; act = 1 } ] in
  let wal = Wal.create ~path () in
  List.iter (Wal.append wal) records;
  let st = Wal.stats wal in
  check Alcotest.int "one fsync per forcing record" 1 st.Wal.fsyncs;
  check Alcotest.int "the lazy registration rides along" 2 st.Wal.durable_records;
  Wal.append wal (Wal.Commit_requested 1);
  check Alcotest.int "a lazy record does not fsync" 1 (Wal.stats wal).Wal.fsyncs;
  check Alcotest.int "a lazy record stays pending" 1 (Wal.pending wal);
  Wal.crash_image wal;
  check Alcotest.bool "power loss takes only the trailing lazy record" true
    (Wal.load_records path = records);
  rm_log path;
  (* the next forcing append makes the lazy record durable *)
  let path1 = Filename.temp_file "tpm_wal_durable" ".log" in
  let wal1 = Wal.create ~path:path1 () in
  let records1 = records @ [ Wal.Commit_requested 1; Wal.Process_committed 1 ] in
  List.iter (Wal.append wal1) records1;
  check Alcotest.int "fsyncs = forcing records" 2 (Wal.stats wal1).Wal.fsyncs;
  Wal.crash_image wal1;
  check Alcotest.bool "a forcing append covers the lazy record before it" true
    (Wal.load_records path1 = records1);
  rm_log path1;
  (* under No_sync the same crash image loses the buffered tail *)
  let path2 = Filename.temp_file "tpm_wal_nosync" ".log" in
  let wal2 = Wal.create ~path:path2 ~sync:Wal.No_sync () in
  List.iter (Wal.append wal2) records;
  check Alcotest.int "No_sync never fsyncs" 0 (Wal.stats wal2).Wal.fsyncs;
  Wal.crash_image wal2;
  check Alcotest.bool "power loss erases unsynced appends" true (Wal.load_records path2 = []);
  rm_log path2

(* A lazy record that rolls the segment: the roll forces the seal (and
   every record before it), and the new, empty segment becomes the
   durable tail.  A crash then leaves that empty file, so a torn write
   lands in the final segment instead of after a seal, where it would
   read as corruption. *)
let test_lazy_record_rolls_segment () =
  let path = Filename.temp_file "tpm_wal_roll" ".log" in
  let wal = Wal.create ~path ~segment_bytes:64 () in
  Wal.append wal (Wal.Invoked { pid = 1; act = 1 });
  let pid = ref 1 in
  while (Wal.stats wal).Wal.segments = 1 do
    incr pid;
    Wal.append wal (Wal.Process_registered !pid)
  done;
  let durable = List.filteri (fun i _ -> i < Wal.size wal - 1) (Wal.records wal) in
  Wal.crash_image wal;
  let segs = Wal.segment_files path in
  check Alcotest.int "the new segment survives the crash" 2 (List.length segs);
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 (List.nth segs 1) in
  output_string oc "\x07\x03\x9a";
  close_out oc;
  let report = Wal.load path in
  check Alcotest.bool "image = everything before the rolling record" true
    (report.Wal.records = durable);
  check Alcotest.bool "the torn write is a torn tail" true
    (match report.Wal.anomalies with [ Wal.Torn_tail { segment = 1; _ } ] -> true | _ -> false);
  rm_log path

let gen_record =
  let open QCheck.Gen in
  let pid = int_range 1 4 and act = int_range 1 3 and cid = int_range 1 3 in
  let pids = list_size (int_bound 2) pid in
  oneof
    [
      map (fun p -> Wal.Process_registered p) pid;
      map2 (fun pid act -> Wal.Invoked { pid; act }) pid act;
      map2 (fun pid act -> Wal.Prepared { pid; act }) pid act;
      map3 (fun pid act commit -> Wal.Prepared_decided { pid; act; commit }) pid act bool;
      map2 (fun pid act -> Wal.Compensated { pid; act }) pid act;
      map (fun p -> Wal.Commit_requested p) pid;
      map (fun p -> Wal.Process_committed p) pid;
      map (fun p -> Wal.Abort_requested p) pid;
      map (fun p -> Wal.Process_aborted p) pid;
      map (fun ckpt -> Wal.Ckpt_begin { ckpt }) cid;
      map3 (fun ckpt committed aborted -> Wal.Ckpt_end { ckpt; committed; aborted }) cid pids
        pids;
      map3 (fun cid pid act -> Wal.Coord_begin { cid; pid; act; parts = [ "s0" ] }) cid pid act;
      map2 (fun cid pid -> Wal.Coord_committed { cid; pid }) cid pid;
      map2 (fun cid pid -> Wal.Coord_forgotten { cid; pid }) cid pid;
      map2
        (fun key del -> Wal.Kv_write { rm = "s0"; key; value = (if del then None else Some key) })
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 4))
        bool;
      map (fun pages -> Wal.Dirty_pages { rm = "s0"; pages }) (list_size (int_bound 2) (pair pid pid));
    ]

(* Property: under [Sync_each], for any record sequence, the crash image
   loads to exactly the longest prefix ending in a forcing record, after
   exactly one fsync per forcing record.  (The log stays in one segment:
   a segment roll forces the log itself.) *)
let prop_sync_each_crash_image =
  QCheck.Test.make ~count:200 ~name:"Sync_each crash image = longest forced prefix"
    (QCheck.make
       ~print:(fun rs -> String.concat "; " (List.map (Format.asprintf "%a" Wal.pp_record) rs))
       QCheck.Gen.(list_size (int_bound 24) gen_record))
    (fun records ->
      let path = Filename.temp_file "tpm_wal_prop" ".log" in
      Fun.protect
        ~finally:(fun () -> rm_log path)
        (fun () ->
          let wal = Wal.create ~path () in
          List.iter (Wal.append wal) records;
          let fsyncs = (Wal.stats wal).Wal.fsyncs in
          Wal.crash_image wal;
          let loaded = Wal.load path in
          if loaded.Wal.anomalies <> [] then QCheck.Test.fail_report "crash image not clean";
          if loaded.Wal.records <> forced_prefix records then
            QCheck.Test.fail_reportf "image holds %d records, forced prefix %d"
              (List.length loaded.Wal.records)
              (List.length (forced_prefix records));
          let forcing_n = List.length (List.filter forcing records) in
          if fsyncs <> forcing_n then
            QCheck.Test.fail_reportf "%d fsyncs for %d forcing records" fsyncs forcing_n;
          true))

let test_analyze_committed_process () =
  let p = Fixtures.p2 in
  let records =
    [
      Wal.Process_registered 2;
      Wal.Invoked { pid = 2; act = 1 };
      Wal.Invoked { pid = 2; act = 2 };
      Wal.Process_committed 2;
    ]
  in
  match Recovery.analyze ~procs:[ p ] records with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      check Alcotest.(list int) "committed" [ 2 ] plan.Recovery.committed;
      check Alcotest.int "no interrupted" 0 (List.length plan.Recovery.interrupted)

let test_analyze_interrupted_b_rec () =
  let p = Fixtures.p2 in
  let records =
    [
      Wal.Process_registered 2;
      Wal.Invoked { pid = 2; act = 1 };
      Wal.Invoked { pid = 2; act = 2 };
    ]
  in
  match Recovery.analyze ~procs:[ p ] records with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      match plan.Recovery.interrupted with
      | [ ip ] ->
          check Alcotest.bool "B-REC" true
            (Execution.recovery_state ip.Recovery.exec = Execution.B_rec);
          check Fixtures.instance_list "completion compensates in reverse"
            [ Fixtures.(Activity.Inverse (a2 2)); Fixtures.(Activity.Inverse (a2 1)) ]
            (Execution.completion ip.Recovery.exec)
      | _ -> Alcotest.fail "expected one interrupted process")

let test_analyze_interrupted_f_rec () =
  let p = Fixtures.p1 in
  let records =
    [
      Wal.Process_registered 1;
      Wal.Invoked { pid = 1; act = 1 };
      Wal.Invoked { pid = 1; act = 2 };
      Wal.Invoked { pid = 1; act = 3 };
    ]
  in
  match Recovery.analyze ~procs:[ p ] records with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      match plan.Recovery.interrupted with
      | [ ip ] ->
          check Alcotest.bool "F-REC" true
            (Execution.recovery_state ip.Recovery.exec = Execution.F_rec);
          check Fixtures.instance_list "forward completion (Example 2)"
            Fixtures.[ inv1 3; fwd1 5; fwd1 6 ]
            (Execution.completion ip.Recovery.exec)
      | _ -> Alcotest.fail "expected one interrupted process")

let test_analyze_in_doubt_trailing_prepared () =
  let p = Fixtures.p1 in
  let records =
    [
      Wal.Process_registered 1;
      Wal.Invoked { pid = 1; act = 1 };
      Wal.Prepared { pid = 1; act = 2 };
    ]
  in
  match Recovery.analyze ~procs:[ p ] records with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      match plan.Recovery.interrupted with
      | [ ip ] ->
          (* the trailing in-doubt pivot resolves to abort: backward recovery *)
          check Alcotest.(list int) "in-doubt resolved to abort" [ 2 ] ip.Recovery.in_doubt;
          check Alcotest.bool "B-REC" true
            (Execution.recovery_state ip.Recovery.exec = Execution.B_rec);
          check Fixtures.instance_list "completion" [ Fixtures.inv1 1 ]
            (Execution.completion ip.Recovery.exec)
      | _ -> Alcotest.fail "expected one interrupted process")

(* Regression: a Pending followed by later effects of the same process is
   still undecided.  An earlier revision resolved any non-final Pending to
   commit merely because later records followed it — with two concurrent
   prepares the first one's 2PC may be undecided when the second activity
   logs, and replaying it forward would resurrect an effect its subsystem
   presumes aborted. *)
let parallel_prepares =
  (* two parallel retriable (non-compensatable) activities — each gets its
     commit deferred through 2PC when a conflicting predecessor is still
     uncommitted, so both can be prepared-but-undecided at once *)
  Process.make_exn ~pid:7
    ~activities:
      [
        Fixtures.act ~proc:7 ~act:1 ~service:"w1" ~kind:Activity.Retriable;
        Fixtures.act ~proc:7 ~act:2 ~service:"w2" ~kind:Activity.Retriable;
      ]
    ~prec:[] ~pref:[]

let analyze_one records =
  match Recovery.analyze ~procs:[ parallel_prepares ] records with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      match plan.Recovery.interrupted with
      | [ ip ] -> ip
      | _ -> Alcotest.fail "expected one interrupted process")

let test_analyze_non_final_pending_presumed_abort () =
  (* a1 prepared (2PC undecided), then the parallel a2 logged its effect
     and the scheduler crashed *)
  let ip =
    analyze_one
      [
        Wal.Process_registered 7;
        Wal.Prepared { pid = 7; act = 1 };
        Wal.Invoked { pid = 7; act = 2 };
      ]
  in
  check Alcotest.(list int) "non-final pending presumed aborted" [ 1 ] ip.Recovery.in_doubt;
  check Alcotest.(list int) "no durable decision, nothing re-committed" []
    ip.Recovery.in_doubt_commit;
  check Fixtures.instance_list "only a2's effect survives"
    [ Activity.Forward (Process.find parallel_prepares 2) ]
    (Execution.effective_trace ip.Recovery.exec)

let test_analyze_two_concurrent_prepares () =
  (* both activities prepared concurrently, neither decided: both presumed
     aborted, regardless of log order *)
  let ip =
    analyze_one
      [
        Wal.Process_registered 7;
        Wal.Prepared { pid = 7; act = 1 };
        Wal.Prepared { pid = 7; act = 2 };
      ]
  in
  check Alcotest.(list int) "both prepares presumed aborted" [ 1; 2 ] ip.Recovery.in_doubt;
  check Fixtures.instance_list "no surviving effects" []
    (Execution.effective_trace ip.Recovery.exec);
  check Alcotest.bool "B-REC: nothing committed" true
    (Execution.recovery_state ip.Recovery.exec = Execution.B_rec)

let test_analyze_non_final_pending_durable_commit () =
  (* same shape, but a1's coordinator durably logged the commit decision:
     the pending resolves to commit and must be re-delivered *)
  let ip =
    analyze_one
      [
        Wal.Process_registered 7;
        Wal.Coord_begin { cid = 1; pid = 7; act = 1; parts = [ "A" ] };
        Wal.Prepared { pid = 7; act = 1 };
        Wal.Coord_committed { cid = 1; pid = 7 };
        Wal.Invoked { pid = 7; act = 2 };
      ]
  in
  check Alcotest.(list int) "durable decision re-committed" [ 1 ] ip.Recovery.in_doubt_commit;
  check Alcotest.(list int) "nothing presumed aborted" [] ip.Recovery.in_doubt;
  check Fixtures.instance_list "both effects survive"
    [
      Activity.Forward (Process.find parallel_prepares 1);
      Activity.Forward (Process.find parallel_prepares 2);
    ]
    (Execution.effective_trace ip.Recovery.exec)

(* Regression: recovery re-delivers a durably committed in-doubt prepare
   by logging its decision ahead of everything else, then re-appends the
   occurrence as [Invoked] at the decision's place in the replay.
   Analyzing that recovered log used to count the occurrence twice, so
   recovering it again rebuilt a different history (crash sweep, seeds
   11 and 13, Deferred and Quasi). *)
let test_analyze_recovered_log_counts_redelivery_once () =
  let a n = Process.find parallel_prepares n in
  match
    Recovery.analyze ~procs:[ parallel_prepares ]
      [
        Wal.Prepared_decided { pid = 7; act = 1; commit = true };
        Wal.Process_registered 7;
        Wal.Abort_requested 7;
        Wal.Invoked { pid = 7; act = 2 };
        Wal.Invoked { pid = 7; act = 1 };
      ]
  with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      check Alcotest.int "one occurrence per activity" 2 (List.length plan.Recovery.replay);
      check Alcotest.bool "the occurrence sits at its Invoked" true
        (plan.Recovery.replay
        = [ Schedule.Act (Activity.Forward (a 2)); Schedule.Act (Activity.Forward (a 1)) ])

let test_analyze_missing_process () =
  let records = [ Wal.Process_registered 9; Wal.Invoked { pid = 9; act = 1 } ] in
  match Recovery.analyze ~procs:[] records with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for unregistered process"

(* Full crash/recovery cycle on the CIM scenario. *)
let test_crash_recovery_cim () =
  let parts = [ "boiler" ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let t = Scheduler.create ~spec ~rms () in
  let construction = Cim.construction ~pid:1 ~part:"boiler" in
  let production = Cim.production ~pid:2 ~part:"boiler" in
  Scheduler.submit t ~args_of:Cim.args_of construction;
  Scheduler.submit t ~at:2.5 ~args_of:Cim.args_of production;
  (* crash mid-flight: construction has committed design + pdm_entry + test *)
  Scheduler.run ~until:4.6 t;
  let records = Scheduler.crash t in
  check Alcotest.bool "not finished at crash" false (Scheduler.finished t);
  match Scheduler.recover ~spec ~rms ~procs:[ construction; production ] records with
  | Error e -> Alcotest.fail e
  | Ok t2 ->
      Scheduler.run t2;
      check Alcotest.bool "recovery finished" true (Scheduler.finished t2);
      (* the recovered history replays the pre-crash events: it is the
         complete global schedule *)
      let stitched = Scheduler.history t2 in
      check Alcotest.bool "recovered schedule legal" true (Schedule.legal stitched);
      check Alcotest.bool "recovered schedule RED" true (Criteria.red stitched);
      (* construction was in F-REC: recovery finishes it forward *)
      check Alcotest.bool "construction recovered committing" true
        (Scheduler.status t2 1 = Schedule.Committed);
      let pdm = List.find (fun rm -> Rm.name rm = "pdm") rms in
      check Alcotest.bool "BOM present after forward recovery" true
        (Store.get (Rm.store pdm) "bom:boiler" <> Value.Nil)

(* Crash while a prepared (deferred-commit) invocation is in doubt. *)
let test_crash_with_in_doubt_prepared () =
  let parts = [ "boiler" ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let config =
    {
      Scheduler.default_config with
      service_time = (fun s -> if s = "tech_doc:boiler" then 8.0 else 1.0);
    }
  in
  let t = Scheduler.create ~config ~spec ~rms () in
  let construction = Cim.construction ~pid:1 ~part:"boiler" in
  let production = Cim.production ~pid:2 ~part:"boiler" in
  Scheduler.submit t ~args_of:Cim.args_of construction;
  Scheduler.submit t ~at:2.5 ~args_of:Cim.args_of production;
  (* by t=9 production prepared its pivot (produce) and waits for C_1 *)
  Scheduler.run ~until:9.0 t;
  let records = Scheduler.crash t in
  let productdb = List.find (fun rm -> Rm.name rm = "productdb") rms in
  let prepared_before = Rm.prepared_tokens productdb in
  check Alcotest.bool "a prepared invocation survives the crash" true (prepared_before <> []);
  match Scheduler.recover ~config ~spec ~rms ~procs:[ construction; production ] records with
  | Error e -> Alcotest.fail e
  | Ok t2 ->
      check Alcotest.(list int) "in-doubt prepared resolved (aborted)" []
        (Rm.prepared_tokens productdb);
      Scheduler.run t2;
      check Alcotest.bool "recovery finished" true (Scheduler.finished t2);
      check Alcotest.bool "no part produced by the aborted pivot" true
        (Store.get (Rm.store productdb) "produced:boiler" = Value.Nil)

(* Random workloads: crash at an arbitrary point, recover, verify that
   every store key reflects exactly the net effects of the stitched
   schedule. *)
let test_crash_recovery_random () =
  List.iter
    (fun (seed, crash_at) ->
      let params = { Generator.default_params with services = 8; conflict_density = 0.25 } in
      let rms = Generator.rms params ~seed () in
      let spec = Generator.spec params in
      let config = { Scheduler.default_config with seed } in
      let t = Scheduler.create ~config ~spec ~rms () in
      let procs = Generator.batch ~seed:(seed * 10) params ~n:5 in
      List.iteri (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p) procs;
      Scheduler.run ~until:crash_at t;
      let records = Scheduler.crash t in
      match Scheduler.recover ~config ~spec ~rms ~procs records with
      | Error e -> Alcotest.fail e
      | Ok t2 ->
          Scheduler.run t2;
          check Alcotest.bool
            (Printf.sprintf "seed %d: recovery finished" seed)
            true (Scheduler.finished t2);
          let stitched = Scheduler.history t2 in
          check Alcotest.bool
            (Printf.sprintf "seed %d: recovered schedule RED" seed)
            true (Criteria.red stitched);
          (* net effects: every svcN forward adds 1 to kN, every inverse
             subtracts 1; stores must agree with the stitched schedule *)
          let net = Hashtbl.create 8 in
          List.iter
            (fun inst ->
              let svc = (Activity.instance_base inst).Activity.service in
              match String.index_opt svc '_' with
              | Some _ -> ()  (* inverse services only appear via compensate *)
              | None ->
                  let delta = if Activity.is_inverse inst then -1 else 1 in
                  let cur = Option.value ~default:0 (Hashtbl.find_opt net svc) in
                  Hashtbl.replace net svc (cur + delta))
            (Schedule.activities stitched);
          Hashtbl.iter
            (fun svc expected ->
              let idx = int_of_string (String.sub svc 3 (String.length svc - 3)) in
              let key = Printf.sprintf "k%d" idx in
              let total =
                List.fold_left
                  (fun acc rm ->
                    match Store.get (Rm.store rm) key with
                    | Value.Int n -> acc + n
                    | _ -> acc)
                  0 rms
              in
              check Alcotest.int
                (Printf.sprintf "seed %d: net effect on %s" seed key)
                expected total)
            net)
    [ (3, 2.5); (7, 4.0); (11, 6.5); (13, 1.0) ]

let suite =
  [
    Alcotest.test_case "wal file round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "create refuses an existing log" `Quick test_create_refuses_existing_log;
    Alcotest.test_case "default sync policy is durable" `Quick test_default_sync_is_durable;
    QCheck_alcotest.to_alcotest prop_sync_each_crash_image;
    Alcotest.test_case "a lazy record that rolls the segment" `Quick
      test_lazy_record_rolls_segment;
    Alcotest.test_case "analyze: committed process" `Quick test_analyze_committed_process;
    Alcotest.test_case "analyze: interrupted in B-REC" `Quick test_analyze_interrupted_b_rec;
    Alcotest.test_case "analyze: interrupted in F-REC" `Quick test_analyze_interrupted_f_rec;
    Alcotest.test_case "analyze: trailing in-doubt prepared" `Quick
      test_analyze_in_doubt_trailing_prepared;
    Alcotest.test_case "analyze: non-final pending presumed aborted" `Quick
      test_analyze_non_final_pending_presumed_abort;
    Alcotest.test_case "analyze: two concurrent prepares" `Quick
      test_analyze_two_concurrent_prepares;
    Alcotest.test_case "analyze: non-final pending with durable commit" `Quick
      test_analyze_non_final_pending_durable_commit;
    Alcotest.test_case "analyze: recovered log counts a re-delivery once" `Quick
      test_analyze_recovered_log_counts_redelivery_once;
    Alcotest.test_case "analyze: missing process definition" `Quick test_analyze_missing_process;
    Alcotest.test_case "crash/recovery on CIM" `Quick test_crash_recovery_cim;
    Alcotest.test_case "crash with in-doubt prepared" `Quick test_crash_with_in_doubt_prepared;
    Alcotest.test_case "crash/recovery on random workloads" `Quick test_crash_recovery_random;
  ]

(* --- checkpointing and log compaction --- *)

let test_compact_drops_closed_records () =
  let records =
    [
      Wal.Process_registered 1;
      Wal.Invoked { pid = 1; act = 1 };
      Wal.Process_committed 1;
      Wal.Process_registered 2;
      Wal.Invoked { pid = 2; act = 1 };
      Wal.Ckpt_begin { ckpt = 1 };
      Wal.Ckpt_end { ckpt = 1; committed = [ 1 ]; aborted = [] };
      Wal.Invoked { pid = 2; act = 2 };
    ]
  in
  let compacted = Wal.compact records in
  check Alcotest.bool "P1's records dropped" true
    (not (List.mem (Wal.Invoked { pid = 1; act = 1 }) compacted));
  check Alcotest.bool "P2's records kept" true
    (List.mem (Wal.Invoked { pid = 2; act = 1 }) compacted
    && List.mem (Wal.Invoked { pid = 2; act = 2 }) compacted);
  check Alcotest.bool "checkpoint kept" true
    (List.exists (function Wal.Ckpt_end _ -> true | _ -> false) compacted)

let test_compact_preserves_recovery_plan () =
  let parts = [ "boiler" ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let construction = Cim.construction ~pid:1 ~part:"boiler" in
  let production = Cim.production ~pid:2 ~part:"boiler" in
  let t = Scheduler.create ~spec ~rms () in
  Scheduler.submit t ~args_of:Cim.args_of construction;
  (* construction commits around t=4; checkpoint it, then start production
     and crash it mid-flight *)
  Scheduler.run ~until:4.5 t;
  Scheduler.checkpoint t;
  Scheduler.submit t ~at:5.0 ~args_of:Cim.args_of production;
  Scheduler.run ~until:7.5 t;
  let records = Scheduler.crash t in
  let compacted = Wal.compact records in
  check Alcotest.bool "compaction shrinks the log" true
    (List.length compacted < List.length records);
  let procs = [ construction; production ] in
  match (Recovery.analyze ~procs records, Recovery.analyze ~procs compacted) with
  | Ok full, Ok small -> Fixtures.check_same_plan "compacted" full small
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_recover_from_compacted_log () =
  let parts = [ "boiler" ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let construction = Cim.construction ~pid:1 ~part:"boiler" in
  let production = Cim.production ~pid:2 ~part:"boiler" in
  let t = Scheduler.create ~spec ~rms () in
  Scheduler.submit t ~args_of:Cim.args_of construction;
  Scheduler.run ~until:4.5 t;
  Scheduler.checkpoint t;
  Scheduler.submit t ~at:5.0 ~args_of:Cim.args_of production;
  Scheduler.run ~until:7.5 t;
  let compacted = Wal.compact (Scheduler.crash t) in
  match Scheduler.recover ~spec ~rms ~procs:[ construction; production ] compacted with
  | Error e -> Alcotest.fail e
  | Ok t2 ->
      Scheduler.run t2;
      check Alcotest.bool "recovery finished" true (Scheduler.finished t2);
      check Alcotest.bool "construction still committed" true
        (Scheduler.status t2 1 = Schedule.Committed)

(* A crash can tear the final record of the mirrored log; load must return
   the intact prefix instead of failing.  Cut the real writer's bytes at
   two points inside the final frame: mid-payload and mid-header. *)
let test_load_tolerates_torn_tail () =
  let records =
    [
      Wal.Process_registered 1;
      Wal.Invoked { pid = 1; act = 1 };
      Wal.Prepared { pid = 1; act = 2 };
      Wal.Process_committed 1;
    ]
  in
  let kept = List.filteri (fun i _ -> i < 3) records in
  List.iter
    (fun cut_back ->
      let path = Filename.temp_file "tpm_wal_torn" ".log" in
      let wal = Wal.create ~path () in
      List.iter (Wal.append wal) records;
      Wal.close wal;
      let report = Wal.load path in
      let seg, off, len =
        List.nth report.Wal.extents (List.length report.Wal.extents - 1)
      in
      let seg_file = List.nth (Wal.segment_files path) seg in
      Wal.Chaos.truncate ~path:seg_file ~bytes:(off + len - cut_back);
      let torn = Wal.load path in
      check Alcotest.bool "torn tail dropped, prefix intact" true (torn.Wal.records = kept);
      check Alcotest.bool "classified as torn" true
        (match torn.Wal.anomalies with [ Wal.Torn_tail _ ] -> true | _ -> false);
      rm_log path)
    [ 3; (* mid-payload *) 11 (* header only partially present *) ]

(* Mid-log corruption is not a torn tail: load must refuse the log and name
   the damaged record instead of silently returning a truncated prefix (which
   recovery would then treat as a complete, shorter history). *)
let test_load_raises_on_midlog_corruption () =
  let records =
    [ Wal.Process_registered 1; Wal.Invoked { pid = 1; act = 1 }; Wal.Process_committed 1 ]
  in
  let path = Filename.temp_file "tpm_wal_corrupt" ".log" in
  let wal = Wal.create ~path () in
  List.iter (Wal.append wal) records;
  Wal.close wal;
  (* flip one payload bit of the second record in place *)
  let seg, off, _len = List.nth (Wal.load path).Wal.extents 1 in
  let seg_file = List.nth (Wal.segment_files path) seg in
  Wal.Chaos.flip_bit ~path:seg_file ~byte:(off + 8) ~bit:3;
  (match Wal.load path with
  | exception Wal.Corrupt { segment; index; _ } ->
      check Alcotest.int "damaged record named" 1 index;
      check Alcotest.int "damaged segment named" 0 segment
  | report ->
      Alcotest.fail
        (Printf.sprintf "expected Wal.Corrupt, got %d records"
           (List.length report.Wal.records)));
  (* salvage quarantines from the damage to the segment's end *)
  let salvaged = Wal.load ~policy:Wal.Salvage path in
  check Alcotest.bool "salvage keeps the intact prefix" true
    (salvaged.Wal.records = [ Wal.Process_registered 1 ]);
  check Alcotest.bool "salvage reports the corruption" true
    (List.exists
       (function Wal.Corrupt_record { index = 1; _ } -> true | _ -> false)
       salvaged.Wal.anomalies);
  check Alcotest.bool "salvage quarantined the damaged bytes" true
    (salvaged.Wal.quarantined_bytes > 0);
  rm_log path

(* The crash may land anywhere around a checkpoint; on every prefix of the
   log, compacting first must not change the recovery plan. *)
let test_compact_analyze_equivalent_on_all_prefixes () =
  let parts = [ "boiler" ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let construction = Cim.construction ~pid:1 ~part:"boiler" in
  let production = Cim.production ~pid:2 ~part:"boiler" in
  let t = Scheduler.create ~spec ~rms () in
  Scheduler.submit t ~args_of:Cim.args_of construction;
  Scheduler.run ~until:4.5 t;
  Scheduler.checkpoint t;
  Scheduler.submit t ~at:5.0 ~args_of:Cim.args_of production;
  Scheduler.run t;
  Scheduler.checkpoint t;
  let records = Scheduler.crash t in
  let procs = [ construction; production ] in
  let n = List.length records in
  check Alcotest.bool "log spans two checkpoints" true
    (List.length (List.filter (function Wal.Ckpt_end _ -> true | _ -> false) records) = 2);
  for len = 0 to n do
    let prefix = List.filteri (fun i _ -> i < len) records in
    match (Recovery.analyze ~procs prefix, Recovery.analyze ~procs (Wal.compact prefix)) with
    | Ok full, Ok small -> Fixtures.check_same_plan (Printf.sprintf "prefix %d" len) full small
    | Error e, _ | _, Error e ->
        Alcotest.fail (Printf.sprintf "prefix %d: analyze failed: %s" len e)
  done

let with_tmp_wal_dir f =
  let dir = Filename.temp_file "tpm_seg" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f (Filename.concat dir "wal.log"))

(* Property: compaction never changes the recovery plan.  Randomized
   workload logs, crashed at arbitrary points, with two checkpoint spans
   ([Ckpt_begin]/[Ckpt_end]) spliced in at random positions.  Each end
   names exactly the processes the records before it closed, which is
   what [Scheduler.checkpoint] would have logged there.  The first
   process is asked to abort, so the ends name aborted processes too.
   With [~sharp_even], the first span has width 0 on even trials (the
   default checkpoint's shape); the other spans may cover records and
   each other.  Page-store noise
   ([Kv_write], [Dirty_pages]) is sprinkled through the log: it is
   invisible to process recovery.  The plan must agree whether the log
   is analyzed directly, compacted first, or round-tripped through a
   real segmented on-disk WAL, whose tiny segments put the spans at,
   inside and across segment boundaries. *)
let compact_analyze_property ~rng ~sharp_even seeds =
  let rand = Random.State.make [| rng |] in
  let terminals_before records e =
    List.filteri (fun i _ -> i < e) records
    |> List.fold_left
         (fun (c, a) r ->
           match r with
           | Wal.Process_committed pid -> (pid :: c, a)
           | Wal.Process_aborted pid -> (c, pid :: a)
           | _ -> (c, a))
         ([], [])
  in
  let splice_span rand ~sharp ~ckpt records =
    let n = List.length records in
    let b = Random.State.int rand (n + 1) in
    let e = if sharp then b else b + Random.State.int rand (n + 1 - b) in
    let committed, aborted = terminals_before records e in
    let rec go i rs =
      let here =
        (if i = b then [ Wal.Ckpt_begin { ckpt } ] else [])
        @ if i = e then [ Wal.Ckpt_end { ckpt; committed; aborted } ] else []
      in
      match rs with [] -> here | r :: rest -> here @ (r :: go (i + 1) rest)
    in
    go 0 records
  in
  let splice_kv rand records =
    List.concat_map
      (fun r ->
        let noise =
          match Random.State.int rand 6 with
          | 0 -> [ Wal.Kv_write { rm = "ss0"; key = "k"; value = Some "v" } ]
          | 1 -> [ Wal.Dirty_pages { rm = "ss0"; pages = [ (0, 1); (3, 2) ] } ]
          | _ -> []
        in
        noise @ [ r ])
      records
  in
  List.iter
    (fun seed ->
      let params = { Generator.default_params with services = 8; conflict_density = 0.3 } in
      let rms = Generator.rms params ~seed () in
      let spec = Generator.spec params in
      let config = { Scheduler.default_config with seed } in
      let t = Scheduler.create ~config ~spec ~rms () in
      let procs = Generator.batch ~seed:(seed * 17) params ~n:4 in
      List.iteri (fun i p -> Scheduler.submit t ~at:(0.4 *. float_of_int i) p) procs;
      Scheduler.request_abort t ~at:0.5 (Process.pid (List.hd procs));
      Scheduler.run ~until:(1.0 +. Random.State.float rand 20.0) t;
      let organic = Scheduler.crash t in
      for trial = 0 to 3 do
        let log =
          organic
          |> splice_span rand ~sharp:(sharp_even && trial mod 2 = 0) ~ckpt:1
          |> splice_span rand ~sharp:false ~ckpt:2
          |> splice_kv rand
        in
        let tag = Printf.sprintf "seed %d trial %d" seed trial in
        (* memory: compaction preserves the plan across spans *)
        (match (Recovery.analyze ~procs log, Recovery.analyze ~procs (Wal.compact log)) with
        | Ok full, Ok small -> Fixtures.check_same_plan tag full small
        | Error e, _ | _, Error e -> Alcotest.fail (tag ^ ": analyze failed: " ^ e));
        (* disk: the same log through a real segmented WAL, spans landing
           wherever the tiny segment size puts them *)
        with_tmp_wal_dir @@ fun path ->
        let wal = Wal.create ~path ~segment_bytes:160 ~sync:Wal.No_sync () in
        List.iter (Wal.append wal) log;
        Wal.close wal;
        check Alcotest.bool (tag ^ ": log spans several segments") true
          (List.length (Wal.segment_files path) >= 2);
        let report = Wal.load path in
        check Alcotest.int (tag ^ ": clean disk round-trip") 0
          (List.length report.Wal.anomalies);
        check Alcotest.bool (tag ^ ": records survive the disk round-trip") true
          (report.Wal.records = log);
        match
          ( Recovery.analyze ~procs report.Wal.records,
            Recovery.analyze ~procs (Wal.compact report.Wal.records) )
        with
        | Ok full, Ok small -> Fixtures.check_same_plan (tag ^ " (disk)") full small
        | Error e, _ | _, Error e -> Alcotest.fail (tag ^ ": disk analyze failed: " ^ e)
      done)
    seeds

let test_compact_analyze_random_checkpoints () =
  compact_analyze_property ~rng:0xC0FFEE ~sharp_even:true [ 21; 23; 29; 31 ]

(* Every span fuzzy: begin and end may straddle records, each other and
   segment boundaries. *)
let test_compact_analyze_fuzzy_spans_segmented () =
  compact_analyze_property ~rng:0xF422 ~sharp_even:false [ 41; 43; 47 ]

(* A fuzzy span whose window holds a [Dirty_pages] snapshot, records of
   the process its [Ckpt_end] closes (P1) and records of a process still
   open (P2, interrupted after its pivot): the full and the compacted
   log give the same plan.  The cut is the [Ckpt_end]: P2 keeps every
   record, P1 none, its window record included. *)
let test_compact_fuzzy_window () =
  let records =
    [
      Wal.Process_registered 1;
      Wal.Invoked { pid = 1; act = 1 };
      Wal.Process_registered 2;
      Wal.Invoked { pid = 2; act = 1 };
      Wal.Ckpt_begin { ckpt = 1 };
      Wal.Invoked { pid = 1; act = 2 };
      Wal.Invoked { pid = 2; act = 2 };
      Wal.Process_committed 1;
      Wal.Dirty_pages { rm = "r"; pages = [ (0, 4) ] };
      Wal.Ckpt_end { ckpt = 1; committed = [ 1 ]; aborted = [] };
      Wal.Invoked { pid = 2; act = 3 };
    ]
  in
  let compacted = Wal.compact records in
  check Alcotest.bool "P2's records kept" true
    (List.for_all
       (fun act -> List.mem (Wal.Invoked { pid = 2; act }) compacted)
       [ 1; 2; 3 ]);
  check Alcotest.bool "P1's window record dropped" false
    (List.mem (Wal.Invoked { pid = 1; act = 2 }) compacted);
  let procs = [ Fixtures.p1; Fixtures.p2 ] in
  match (Recovery.analyze ~procs records, Recovery.analyze ~procs compacted) with
  | Ok full, Ok small ->
      Fixtures.check_same_plan "fuzzy window" full small;
      check Alcotest.(list int) "P1 committed" [ 1 ] small.Recovery.committed;
      check Alcotest.int "P2 interrupted" 1 (List.length small.Recovery.interrupted)
  | Error e, _ | _, Error e -> Alcotest.fail ("analyze failed: " ^ e)

(* Organic fuzzy checkpoint: [Scheduler.checkpoint] with a positive
   window logs the begin/end span on the virtual clock while the workload keeps running
   inside it; a crash after the span must recover identically from the
   full and the compacted log, and a crash *inside* the span (end never
   logged) must leave the plan unchanged too. *)
let test_fuzzy_checkpoint_scheduler () =
  let parts = [ "boiler" ] in
  let rms = Cim.rms ~parts () in
  let spec = Cim.spec ~parts in
  let construction = Cim.construction ~pid:1 ~part:"boiler" in
  let production = Cim.production ~pid:2 ~part:"boiler" in
  let t = Scheduler.create ~spec ~rms () in
  Scheduler.submit t ~args_of:Cim.args_of construction;
  Scheduler.run ~until:4.5 t;
  Scheduler.checkpoint ~window:0.8 t;
  Scheduler.submit t ~at:5.0 ~args_of:Cim.args_of production;
  Scheduler.run t;
  let records = Scheduler.crash t in
  let begins = List.filter (function Wal.Ckpt_begin _ -> true | _ -> false) records in
  let ends =
    List.filter_map
      (function Wal.Ckpt_end { committed; _ } -> Some committed | _ -> None)
      records
  in
  check Alcotest.int "one fuzzy begin" 1 (List.length begins);
  (match ends with
  | [ committed ] ->
      check Alcotest.(list int) "end names the closed process" [ 1 ] committed
  | _ -> Alcotest.fail "expected exactly one Ckpt_end");
  let procs = [ construction; production ] in
  (* full vs compacted agree, and recovery from the compacted log finishes *)
  (match (Recovery.analyze ~procs records, Recovery.analyze ~procs (Wal.compact records)) with
  | Ok full, Ok small -> Fixtures.check_same_plan "organic fuzzy span" full small
  | Error e, _ | _, Error e -> Alcotest.fail ("analyze failed: " ^ e));
  (match Scheduler.recover ~spec ~rms ~procs (Wal.compact records) with
  | Ok t2 ->
      Scheduler.run t2;
      check Alcotest.bool "recovered run finishes both processes" true
        (Scheduler.finished t2)
  | Error e -> Alcotest.fail ("recover failed: " ^ e));
  (* crash inside the span: drop the Ckpt_end and every later record *)
  let inside =
    let n = ref 0 in
    List.filter
      (fun r ->
        (match r with Wal.Ckpt_end _ -> incr n | _ -> ());
        !n = 0)
      records
  in
  match (Recovery.analyze ~procs inside, Recovery.analyze ~procs (Wal.compact inside)) with
  | Ok full, Ok small -> Fixtures.check_same_plan "crash inside the span" full small
  | Error e, _ | _, Error e -> Alcotest.fail ("analyze failed inside span: " ^ e)

(* Group commit must change only durability batching, never the log
   contents: the record stream is identical across sync policies, and the
   batched policy reaches it with strictly fewer fsyncs. *)
let test_group_commit_scheduler () =
  let run_policy sync =
    with_tmp_wal_dir @@ fun path ->
    let parts = [ "boiler" ] in
    let rms = Cim.rms ~parts () in
    let spec = Cim.spec ~parts in
    let config = { Scheduler.default_config with wal_sync = sync } in
    let t = Scheduler.create ~config ~spec ~rms ~wal_path:path () in
    Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part:"boiler");
    Scheduler.submit t ~at:0.3 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part:"boiler");
    Scheduler.run t;
    let stats = Wal.stats (Scheduler.wal t) in
    let records = Scheduler.crash t in
    let on_disk = Wal.load_records path in
    check Alcotest.bool "disk image matches memory after quiescent run" true
      (on_disk = records);
    (records, stats)
  in
  let each, each_stats = run_policy Wal.Sync_each in
  let group, group_stats = run_policy (Wal.Group 0.2) in
  check Alcotest.bool "identical record stream across sync policies" true (each = group);
  check Alcotest.bool "group commit coalesces fsyncs" true
    (group_stats.Wal.fsyncs < each_stats.Wal.fsyncs);
  check Alcotest.bool "some batch held more than one record" true
    (group_stats.Wal.max_batch > 1);
  check Alcotest.int "group commit loses nothing once quiescent"
    each_stats.Wal.durable_records group_stats.Wal.durable_records

(* Under [Sync_each] a page write does not force the log; it rides the
   fsync of the record that witnesses its local commit.  So whenever an
   activity occurrence or a process commit is announced, the durable log
   covers every page write appended so far.  The run is shaped like the
   durable benchmark: paged 4-frame stores, 24 processes, 5 % invocation
   failures, 2PC rounds, and one abort request so compensations write
   pages too. *)
let test_page_writes_durable_at_witness () =
  with_tmp_wal_dir @@ fun path ->
  let dir = Filename.dirname path in
  let params =
    {
      Generator.default_params with
      services = 10;
      conflict_density = 0.1;
      activities_min = 3;
      activities_max = 6;
      subsystems = 3;
    }
  in
  let seed = 7 in
  let registry = Generator.registry params in
  let rms =
    List.init params.Generator.subsystems (fun i ->
        let name = Printf.sprintf "ss%d" i in
        let store =
          Store.create_paged ~frames:4 ~page_size:1024 (Filename.concat dir (name ^ ".pages"))
        in
        Rm.create ~name ~registry ~fail_prob:(fun _ -> 0.05) ~seed:(seed + i) ~store ())
  in
  let sched = ref None in
  let witnessed = ref 0 and uncovered = ref [] in
  let sink =
    Obs.Sink.make (fun ts ev ->
        match (ev, !sched) with
        | (Obs.Occurrence _ | Obs.Commit _), Some t ->
            let last_kv = ref 0 in
            List.iteri
              (fun i r -> match r with Wal.Kv_write _ -> last_kv := i + 1 | _ -> ())
              (Scheduler.wal_records t);
            incr witnessed;
            if (Wal.stats (Scheduler.wal t)).Wal.durable_records < !last_kv then
              uncovered := ts :: !uncovered
        | _ -> ())
  in
  let tracer = Obs.Tracer.create ~ring_capacity:0 ~sinks:[ sink ] () in
  let config = { Scheduler.default_config with seed } in
  let t =
    Scheduler.create ~config ~tracer ~spec:(Generator.spec params) ~rms ~wal_path:path ()
  in
  sched := Some t;
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(float_of_int i) p)
    (Generator.batch ~seed params ~n:24);
  Scheduler.request_abort t ~at:4.0 3;
  Scheduler.run t;
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Tpm_sim.Metrics.counters (Scheduler.metrics t)))
  in
  let records = Scheduler.wal_records t in
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "page writes were logged" true
    (List.exists (function Wal.Kv_write _ -> true | _ -> false) records);
  check Alcotest.bool "2PC rounds ran" true (counter "twopc_commits" > 0);
  check Alcotest.bool "compensations ran" true (counter "compensations" > 0);
  check Alcotest.bool "witness events seen" true (!witnessed > 0);
  check Alcotest.(list (float 0.0)) "durable covers the last page write at every witness" []
    (List.rev !uncovered);
  ignore (Scheduler.crash t);
  List.iter
    (fun rm ->
      Option.iter
        (fun pool -> Tpm_kv.Pager.close (Bufpool.pager pool))
        (Store.bufpool (Rm.store rm)))
    rms

(* A checkpoint's [Dirty_pages] snapshots ride the seal's next force:
   the next paged store's flush or the [Ckpt_end].  So a [Sync_each]
   checkpoint over three paged stores, each with dirty pages, costs at
   most N+1 = 4 fsyncs (forcing every snapshot costs N+2), and leaves
   the whole span durable. *)
let test_checkpoint_fsyncs () =
  with_tmp_wal_dir @@ fun path ->
  let dir = Filename.dirname path in
  let params = { Generator.default_params with services = 6; subsystems = 3 } in
  let seed = 3 in
  let registry = Generator.registry params in
  let rms =
    List.init params.Generator.subsystems (fun i ->
        let name = Printf.sprintf "ss%d" i in
        let store =
          Store.create_paged ~frames:8 ~page_size:1024 (Filename.concat dir (name ^ ".pages"))
        in
        Rm.create ~name ~registry ~seed:(seed + i) ~store ())
  in
  let config = { Scheduler.default_config with seed } in
  let t = Scheduler.create ~config ~spec:(Generator.spec params) ~rms ~wal_path:path () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(float_of_int i) p)
    (Generator.batch ~seed params ~n:8);
  Scheduler.run t;
  let pools = List.filter_map (fun rm -> Store.bufpool (Rm.store rm)) rms in
  check Alcotest.bool "every store has dirty pages" true
    (List.for_all (fun pool -> Bufpool.dirty_page_table pool <> []) pools);
  let fsyncs () = Tpm_sim.Metrics.count (Scheduler.metrics t) "wal_fsyncs" in
  let before = fsyncs () in
  Scheduler.checkpoint t;
  check Alcotest.int "N+1 fsyncs for N = 3 paged stores" 4 (fsyncs () - before);
  check Alcotest.int "three snapshots logged" 3
    (List.length
       (List.filter (function Wal.Dirty_pages _ -> true | _ -> false) (Scheduler.wal_records t)));
  let st = Wal.stats (Scheduler.wal t) in
  check Alcotest.int "the span is durable" st.Wal.acked_records st.Wal.durable_records;
  check Alcotest.int "nothing buffered" 0 (Wal.pending (Scheduler.wal t));
  ignore (Scheduler.crash t);
  List.iter (fun pool -> Tpm_kv.Pager.close (Bufpool.pager pool)) pools

let checkpoint_suite =
  [
    Alcotest.test_case "compact drops closed records" `Quick test_compact_drops_closed_records;
    Alcotest.test_case "compaction preserves the recovery plan" `Quick
      test_compact_preserves_recovery_plan;
    Alcotest.test_case "recover from a compacted log" `Quick test_recover_from_compacted_log;
    Alcotest.test_case "load tolerates a torn final record" `Quick test_load_tolerates_torn_tail;
    Alcotest.test_case "load raises on mid-log corruption" `Quick
      test_load_raises_on_midlog_corruption;
    Alcotest.test_case "compact/analyze agree on every crash prefix" `Quick
      test_compact_analyze_equivalent_on_all_prefixes;
    Alcotest.test_case "compact/analyze agree on random checkpointed logs" `Quick
      test_compact_analyze_random_checkpoints;
    Alcotest.test_case "fuzzy spans on segmented logs preserve the plan" `Quick
      test_compact_analyze_fuzzy_spans_segmented;
    Alcotest.test_case "scheduler fuzzy checkpoint crash/recover" `Quick
      test_fuzzy_checkpoint_scheduler;
    Alcotest.test_case "compaction of a fuzzy window keeps the plan" `Quick
      test_compact_fuzzy_window;
    Alcotest.test_case "group commit: same log, fewer fsyncs" `Quick
      test_group_commit_scheduler;
    Alcotest.test_case "page writes are durable at every witness" `Quick
      test_page_writes_durable_at_witness;
    Alcotest.test_case "a checkpoint over N paged stores forces at most N+1 fsyncs" `Quick
      test_checkpoint_fsyncs;
  ]

(* Recovery goldens over the fingerprint workload (3 modes x 2 seeds):
   crash after every WAL append and after every 2PC message delivery,
   recover, and digest per (mode, seed, axis) the recovered log as
   [recover] returns it, the history after [run] and the state
   fingerprint.  The "delivery-amnesia" axis recovers the delivery crash
   points without the coordinator's records.  Captured before recovery's
   log walk moved into [Recovery.analyze]; that move must not change a
   digest. *)
let golden_recovery =
  [
    ("conservative", 7, "append"), "n=27,b13c7facf60e29835f7646cbeaa3146d";
    ("conservative", 7, "delivery"), "n=0,d41d8cd98f00b204e9800998ecf8427e";
    ("conservative", 7, "delivery-amnesia"), "n=0,d41d8cd98f00b204e9800998ecf8427e";
    ("conservative", 21, "append"), "n=30,3fac46153fece07a59c392f4918fa4a3";
    ("conservative", 21, "delivery"), "n=0,d41d8cd98f00b204e9800998ecf8427e";
    ("conservative", 21, "delivery-amnesia"), "n=0,d41d8cd98f00b204e9800998ecf8427e";
    ("deferred", 7, "append"), "n=27,b13c7facf60e29835f7646cbeaa3146d";
    ("deferred", 7, "delivery"), "n=0,d41d8cd98f00b204e9800998ecf8427e";
    ("deferred", 7, "delivery-amnesia"), "n=0,d41d8cd98f00b204e9800998ecf8427e";
    ("deferred", 21, "append"), "n=34,b87ec019830b63906c7872f272253dca";
    ("deferred", 21, "delivery"), "n=4,f9c348058b97e42c55470fdf16399b27";
    ("deferred", 21, "delivery-amnesia"), "n=4,1b40746cf3f368359c18eb8005e9aec2";
    ("quasi", 7, "append"), "n=27,b13c7facf60e29835f7646cbeaa3146d";
    ("quasi", 7, "delivery"), "n=0,d41d8cd98f00b204e9800998ecf8427e";
    ("quasi", 7, "delivery-amnesia"), "n=0,d41d8cd98f00b204e9800998ecf8427e";
    ("quasi", 21, "append"), "n=34,b87ec019830b63906c7872f272253dca";
    ("quasi", 21, "delivery"), "n=4,f9c348058b97e42c55470fdf16399b27";
    ("quasi", 21, "delivery-amnesia"), "n=4,1b40746cf3f368359c18eb8005e9aec2";
  ]

let fingerprint_params =
  {
    Generator.default_params with
    activities_min = 3;
    activities_max = 6;
    services = 6;
    conflict_density = 0.3;
    subsystems = 3;
  }

let recovery_digest ~mode ~seed ~axis =
  let params = fingerprint_params in
  let config = { Scheduler.default_config with mode; seed } in
  let spec = Generator.spec params in
  let procs = Generator.batch ~seed:(seed * 100) params ~n:4 in
  let run_with faults =
    let rms = Generator.rms params ~fail_prob:(fun _ -> 0.2) ~seed () in
    let t = Scheduler.create ~config ?faults ~spec ~rms () in
    List.iteri (fun i p -> Scheduler.submit t ~at:(0.4 *. float_of_int i) p) procs;
    Scheduler.run ~until:100000.0 t;
    (t, rms)
  in
  let base, _ = run_with None in
  let n, faults, amnesia =
    match axis with
    | "append" ->
        ( List.length (Scheduler.wal_records base),
          (fun k -> Tpm_sim.Faults.make ~crash_after_appends:k ()),
          false )
    | "delivery" | "delivery-amnesia" ->
        ( Scheduler.msg_deliveries base,
          (fun k -> Tpm_sim.Faults.make ~crash_after_deliveries:k ()),
          axis = "delivery-amnesia" )
    | a -> invalid_arg a
  in
  let buf = Buffer.create 4096 in
  for k = 1 to n do
    let t, rms = run_with (Some (faults k)) in
    Printf.bprintf buf "@%d:" k;
    if not (Scheduler.is_crashed t) then Buffer.add_string buf "uncrashed;"
    else
      match
        Scheduler.recover ~config ~amnesia ~spec ~rms ~procs (Scheduler.wal_records t)
      with
      | Error e -> Printf.bprintf buf "error %s;" e
      | Ok t2 ->
          List.iter
            (fun r -> Buffer.add_string buf (Format.asprintf "%a," Wal.pp_record r))
            (Scheduler.wal_records t2);
          Scheduler.run ~until:100000.0 t2;
          Printf.bprintf buf "|%s|%s;"
            (Format.asprintf "%a" Schedule.pp (Scheduler.history t2))
            (Scheduler.state_fingerprint t2)
  done;
  Printf.sprintf "n=%d,%s" n (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_recovery_goldens () =
  let modes =
    [
      ("conservative", Scheduler.Conservative);
      ("deferred", Scheduler.Deferred);
      ("quasi", Scheduler.Quasi);
    ]
  in
  List.iter
    (fun (mode_name, mode) ->
      List.iter
        (fun seed ->
          List.iter
            (fun axis ->
              let got = recovery_digest ~mode ~seed ~axis in
              match List.assoc_opt (mode_name, seed, axis) golden_recovery with
              | Some expect ->
                  check Alcotest.string
                    (Printf.sprintf "%s seed=%d %s recovery unchanged" mode_name seed axis)
                    expect got
              | None ->
                  Alcotest.failf "no recovery golden for (%S, %d, %S): %S" mode_name seed
                    axis got)
            [ "append"; "delivery"; "delivery-amnesia" ])
        [ 7; 21 ])
    modes

let suite =
  suite @ checkpoint_suite
  @ [ Alcotest.test_case "recovery goldens per crash axis" `Quick test_recovery_goldens ]
