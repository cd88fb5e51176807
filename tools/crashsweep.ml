(* Deterministic crash-point sweep: run a workload once to count its WAL
   appends and 2PC message deliveries, then re-run it crashing right after
   every k-th append AND right after every k-th message delivery (via the
   fault plan's crash triggers), recover from the log, finish, and assert
   on every crash position that the crash fired exactly where scripted
   and that the recovered run passes {!Tpm_oracle.Oracle.run} — with
   presumed-abort soundness against the crash image and store
   explainability.  Every append crash point also checks that recovery
   replays its own log, and every recovered scheduler that runs checks
   its latent admission base against the from-scratch derivation
   ({!Scheduler.latent_self_check}) right after recovery and after its
   run.  The amnesia, disk, server, page and composite axes below crash
   at other points and judge the same way, except where noted.

   Runs as part of `dune runtest` (see tools/dune); knobs are compiled in
   and kept small so the sweep stays fast. *)
open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Generator = Tpm_workload.Generator
module Faults = Tpm_sim.Faults
module Rm = Tpm_subsys.Rm
module Store = Tpm_kv.Store
module Wal = Tpm_wal.Wal
module Obs = Tpm_obs.Obs
module Recovery = Tpm_wal.Recovery
module Oracle = Tpm_oracle.Oracle

(* every sweep run carries a small ring tracer so a failing crash point
   dumps its last trace events + metrics snapshot straight into the CI log *)
let mk_tracer () = Obs.Tracer.create ~ring_capacity:256 ()

let params =
  {
    Generator.default_params with
    activities_min = 3;
    activities_max = 6;
    services = 6;
    conflict_density = 0.3;
    subsystems = 3;
  }

let horizon = 100000.0
let n_procs = 3
let fail_rate = 0.2
let seeds = [ 11; 12; 13 ]

let modes =
  [
    ("conservative", Scheduler.Conservative);
    ("deferred", Scheduler.Deferred);
    ("quasi", Scheduler.Quasi);
  ]

let fresh_rms seed = Generator.rms params ~fail_prob:(fun _ -> fail_rate) ~seed ()

(* failure-free twins of [fresh_rms] for the oracle's history replay *)
let replay_rms seed () = Generator.rms params ~seed ()

let procs_of seed = Generator.batch ~seed:(seed * 100) params ~n:n_procs

(* [abort] = (at, pid) also requests that process's abort at [at] *)
let submit_all ?abort t procs =
  List.iteri (fun i p -> Scheduler.submit t ~at:(0.4 *. float_of_int i) p) procs;
  Option.iter (fun (at, pid) -> Scheduler.request_abort t ~at pid) abort

(* one fault-free run to learn the total number of WAL appends and 2PC
   message deliveries — the two crash-point axes *)
let baseline ?abort ~seed ~mode () =
  let t =
    Scheduler.create
      ~config:{ Scheduler.default_config with mode; seed }
      ~spec:(Generator.spec params) ~rms:(fresh_rms seed) ()
  in
  submit_all ?abort t (procs_of seed);
  Scheduler.run ~until:horizon t;
  if not (Scheduler.finished t) then
    failwith (Printf.sprintf "crashsweep: baseline seed=%d did not finish" seed);
  (List.length (Scheduler.wal_records t), Scheduler.msg_deliveries t)

(* one run of the sweep's workload under [faults] (a crash trigger) *)
let faulted_run ~config ~spec ~procs ~seed faults =
  let rms = fresh_rms seed in
  let t = Scheduler.create ~config ~faults ~tracer:(mk_tracer ()) ~spec ~rms () in
  submit_all t procs;
  Scheduler.run ~until:horizon t;
  (t, rms)

(* Recovery replays its own log: analyzing the log a recovery has just
   written must find the same interrupted processes with the same
   completions as the crashed log, and recovering it must rebuild the
   same history.  The second recovery gets fresh subsystems, so it cannot
   disturb the first one's; the log alone decides the rebuilt history. *)
let check_rerecovery ~complain ~config ~spec ~procs ~seed records t2 =
  let again = Scheduler.wal_records t2 in
  let summary plan =
    List.map
      (fun (p : Recovery.process_plan) -> (p.pid, Execution.completion p.exec))
      plan.Recovery.interrupted
  in
  (match (Recovery.analyze ~procs records, Recovery.analyze ~procs again) with
  | Ok p1, Ok p2 ->
      if summary p1 <> summary p2 then
        complain "re-analysis of the recovered log changed the interrupted set or completions"
  | _, Error e -> complain ("re-analysis of the recovered log failed: " ^ e)
  | Error e, Ok _ -> complain ("analysis of the crashed log failed: " ^ e));
  match Scheduler.recover ~config ~spec ~rms:(fresh_rms seed) ~procs again with
  | Error e -> complain ("re-recovery failed: " ^ e)
  | Ok t3 ->
      if Schedule.events (Scheduler.history t3) <> Schedule.events (Scheduler.history t2) then
        complain "re-recovery rebuilt a different history"

(* the recovered scheduler's latent base against its from-scratch
   derivation *)
let check_latent ~complain t =
  match Scheduler.latent_self_check t with
  | Ok () -> ()
  | Error msg -> complain ("LATENT-DIVERGENCE " ^ msg)

(* recover from [records] with the same subsystems (they survive the
   crash), finish, and judge the recovered run with the full oracle
   suite: presumed-abort soundness against [records], and stores
   explained by replaying the recovered history into fresh subsystems
   (the sweep's processes carry no invocation arguments).  Under
   [amnesia] presumed-abort soundness is not judged: a durable decision
   no participant saw is legitimately presumed aborted once the
   coordinator's records are lost.  [rerecover] also checks that
   recovery replays its own log.  The recovered scheduler's latent base
   must equal its from-scratch derivation right after recovery and again
   after the run. *)
let recover_and_check ?(groups = []) ?(amnesia = false) ?(rerecover = false) ~complain ~config
    ~spec ~rms ~procs ~seed records =
  match
    Scheduler.recover ~config ~amnesia ~tracer:(mk_tracer ()) ~groups ~spec ~rms ~procs records
  with
  | Error e -> complain ("recovery failed: " ^ e)
  | Ok t2 ->
      check_latent ~complain t2;
      if rerecover then check_rerecovery ~complain ~config ~spec ~procs ~seed records t2;
      Scheduler.run ~until:horizon t2;
      check_latent ~complain t2;
      let before = if amnesia then None else Some records in
      let violations = Oracle.run ~fresh:(replay_rms seed) ?before t2 in
      List.iter complain violations;
      if violations <> [] then Scheduler.forensics Format.std_formatter t2

(* Axes 1 and 2: crash right after the k-th WAL append, and right after
   the k-th 2PC message delivery.  An append trigger must fire and cut
   the log at exactly k records.  A delivery trigger routes messages
   through the event queue, so the delivery count may differ slightly
   from the synchronous baseline: positions past the end never fire, and
   the uncrashed run must then pass the oracle suite itself. *)
let sweep ~seed ~mode_name ~mode =
  let appends, deliveries = baseline ~seed ~mode () in
  let spec = Generator.spec params in
  let procs = procs_of seed in
  let config = { Scheduler.default_config with mode; seed } in
  let failures = ref 0 in
  let triggers =
    [
      ("crash", appends, (fun k -> Faults.make ~crash_after_appends:k ()), true);
      ("crash-delivery", deliveries, (fun k -> Faults.make ~crash_after_deliveries:k ()), false);
    ]
  in
  List.iter
    (fun (label, n, faults, exact) ->
      for k = 1 to n do
        let complain name =
          incr failures;
          Format.printf "seed=%d mode=%s %s@%d: %s@." seed mode_name label k name
        in
        let t, rms = faulted_run ~config ~spec ~procs ~seed (faults k) in
        let records = Scheduler.wal_records t in
        let pre =
          if not (Scheduler.is_crashed t) then
            (if exact then [ "crash trigger did not fire" ] else [])
            @ Oracle.run ~fresh:(replay_rms seed) t
          else if exact && List.length records <> k then [ "log longer than the crash point" ]
          else []
        in
        List.iter complain pre;
        if pre <> [] then Scheduler.forensics Format.std_formatter t
        else if Scheduler.is_crashed t then
          recover_and_check ~rerecover:exact ~complain ~config ~spec ~rms ~procs ~seed records
      done)
    triggers;
  Format.printf
    "crashsweep: seed=%d mode=%s %d append + %d delivery crash points, %d failures@."
    seed mode_name appends deliveries !failures;
  !failures

(* Amnesia axis: crash after the k-th 2PC message delivery and recover
   with the coordinator's records declared lost (cooperative
   termination).  Judged by the full oracle suite except presumed-abort
   soundness against the crash image (see [recover_and_check]). *)
let amnesia_sweep ~seed ~mode_name ~mode ~stride =
  let _, deliveries = baseline ~seed ~mode () in
  let spec = Generator.spec params in
  let procs = procs_of seed in
  let config = { Scheduler.default_config with mode; seed } in
  let failures = ref 0 and points = ref 0 in
  let k = ref 1 in
  while !k <= deliveries do
    let kk = !k in
    let complain name =
      incr failures;
      Format.printf "seed=%d mode=%s amnesia@%d: %s@." seed mode_name kk name
    in
    let t, rms =
      faulted_run ~config ~spec ~procs ~seed (Faults.make ~crash_after_deliveries:kk ())
    in
    (* a position past the routed delivery count never fires; the
       delivery axis already judges that uncrashed run *)
    if Scheduler.is_crashed t then begin
      incr points;
      recover_and_check ~amnesia:true ~complain ~config ~spec ~rms ~procs ~seed
        (Scheduler.wal_records t)
    end;
    k := !k + stride
  done;
  Format.printf
    "crashsweep: seed=%d mode=%s amnesia axis: %d crashed of %d delivery points, %d failures@."
    seed mode_name !points deliveries !failures;
  !failures

(* ------------------------------------------------------------------ *)
(* Axis 3: byte-level disk faults against the mirrored on-disk WAL.
   The workload runs with a real segmented log under it; the crash image
   is then damaged with scripted {!Faults.disk_fault} plans and reloaded.
   Contract: every fault is either tolerated as a torn tail (and the full
   recovery oracle suite still passes — the torn bytes change nothing) or
   detected as corruption; a load never silently misreads a record. *)

let with_tmp_wal f =
  let dir = Filename.temp_file "tpm_sweep" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f (Filename.concat dir "wal.log"))

let append_bytes path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let last_segment path =
  let segs = Wal.segment_files path in
  List.nth segs (List.length segs - 1)

let file_size p =
  let ic = open_in_bin p in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> in_channel_length ic)

let rec subsequence sub full =
  match (sub, full) with
  | [], _ -> true
  | _, [] -> false
  | s :: sub', f :: full' ->
      if s = f then subsequence sub' full' else subsequence sub full'

let rec is_prefix sub full =
  match (sub, full) with
  | [], _ -> true
  | _, [] -> false
  | s :: sub', f :: full' -> s = f && is_prefix sub' full'

(* apply one declarative disk fault to the log's segment files *)
let apply_disk_fault ~path fault =
  let seg_file i = List.nth (Wal.segment_files path) i in
  match fault with
  | Faults.Torn_write { segment; byte } | Faults.Short_read { segment; byte } ->
      Wal.Chaos.truncate ~path:(seg_file segment) ~bytes:byte
  | Faults.Bit_flip { segment; byte; bit } ->
      Wal.Chaos.flip_bit ~path:(seg_file segment) ~byte ~bit
  | Faults.Truncate_segment { segment } -> Sys.remove (seg_file segment)

(* The record kinds [Sync_each] leaves buffered until the next forcing
   append.  Listed here on their own, not read from the WAL, so the sweep
   checks the forcing rule instead of restating it. *)
let lazy_record = function
  | Wal.Process_registered _ | Wal.Commit_requested _ | Wal.Abort_requested _
  | Wal.Ckpt_begin _ | Wal.Coord_forgotten _ | Wal.Kv_write _ | Wal.Dirty_pages _ -> true
  | _ -> false

let disk_config mode seed sync =
  { Scheduler.default_config with mode; seed; wal_sync = sync; wal_segment_bytes = 256 }

(* partial-frame garbage a crash mid-append could leave at the tail *)
let torn_garbage k =
  match k mod 3 with
  | 0 -> "\x07\x03\x9a" (* less than a frame header *)
  | 1 -> "\x64\x00\x00\x00\xde\xad\xbe\xef" (* full header claiming 100 bytes, no payload *)
  | _ -> "\x32\x00\x00\x00\x01\x02\x03\x04junkjunk" (* header + partial payload *)

let disk_sweep ?abort ~seed ~mode_name ~mode ~stride ~flip_stride () =
  let spec = Generator.spec params in
  let procs = procs_of seed in
  let failures = ref 0 in
  let config = disk_config mode seed Wal.Sync_each in
  let appends, _ = baseline ?abort ~seed ~mode () in
  (* arm 1: torn write at every (strided) crash point — the garbage is
     tolerated, the image is exactly the honest durable prefix (whatever
     the crash cut off is lazy records only), and the full oracle suite
     holds after recovery from the loaded image *)
  let torn_points = ref 0 and lazy_tails = ref 0 in
  let k = ref 1 in
  while !k <= appends do
    let kk = !k in
    incr torn_points;
    let complain name =
      incr failures;
      Format.printf "seed=%d mode=%s disk-torn@%d: %s@." seed mode_name kk name
    in
    let check name cond = if not cond then complain name in
    with_tmp_wal (fun path ->
        let rms = fresh_rms seed in
        let t =
          Scheduler.create ~config
            ~faults:(Faults.make ~crash_after_appends:kk ())
            ~tracer:(mk_tracer ()) ~spec ~rms ~wal_path:path ()
        in
        submit_all ?abort t procs;
        Scheduler.run ~until:horizon t;
        check "crash trigger did not fire" (Scheduler.is_crashed t);
        let durable = (Wal.stats (Scheduler.wal t)).Wal.durable_records in
        let mem = Scheduler.crash t in
        check "log longer than the crash point" (List.length mem = kk);
        let lost = List.filteri (fun i _ -> i >= durable) mem in
        if lost <> [] then incr lazy_tails;
        check "crash lost a record that forces the log" (List.for_all lazy_record lost);
        append_bytes (last_segment path) (torn_garbage kk);
        match Wal.load path with
        | exception Wal.Corrupt _ -> complain "torn tail misclassified as corrupt"
        | report ->
            check "image is not the honest durable prefix"
              (report.Wal.records = List.filteri (fun i _ -> i < durable) mem);
            check "torn tail not reported"
              (match report.Wal.anomalies with [ Wal.Torn_tail _ ] -> true | _ -> false);
            recover_and_check ~complain ~config ~spec ~rms ~procs ~seed
              report.Wal.records);
    k := !k + stride
  done;
  (* arm 2: bit flips over the (strided) bytes of a full run's image —
     every flip is detected (Corrupt, or a shorter torn tail of the final
     segment), never a silently mutated record; flips are involutive so
     the image is restored after each probe *)
  let flip_points = ref 0 in
  with_tmp_wal (fun path ->
      let rms = fresh_rms seed in
      let t = Scheduler.create ~config ~tracer:(mk_tracer ()) ~spec ~rms ~wal_path:path () in
      submit_all ?abort t procs;
      Scheduler.run ~until:horizon t;
      let mem = Scheduler.crash t in
      let segs = Wal.segment_files path in
      let n_segs = List.length segs in
      if n_segs < 2 then begin
        incr failures;
        Format.printf "seed=%d mode=%s disk-flip: image spans only %d segment(s)@." seed
          mode_name n_segs
      end;
      List.iteri
        (fun si seg_file ->
          let size = file_size seg_file in
          let b = ref 0 in
          while !b < size do
            incr flip_points;
            let byte = !b in
            let complain name =
              incr failures;
              Format.printf "seed=%d mode=%s disk-flip seg=%d byte=%d: %s@." seed mode_name
                si byte name
            in
            let fault = Faults.Bit_flip { segment = si; byte; bit = byte mod 8 } in
            apply_disk_fault ~path fault;
            (match Wal.load path with
            | exception Wal.Corrupt _ -> ()
            | report ->
                if not (subsequence report.Wal.records mem) then complain "silent misread";
                if
                  not
                    (List.length report.Wal.records < List.length mem
                    && si = n_segs - 1
                    && List.exists
                         (function Wal.Torn_tail _ -> true | _ -> false)
                         report.Wal.anomalies)
                then complain "flip escaped detection");
            (match Wal.load ~policy:Wal.Salvage path with
            | exception _ -> complain "salvage load must not raise"
            | r ->
                if not (subsequence r.Wal.records mem) then complain "salvage misread";
                if r.Wal.anomalies = [] then complain "salvage reported nothing");
            apply_disk_fault ~path fault;
            b := !b + flip_stride
          done)
        segs;
      (* destructive plans last: a short read of the final segment is the
         same image as a torn cut; a missing segment is detected damage *)
      let final = n_segs - 1 in
      let complain name =
        incr failures;
        Format.printf "seed=%d mode=%s disk-plan: %s@." seed mode_name name
      in
      apply_disk_fault ~path
        (Faults.Short_read { segment = final; byte = file_size (last_segment path) / 2 });
      (match Wal.load path with
      | exception Wal.Corrupt _ -> complain "short read of the tail must be tolerated"
      | report ->
          if not (subsequence report.Wal.records mem) then complain "short-read misread");
      apply_disk_fault ~path (Faults.Truncate_segment { segment = 0 });
      (match Wal.load path with
      | exception Wal.Corrupt _ -> ()
      | _ -> complain "missing first segment escaped fail-stop");
      match Wal.load ~policy:Wal.Salvage path with
      | exception _ -> complain "salvage of a gapped log must not raise"
      | r ->
          if
            not
              (List.exists
                 (function Wal.Missing_segment { segment = 0 } -> true | _ -> false)
                 r.Wal.anomalies)
          then complain "missing segment not reported";
          if not (subsequence r.Wal.records mem) then complain "gapped salvage misread");
  (* arm 3: a lying-fsync window under group commit — acknowledged batches
     vanish from the crash image; the image must stay clean, an honest
     prefix, and never longer than the honest durable marker *)
  let lie_ks = List.sort_uniq compare [ max 1 (appends / 3); max 2 (2 * appends / 3) ] in
  List.iter
    (fun kk ->
      let complain name =
        incr failures;
        Format.printf "seed=%d mode=%s disk-lie@%d: %s@." seed mode_name kk name
      in
      let check name cond = if not cond then complain name in
      with_tmp_wal (fun path ->
          let rms = fresh_rms seed in
          let config = disk_config mode seed (Wal.Group 0.15) in
          let t =
            Scheduler.create ~config
              ~faults:
                (Faults.make ~crash_after_appends:kk
                   ~lying_fsync:[ { Faults.from_ = 0.5; until_ = 2.0 } ]
                   ())
              ~tracer:(mk_tracer ()) ~spec ~rms ~wal_path:path ()
          in
          submit_all ?abort t procs;
          Scheduler.run ~until:horizon t;
          check "crash trigger did not fire" (Scheduler.is_crashed t);
          let stats = Wal.stats (Scheduler.wal t) in
          let mem = Scheduler.crash t in
          check "durable ran ahead of acked"
            (stats.Wal.durable_records <= stats.Wal.acked_records);
          match Wal.load path with
          | exception Wal.Corrupt _ -> complain "lying-fsync image must stay parseable"
          | report ->
              check "image not clean" (report.Wal.anomalies = []);
              check "image is not an honest prefix" (is_prefix report.Wal.records mem);
              check "image longer than the honest durable marker"
                (List.length report.Wal.records <= stats.Wal.durable_records);
              (* the honest prefix is a well-formed log: recovery accepts it
                 (store-level oracles don't apply — effects of acked-but-lost
                 records survive at the subsystems by construction) *)
              (match Scheduler.recover ~config ~spec ~rms ~procs report.Wal.records with
              | Error e -> complain ("recovery from lying-fsync image failed: " ^ e)
              | Ok t2 ->
                  check_latent ~complain t2;
                  Scheduler.run ~until:horizon t2;
                  check_latent ~complain t2)))
    lie_ks;
  Format.printf
    "crashsweep: seed=%d mode=%s disk axis: %d torn (%d with a lazy tail) + %d flip + %d \
     lying-fsync points, %d failures@."
    seed mode_name !torn_points !lazy_tails !flip_points (List.length lie_ks) !failures;
  !failures

(* ------------------------------------------------------------------ *)
(* Axis 4: crash at every server-loop step of an open-world serving run.
   The driver plays an open-loop arrival script into the bounded-admission
   server, runs partway, then drains — so the step counter walks through
   arrival decisions, enqueues, deadline sheds, queue pumps and all four
   drain stages.  A hook kills the scheduler at each step in turn; the
   recovered image must satisfy the full oracle suite, replaying exactly
   the processes the server admitted (degraded variants included — under
   [Degrade] the admitted process is not the offered one). *)

module Server = Tpm_server.Server

let serve_policies =
  [
    ("reject", Server.Reject);
    ("queue", Server.Queue);
    ("degrade", Server.Degrade);
  ]

let serve_config seed = { Scheduler.default_config with seed }
let serve_script seed = Generator.arrivals params ~seed:(seed * 100) ~rate:3.0 ~horizon:6.0

let make_server ~seed ~policy ~crash_at =
  let rms = fresh_rms seed in
  let sched =
    Scheduler.create ~config:(serve_config seed) ~tracer:(mk_tracer ())
      ~spec:(Generator.spec params) ~rms ()
  in
  let srv =
    Server.create
      ~config:
        {
          Server.default_config with
          policy;
          max_live = 2;
          queue_capacity = 4;
          default_deadline = 2.0;
          scan_period = 0.5;
        }
      sched
  in
  (match crash_at with
  | Some k ->
      Server.set_step_hook srv (fun ~stage:_ ~step ->
          if step = k then ignore (Scheduler.crash sched))
  | None -> ());
  (sched, srv, rms)

let serve_drive srv script =
  Server.play srv script;
  Server.run ~until:3.0 srv;
  Server.drain srv

let serve_sweep ~seed ~policy_name ~policy ~stride =
  let script = serve_script seed in
  let sched0, srv0, _ = make_server ~seed ~policy ~crash_at:None in
  serve_drive srv0 script;
  if not (Scheduler.finished sched0) then
    failwith (Printf.sprintf "crashsweep: server baseline seed=%d did not finish" seed);
  let nsteps = Server.steps srv0 in
  let failures = ref 0 in
  let points = ref 0 in
  let k = ref 1 in
  while !k <= nsteps do
    let kk = !k in
    incr points;
    let complain name =
      incr failures;
      Format.printf "seed=%d policy=%s serve-crash@%d: %s@." seed policy_name kk name
    in
    let check name cond = if not cond then complain name in
    let sched, srv, rms = make_server ~seed ~policy ~crash_at:(Some kk) in
    serve_drive srv script;
    check "crash trigger did not fire" (Scheduler.is_crashed sched);
    check "shed accounting violated at the crash point" (Server.accounting_ok srv);
    recover_and_check ~complain ~config:(serve_config seed)
      ~spec:(Generator.spec params) ~rms ~procs:(Server.admitted_procs srv) ~seed
      (Scheduler.wal_records sched);
    k := !k + stride
  done;
  Format.printf
    "crashsweep: seed=%d policy=%s server axis: %d of %d crash points, %d failures@."
    seed policy_name !points nsteps !failures;
  !failures

(* ------------------------------------------------------------------ *)
(* Axis 5: crash between any two page flushes of WAL-coordinated paged
   stores.  The subsystems run on buffer-pooled page files (1 frame, so
   eviction traffic is maximal) over an on-disk WAL, with a checkpoint
   mid-run so [Dirty_pages] snapshots bound redo.  A shared flush counter
   kills the scheduler right after the k-th page write; page files share
   the host's fate (frozen at the crash).  At every point:

   - no page on disk carries a page_lsn above the WAL's honest durable
     marker at the crash (the flush rule, asserted on the artifacts);
   - every page file reopens whole ([open_paged] reports no anomalies);
   - rebuilding each store as [open_paged] + {!Recovery.kv_redo} +
     {!Store.redo} yields exactly the full-durable-replay twin;
   - the redo plan replays only records at or past its [start_lsn], and
     across the sweep the checkpoint bound actually skips work.

   A torn-page arm then damages one flushed page per crash image: the
   [`Fail_stop] open refuses, the [`Salvage] open quarantines and
   reports, and a full-log redo still rebuilds the twin exactly. *)

module Bufpool = Tpm_kv.Bufpool
module Pager = Tpm_kv.Pager

let page_path dir rm_name = Filename.concat dir (rm_name ^ ".pages")

(* a denser key universe than the other axes, over the smallest pages:
   each subsystem's store spans several pages while the pool holds one
   frame, so ordinary workload traffic churns through eviction flushes *)
let page_params = { params with Generator.services = 18; activities_min = 4; activities_max = 8 }
let page_procs seed = Generator.batch ~seed:(seed * 100) page_params ~n:4

let paged_rms seed dir =
  let reg = Generator.registry page_params in
  List.init page_params.Generator.subsystems (fun i ->
      let name = Printf.sprintf "ss%d" i in
      let store = Store.create_paged ~frames:1 ~page_size:128 (page_path dir name) in
      Rm.create ~name ~registry:reg
        ~fail_prob:(fun _ -> fail_rate)
        ~seed:(seed + i) ~store ())

let close_paged_rms rms =
  List.iter
    (fun rm ->
      match Store.bufpool (Rm.store rm) with
      | Some pool -> Pager.close (Bufpool.pager pool)
      | None -> ())
    rms

(* ballast: enough logged keys that each store outgrows its one-frame
   pool by an order of magnitude, so ordinary workload traffic pages.
   Loaded after WAL wiring, so every key is a Kv_write in the log and
   the durable-replay twin reproduces any prefix of it. *)
let fill_store store =
  for i = 0 to 29 do
    Store.set store
      (Printf.sprintf "fill%02d" i)
      (Tpm_kv.Value.Text (String.make 20 (Char.chr (Char.code 'a' + (i mod 26)))))
  done

let fill_rms rms = List.iter (fun rm -> fill_store (Rm.store rm)) rms

(* one paged run: load ballast, arm the flush trigger, drive the workload
   with checkpoints partway, return the crashed scheduler, its rms and
   the durable marker at the crash (max_int when no crash fired) *)
let page_run ~seed ~path ~crash_after_flushes =
  let dir = Filename.dirname path in
  let rms = paged_rms seed dir in
  let config = disk_config Scheduler.Conservative seed Wal.Sync_each in
  let t =
    Scheduler.create ~config ~tracer:(mk_tracer ()) ~spec:(Generator.spec page_params) ~rms
      ~wal_path:path ()
  in
  let flushes = ref 0 in
  let durable_at_crash = ref max_int in
  List.iter
    (fun rm ->
      match Store.bufpool (Rm.store rm) with
      | Some pool ->
          Bufpool.set_on_flush pool (fun _ ->
              incr flushes;
              if !flushes = crash_after_flushes then begin
                durable_at_crash := (Wal.stats (Scheduler.wal t)).Wal.durable_records;
                ignore (Scheduler.crash t)
              end)
      | None -> ())
    rms;
  (* the trigger is armed before the ballast load: churning 30 keys
     through a 1-frame pool is itself a long train of eviction flushes,
     every one of them a crash point *)
  fill_rms rms;
  if not (Scheduler.is_crashed t) then submit_all t (page_procs seed);
  (* two checkpoints partway — one sealed at once, one over a 0.5 window —
     so the sweep hits crash points before, between, inside and after
     Dirty_pages snapshots *)
  Scheduler.run ~until:1.2 t;
  if not (Scheduler.is_crashed t) then Scheduler.checkpoint t;
  Scheduler.run ~until:2.5 t;
  if not (Scheduler.is_crashed t) then Scheduler.checkpoint ~window:0.5 t;
  Scheduler.run ~until:horizon t;
  (t, rms, !flushes, !durable_at_crash)

(* the full-durable-replay twin for one subsystem: every Kv_write in the
   crash image applied, in order, into a fresh in-memory store *)
let replay_twin ~rm_name image =
  let twin = Store.create () in
  List.iteri
    (fun i r ->
      match r with
      | Wal.Kv_write { rm; key; value } when String.equal rm rm_name ->
          Store.redo twin ~lsn:(i + 1) key value
      | _ -> ())
    image;
  twin

let page_sweep ~seed ~stride =
  let failures = ref 0 in
  let bounded_skips = ref 0 in
  (* the uncrashed run counts the flush crash points, and the syncs the
     pools' WAL rule forced to make a page flushable *)
  let nflushes, wal_syncs =
    with_tmp_wal (fun path ->
        let t, rms, flushes, _ = page_run ~seed ~path ~crash_after_flushes:0 in
        if not (Scheduler.finished t) then
          failwith (Printf.sprintf "crashsweep: paged baseline seed=%d did not finish" seed);
        let wal_syncs =
          List.fold_left
            (fun acc rm ->
              match Store.bufpool (Rm.store rm) with
              | Some pool -> acc + (Bufpool.stats pool).Bufpool.wal_syncs
              | None -> acc)
            0 rms
        in
        close_paged_rms rms;
        (flushes, wal_syncs))
  in
  let points = ref 0 in
  let k = ref 1 in
  while !k <= nflushes do
    let kk = !k in
    incr points;
    let complain name =
      incr failures;
      Format.printf "seed=%d page-crash@%d: %s@." seed kk name
    in
    let check name cond = if not cond then complain name in
    with_tmp_wal (fun path ->
        let dir = Filename.dirname path in
        let t, rms, _, durable = page_run ~seed ~path ~crash_after_flushes:kk in
        check "crash trigger did not fire" (Scheduler.is_crashed t);
        (* the crash image is what the disk holds, not what was appended:
           lazy records past the last fsync are gone *)
        let appended = Scheduler.wal_records t in
        let image = (Wal.load path).Wal.records in
        let n = List.length image in
        check "image longer than the durable marker" (n <= durable);
        check "image is not a prefix of the appended log"
          (n <= List.length appended && List.filteri (fun i _ -> i < n) appended = image);
        let recovered_stores =
          List.map
            (fun rm ->
              let name = Rm.name rm in
              let ppath = page_path dir name in
              (* the flush rule, on the artifacts: no page the crash left
                 on disk may carry an LSN past the honest durable marker *)
              let probe = Pager.open_ ppath in
              for pid = 0 to Pager.npages probe - 1 do
                match Pager.read_result probe pid with
                | Ok buf ->
                    check
                      (Printf.sprintf "%s page %d flushed ahead of durable marker" name pid)
                      (Pager.Page.lsn buf <= durable)
                | Error reason ->
                    complain (Printf.sprintf "%s page %d torn in crash image: %s" name pid reason)
              done;
              Pager.close probe;
              let recovered, anomalies = Store.open_paged ~frames:2 ppath in
              check
                (Printf.sprintf "%s reopened with anomalies" name)
                (anomalies = []);
              let plan = Recovery.kv_redo ~rm:name image in
              List.iter
                (fun (lsn, key, v) ->
                  check
                    (Printf.sprintf "%s redo plan reaches below its own bound" name)
                    (lsn >= plan.Recovery.start_lsn);
                  Store.redo recovered ~lsn key v)
                plan.Recovery.ops;
              (* work the checkpoint bound skipped: rm records strictly
                 below start_lsn never re-run *)
              List.iteri
                (fun i r ->
                  match r with
                  | Wal.Kv_write { rm = rm'; _ }
                    when String.equal rm' name && i + 1 < plan.Recovery.start_lsn ->
                      incr bounded_skips
                  | _ -> ())
                image;
              check
                (Printf.sprintf "%s rebuilt store diverges from full durable replay" name)
                (Store.equal_state recovered (replay_twin ~rm_name:name image));
              recovered)
            rms
        in
        (* no process-level recover_and_check here: a flush trigger fires
           mid-invocation, so the in-flight transaction's effects land in
           the frozen in-memory pools after the image was cut — phantom
           state a shared-fate crash would lose.  The durable-replay twin
           above is the store oracle for this axis; the process-level
           oracle suite runs where subsystems survive (axes 1-4). *)
        (* torn-page arm: damage one flushed page, then fail-stop must
           refuse, salvage must report, and full redo must still rebuild *)
        (match
           List.find_opt
             (fun rm ->
               let pgr = Pager.open_ (page_path dir (Rm.name rm)) in
               let n = Pager.npages pgr in
               Pager.close pgr;
               n > 0)
             rms
         with
        | None -> ()
        | Some rm ->
            let name = Rm.name rm in
            let ppath = page_path dir name in
            Wal.Chaos.flip_bit ~path:ppath ~byte:(16 + 40) ~bit:(kk mod 8);
            (match Store.open_paged ~policy:`Fail_stop ppath with
            | exception Pager.Corrupt_page _ -> ()
            | salvaged, _ ->
                complain "fail-stop open accepted a torn page";
                Option.iter (fun p -> Pager.close (Bufpool.pager p)) (Store.bufpool salvaged));
            (match Store.open_paged ~policy:`Salvage ppath with
            | exception e ->
                complain ("salvage open must not raise: " ^ Printexc.to_string e)
            | salvaged, anomalies ->
                check "torn page not reported by salvage" (anomalies <> []);
                (* redo bounded by the checkpoint snapshot cannot
                   resurrect a quarantined page's keys: salvage demands
                   the full log, from position 1 *)
                List.iteri
                  (fun i r ->
                    match r with
                    | Wal.Kv_write { rm = rm'; key; value } when String.equal rm' name ->
                        Store.redo salvaged ~lsn:(i + 1) key value
                    | _ -> ())
                  image;
                check "salvage + full redo diverges from durable replay"
                  (Store.equal_state salvaged (replay_twin ~rm_name:name image));
                Option.iter (fun p -> Pager.close (Bufpool.pager p)) (Store.bufpool salvaged)));
        List.iter
          (fun s -> Option.iter (fun p -> Pager.close (Bufpool.pager p)) (Store.bufpool s))
          recovered_stores;
        close_paged_rms rms);
    k := !k + stride
  done;
  if !points > 0 && !bounded_skips = 0 then begin
    incr failures;
    Format.printf "seed=%d page axis: checkpoint bound never skipped any redo work@." seed
  end;
  Format.printf
    "crashsweep: seed=%d page axis: %d of %d flush crash points, %d WAL-rule syncs per run, %d \
     records skipped by the checkpoint bound, %d failures@."
    seed !points nflushes wal_syncs !bounded_skips !failures;
  !failures

(* ------------------------------------------------------------------ *)
(* Composite axis: multi-level composition (subprocess groups) under
   the enforced weak order, crashed at every (strided) WAL append.  A
   crash mid-subprocess must replay consistently: recovery is handed the
   same group declarations, the recovered history passes the full oracle
   suite, and the surviving local schedules stay commit-order
   serializable.  The sweep runs the Checked engine, so every admission
   is cross-checked against the reference oracle and every skipped
   parked waiter is re-derived (missed-wakeup detector). *)

let composite_procs =
  List.init n_procs (fun i ->
      let pid = i + 1 in
      let svc k = Printf.sprintf "svc%d" ((pid + k) mod params.Generator.services) in
      let ss k = Printf.sprintf "ss%d" ((pid + k) mod params.Generator.subsystems) in
      let act k service subsystem =
        Activity.make ~proc:pid ~act:k ~service ~kind:Activity.Compensatable ~subsystem ()
      in
      Process.make_exn ~pid
        ~activities:[ act 1 (svc 0) (ss 0); act 2 (svc 1) (ss 1); act 3 (svc 2) (ss 2) ]
        ~prec:[ (1, 2); (2, 3) ]
        ~pref:[])

let composite_groups =
  List.map
    (fun p -> (Process.pid p, [ { Compose.gname = "head"; members = [ 1; 2 ] } ]))
    composite_procs

let submit_all_grouped t procs =
  List.iteri
    (fun i p ->
      let groups = List.assoc (Process.pid p) composite_groups in
      Scheduler.submit t ~at:(0.4 *. float_of_int i) ~groups p)
    procs

let composite_sweep ~seed ~stride =
  let config =
    {
      Scheduler.default_config with
      mode = Scheduler.Deferred;
      seed;
      order = Scheduler.Weak;
      admission_engine = Scheduler.Checked;
    }
  in
  let spec = Generator.spec params in
  let procs = composite_procs in
  (* fault-free baseline: count the WAL appends (the crash axis) *)
  let t0 =
    Scheduler.create ~config ~spec ~rms:(fresh_rms seed) ~tracer:(mk_tracer ()) ()
  in
  submit_all_grouped t0 procs;
  Scheduler.run ~until:horizon t0;
  if not (Scheduler.finished t0) then
    failwith (Printf.sprintf "crashsweep: composite baseline seed=%d did not finish" seed);
  let appends = List.length (Scheduler.wal_records t0) in
  let failures = ref 0 in
  let points = ref 0 in
  let k = ref 1 in
  while !k <= appends do
    incr points;
    let complain name =
      incr failures;
      Format.printf "seed=%d composite crash@%d: %s@." seed !k name
    in
    let check name cond = if not cond then complain name in
    let rms = fresh_rms seed in
    let t =
      Scheduler.create ~config
        ~faults:(Faults.make ~crash_after_appends:!k ())
        ~tracer:(mk_tracer ()) ~spec ~rms ()
    in
    submit_all_grouped t procs;
    Scheduler.run ~until:horizon t;
    let records = Scheduler.wal_records t in
    check "crash trigger did not fire" (Scheduler.is_crashed t);
    recover_and_check ~groups:composite_groups ~complain ~config ~spec ~rms ~procs
      ~seed records;
    k := !k + stride
  done;
  Format.printf "crashsweep: seed=%d composite axis: %d of %d crash points, %d failures@."
    seed !points appends !failures;
  !failures

let () =
  let disk_only = Array.exists (( = ) "--disk-only") Sys.argv in
  let serve_only = Array.exists (( = ) "--serve-only") Sys.argv in
  let pages_only = Array.exists (( = ) "--pages-only") Sys.argv in
  let composite_only = Array.exists (( = ) "--composite-only") Sys.argv in
  let amnesia_only = Array.exists (( = ) "--amnesia-only") Sys.argv in
  let failures =
    if disk_only then
      (* full-coverage disk sweep: every crash point, every byte *)
      List.fold_left
        (fun acc seed ->
          List.fold_left
            (fun acc (mode_name, mode) ->
              acc + disk_sweep ~seed ~mode_name ~mode ~stride:1 ~flip_stride:1 ())
            acc modes)
        0 seeds
    else if serve_only then
      (* full-coverage server sweep: every seed, every policy, every step *)
      List.fold_left
        (fun acc seed ->
          List.fold_left
            (fun acc (policy_name, policy) ->
              acc + serve_sweep ~seed ~policy_name ~policy ~stride:1)
            acc serve_policies)
        0 seeds
    else if pages_only then
      (* full-coverage page sweep: every seed, every flush crash point *)
      List.fold_left (fun acc seed -> acc + page_sweep ~seed ~stride:1) 0 seeds
    else if composite_only then
      (* full-coverage composite sweep: every seed, every crash point *)
      List.fold_left (fun acc seed -> acc + composite_sweep ~seed ~stride:1) 0 seeds
    else if amnesia_only then
      (* full-coverage amnesia sweep: every seed, mode and delivery point *)
      List.fold_left
        (fun acc seed ->
          List.fold_left
            (fun acc (mode_name, mode) -> acc + amnesia_sweep ~seed ~mode_name ~mode ~stride:1)
            acc modes)
        0 seeds
    else
      List.fold_left
        (fun acc seed ->
          List.fold_left
            (fun acc (mode_name, mode) -> acc + sweep ~seed ~mode_name ~mode)
            acc modes)
        0 seeds
      (* strided disk axis on one seed/mode keeps runtest fast; the full
         sweep runs behind [--disk-only] in CI *)
      + disk_sweep ~seed:11 ~mode_name:"conservative" ~mode:Scheduler.Conservative ~stride:2
          ~flip_stride:13 ()
      (* Deferred runs 2PC and this slice aborts one process, so its crash
         points also cut off lazy [Coord_forgotten] and [Abort_requested]
         records *)
      + disk_sweep ~abort:(1.5, 1) ~seed:11 ~mode_name:"deferred" ~mode:Scheduler.Deferred
          ~stride:2 ~flip_stride:29 ()
      (* strided server axis likewise; the full sweep runs behind
         [--serve-only] in CI *)
      + serve_sweep ~seed:11 ~policy_name:"queue" ~policy:Server.Queue ~stride:3
      + serve_sweep ~seed:12 ~policy_name:"degrade" ~policy:Server.Degrade ~stride:5
      (* strided page axis on one seed; the full sweep runs behind
         [--pages-only] in CI *)
      + page_sweep ~seed:11 ~stride:4
      (* strided composite axis: crash mid-subprocess under the enforced
         weak order, recover with the same group declarations *)
      + composite_sweep ~seed:11 ~stride:3
      (* strided amnesia axis on one seed/mode; the full sweep runs behind
         [--amnesia-only] in CI *)
      + amnesia_sweep ~seed:11 ~mode_name:"deferred" ~mode:Scheduler.Deferred ~stride:2
  in
  if failures = 0 then Format.printf "crashsweep: all crash points recovered@."
  else Format.printf "crashsweep: %d FAILURES@." failures;
  exit (if failures = 0 then 0 else 1)
