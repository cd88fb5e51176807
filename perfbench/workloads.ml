(* The three workloads, driven only through the library's public API.

   A run is a sequence of rounds.  Each round sets up fresh inputs from
   its own seed, runs one measured phase, checks the result outside the
   timed region, crashes the scheduler and times the restart from its
   log.  A traced round is the same round with the instrumentation on:
   the scheduler's [admission_clock], service bodies the harness
   registers itself wrapped in a timer, and a counting [Obs] sink. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Server = Tpm_server.Server
module Generator = Tpm_workload.Generator
module Rm = Tpm_subsys.Rm
module Service = Tpm_subsys.Service
module Store = Tpm_kv.Store
module Bufpool = Tpm_kv.Bufpool
module Pager = Tpm_kv.Pager
module Value = Tpm_kv.Value
module Tx = Tpm_kv.Tx
module Wal = Tpm_wal.Wal
module Recovery = Tpm_wal.Recovery
module Metrics = Tpm_sim.Metrics
module Des = Tpm_sim.Des
module Obs = Tpm_obs.Obs

let clock = Unix.gettimeofday

type kind = Batch_contended | Durable_short | Serve_longlived

let all = [ Batch_contended; Durable_short; Serve_longlived ]

let name = function
  | Batch_contended -> "batch_contended"
  | Durable_short -> "durable_short"
  | Serve_longlived -> "serve_longlived"

let of_name s = List.find_opt (fun k -> name k = s) all

(* processes per round *)
let default_procs = function
  | Batch_contended -> 64
  | Durable_short -> 48
  | Serve_longlived -> 200

(* The service universe is the application's fixed schema (default
   conflict-relation seed); the seed varies the processes, the failure
   draws and the stored values. *)
let params = function
  | Batch_contended | Serve_longlived ->
      {
        Generator.default_params with
        services = 12;
        conflict_density = 0.25;
        activities_min = 3;
        activities_max = 6;
      }
  | Durable_short ->
      {
        Generator.default_params with
        services = 10;
        conflict_density = 0.1;
        activities_min = 3;
        activities_max = 6;
        subsystems = 3;
      }

(* The batch log is mirrored without fsync (and synced once before the
   crash); the other two fsync every append, the repository default. *)
let wal_policy = function
  | Batch_contended -> Wal.No_sync
  | Durable_short | Serve_longlived -> Wal.Sync_each

let policy_label = function
  | Wal.No_sync -> "No_sync"
  | Wal.Sync_each -> "Sync_each"
  | Wal.Group w -> Printf.sprintf "Group %g" w

let pool_frames = 4
let page_size = 1024
let value_bytes = 200

(* ------------------------------------------------------------------ *)
(* instrumentation of a traced round *)

type probe = {
  traced : bool;
  mutable body_s : float;
  mutable sink_s : float;
  mutable admitted : int;
  kinds : (string, int) Hashtbl.t;
}

let probe traced = { traced; body_s = 0.0; sink_s = 0.0; admitted = 0; kinds = Hashtbl.create 16 }

(* ring capacity 0: the sink sees every event, nothing is retained *)
let tracer p =
  if not p.traced then Obs.Tracer.disabled
  else
    let count _ ev =
      let t0 = clock () in
      let k = Obs.kind_label ev in
      Hashtbl.replace p.kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt p.kinds k));
      (match ev with
      | Obs.Admission { decision = Obs.Invoke | Obs.Prepare; _ } -> p.admitted <- p.admitted + 1
      | _ -> ());
      p.sink_s <- p.sink_s +. (clock () -. t0)
    in
    Obs.Tracer.create ~ring_capacity:0 ~sinks:[ Obs.Sink.make count ] ()

(* the same services, each body wrapped in a timer when traced *)
let timed_registry p reg =
  if not p.traced then reg
  else
    let timed = Service.Registry.create () in
    List.iter
      (fun n ->
        let s = Service.Registry.find reg n in
        let body tx ~args =
          let t0 = clock () in
          Fun.protect
            ~finally:(fun () -> p.body_s <- p.body_s +. (clock () -. t0))
            (fun () -> s.Service.body tx ~args)
        in
        Service.Registry.register timed { s with Service.body })
      (Service.Registry.names reg);
    timed

let admission_clock p = if p.traced then Some clock else None

(* ------------------------------------------------------------------ *)
(* results *)

type layers = {
  adm_samples : float list;  (** seconds per admission call *)
  admissions : int;
  admitted : int;
  latent_patches : int;
  latent_rebuilds : int;
  body_s : float;
  invocations : int;
  retries : int;
  kv : Bufpool.stats list;  (** one per paged store *)
  wal_records : int;
  wal_bytes : int;
  wal_fsyncs : int;
  wal_max_batch : int;
  append_us : float;  (** replay of this round's records on a fresh log *)
  load_us : float;
  twopc_commits : int;
  msgs : int;
  indoubt : int;
  parse_us : float;  (** this round's processes, as documents, through [Lang.parse] *)
  parses_in_run : int;  (** documents the program itself parsed in the run *)
  kinds : (string * int) list;
  sink_s : float;
}

type round = {
  outcome : Gate.outcome;
  setup_s : float;
  wall_s : float;  (** the measured phase *)
  segments : float list;
      (** the measured phase cut into consecutive segments, in seconds: the
          virtual-time slices of a batch, or the requests of a client *)
  spans : (int * int) list;
      (** per request, in submission order: the segments [\[first, last)]
          it took *)
  vt_makespan : float;
  vt_latency : float list;
  load_s : float;
  recover_s : float;
  complete_s : float;
  heap_live_mb : float;
      (** live heap the round holds after its measured phase, when asked *)
  failed : string list;  (** names of the checks that failed *)
  server_rejected : int;
  layers : layers option;
}

(* ------------------------------------------------------------------ *)
(* helpers *)

(* the measured phase and the request latencies, from the segments *)
let measured_s r = List.fold_left ( +. ) 0.0 r.segments

let latencies_ms r =
  let sums = Array.make (List.length r.segments + 1) 0.0 in
  List.iteri (fun i x -> sums.(i + 1) <- sums.(i) +. x) r.segments;
  List.map (fun (i, j) -> 1000.0 *. (sums.(j) -. sums.(i))) r.spans

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  mk path

let subsystem_names params = List.map Rm.name (Generator.rms params ())
let take n l = List.filteri (fun i _ -> i < n) l

let wal_bytes path =
  List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 (Wal.segment_files path)

(* per-record cost of the log layer alone: the round's first records
   appended to a fresh log under the same policy, then loaded back *)
let wal_replay ~dir ~policy records =
  let sample = take 512 records in
  let k = float_of_int (max 1 (List.length sample)) in
  let path = Filename.concat dir "replay" in
  let w = Wal.create ~path ~sync:policy ~fresh:true () in
  let t0 = clock () in
  List.iter (Wal.append w) sample;
  let append_s = clock () -. t0 in
  Wal.close w;
  let t1 = clock () in
  ignore (Wal.load path);
  let load_s = clock () -. t1 in
  (1e6 *. append_s /. k, 1e6 *. load_s /. k)

let render p = Lang.print { Lang.spec = Conflict.empty; processes = [ p ]; schedule = None }

let parse_us docs =
  let t0 = clock () in
  List.iter (fun d -> ignore (Lang.parse d)) docs;
  1e6 *. (clock () -. t0) /. float_of_int (max 1 (List.length docs))

let layers_of (p : probe) ~t ~rms ~wal_path ~dir ~policy ~docs ~parses_in_run =
  let m = Scheduler.metrics t in
  let st = Wal.stats (Scheduler.wal t) in
  let records = Scheduler.wal_records t in
  let bytes = wal_bytes wal_path in
  let append_us, load_us = wal_replay ~dir ~policy records in
  {
    adm_samples = Metrics.samples m "admission_time";
    admissions = Metrics.count m "admissions";
    admitted = p.admitted;
    latent_patches = Metrics.count m "latent_patches";
    latent_rebuilds = Metrics.count m "latent_rebuilds";
    body_s = p.body_s;
    invocations = List.fold_left (fun acc rm -> acc + Rm.invocations rm) 0 rms;
    retries = Metrics.count m "retries";
    kv = List.filter_map (fun rm -> Option.map Bufpool.stats (Store.bufpool (Rm.store rm))) rms;
    wal_records = List.length records;
    wal_bytes = bytes;
    wal_fsyncs = st.Wal.fsyncs;
    wal_max_batch = st.Wal.max_batch;
    append_us;
    load_us;
    twopc_commits = Metrics.count m "twopc_commits";
    msgs = Scheduler.msg_deliveries t;
    indoubt = Metrics.count m "indoubt_resolved";
    parse_us = parse_us docs;
    parses_in_run;
    kinds = Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.kinds [];
    sink_s = p.sink_s;
  }

(* after a full major collection, so it does not depend on GC timing;
   measured before the round's set-up and after its measured phase, the
   difference leaves out what the harness itself retains *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let statuses t pids = List.map (fun pid -> (pid, Scheduler.status t pid)) pids

let count_status l s = List.length (List.filter (fun (_, s') -> s' = s) l)

(* Runs the scheduler to quiescence in virtual-time slices, reading the
   wall clock at every slice boundary; the final segment drains what is
   left after the last process terminated.  A process's request spans
   from the boundary that opens the slice of its arrival to the first
   boundary at which it is terminal.  Slicing only bounds [Des.run], so
   the schedule is the one an uninterrupted run produces. *)
let drive t ~slice ~arrivals =
  let sim = Scheduler.sim t in
  let started = Hashtbl.create 64 and ended = Hashtbl.create 64 in
  let pending = ref arrivals and live = ref [] in
  let w0 = clock () in
  let bounds = ref [ w0 ] and k = ref 0 and h = ref 0.0 in
  while (!pending <> [] || !live <> []) && Des.pending sim > 0 && !h < 1e6 do
    h := !h +. slice;
    Scheduler.run ~until:!h t;
    let w = clock () in
    let rec arrive = function
      | (at, pid) :: rest when at <= !h ->
          Hashtbl.replace started pid !k;
          live := pid :: !live;
          arrive rest
      | rest -> rest
    in
    pending := arrive !pending;
    incr k;
    live :=
      List.filter
        (fun pid ->
          let active = Scheduler.status t pid = Schedule.Active in
          if not active then Hashtbl.replace ended pid !k;
          active)
        !live;
    bounds := w :: !bounds
  done;
  Scheduler.run ~until:1e6 t;
  let w1 = clock () in
  let b = Array.of_list (List.rev (w1 :: !bounds)) in
  let segments = List.init (Array.length b - 1) (fun i -> b.(i + 1) -. b.(i)) in
  let spans =
    List.filter_map
      (fun (_, pid) ->
        match (Hashtbl.find_opt started pid, Hashtbl.find_opt ended pid) with
        | Some a, Some e -> Some (a, e)
        | _ -> None)
      arrivals
  in
  (segments, spans, w1 -. w0)

(* ------------------------------------------------------------------ *)
(* closed batches: batch_contended and durable_short *)

(* durable_short's services: each writes the activity's own key (chosen
   through [args_of]) with a [value_bytes]-byte value; compensation
   restores the pre-image *)
let durable_registry params =
  let reg = Service.Registry.create () in
  List.iter
    (fun name ->
      Service.Registry.register reg
        (Service.make ~name ~compensation:Service.Snapshot_undo ~writes:[ name ]
           (fun tx ~args ->
             match args with
             | Value.List [ Value.Text key; v ] ->
                 Tx.set tx key v;
                 Value.Int 1
             | _ -> Value.Nil)))
    (Generator.service_universe params);
  reg

let durable_args ~seed procs =
  let rng = Random.State.make [| seed; 0xd0 |] in
  let values = Hashtbl.create 64 in
  List.iter
    (fun p ->
      Hashtbl.replace values (Process.pid p)
        (Value.Text (String.init value_bytes (fun _ -> Char.chr (97 + Random.State.int rng 26)))))
    procs;
  fun (a : Activity.t) ->
    Value.List
      [
        Value.Text (Printf.sprintf "p%d.a%d" a.Activity.id.proc a.Activity.id.act);
        Hashtbl.find values a.Activity.id.proc;
      ]

let page_path dir name = Filename.concat dir (name ^ ".pages")

let close_store s =
  Option.iter (fun pool -> Pager.close (Bufpool.pager pool)) (Store.bufpool s)

let batch_round kind ~seed ~n ~traced ~full ~heap ~dir =
  let p = probe traced in
  let params = params kind in
  let policy = wal_policy kind in
  let durable = kind = Durable_short in
  let wal_path = Filename.concat dir "wal" in
  let heap0 = if heap then live_mb () else 0.0 in
  let s0 = clock () in
  let spec = Generator.spec params in
  let procs = Generator.batch ~seed params ~n in
  let names = subsystem_names params in
  let registry =
    timed_registry p (if durable then durable_registry params else Generator.registry params)
  in
  (* transient invocation failures; virtual time between submissions;
     the virtual-time slice at which the wall clock is read *)
  let fail, spacing, slice = if durable then (0.05, 1.0, 0.25) else (0.0, 0.02, 1.0) in
  let make_rm i name store =
    Rm.create ~name ~registry ~fail_prob:(fun _ -> fail) ~seed:(seed + i) ?store ()
  in
  let rms =
    List.mapi
      (fun i name ->
        make_rm i name
          (if durable then
             Some (Store.create_paged ~frames:pool_frames ~page_size (page_path dir name))
           else None))
      names
  in
  let config =
    {
      Scheduler.default_config with
      seed;
      wal_sync = policy;
      admission_clock = admission_clock p;
    }
  in
  let t = Scheduler.create ~config ~tracer:(tracer p) ~wal_path ~spec ~rms () in
  let args_of = if durable then Some (durable_args ~seed procs) else None in
  let arrivals =
    List.mapi (fun i pr -> (spacing *. float_of_int i, Process.pid pr)) procs
  in
  List.iter2 (fun (at, _) pr -> Scheduler.submit t ~at ?args_of pr) arrivals procs;
  let setup_s = clock () -. s0 in
  (* measured phase *)
  let segments, spans, wall_s = drive t ~slice ~arrivals in
  let heap_live_mb = if heap then live_mb () -. heap0 else 0.0 in
  (* outside the timed region: counters, checks, crash, restart *)
  let pids = List.map Process.pid procs in
  let before = statuses t pids in
  let outcome =
    {
      Gate.offered = n;
      committed = count_status before Schedule.Committed;
      aborted = count_status before Schedule.Aborted;
      rejected = 0;
      unfinished = count_status before Schedule.Active;
    }
  in
  let m = Scheduler.metrics t in
  if policy = Wal.No_sync then ignore (Wal.sync (Scheduler.wal t));
  let layers =
    if traced then
      Some
        (layers_of p ~t ~rms ~wal_path ~dir ~policy ~docs:(List.map render procs)
           ~parses_in_run:0)
    else None
  in
  let checks = Gate.outcome outcome @ Gate.history ~full (Scheduler.history t) in
  let snapshots = List.map (fun rm -> Store.snapshot (Rm.store rm)) rms in
  ignore (Scheduler.crash t);
  if durable then List.iter (fun rm -> close_store (Rm.store rm)) rms;
  (* restart: load, recover, run to quiescence *)
  let r0 = clock () in
  let records = Wal.load_records wal_path in
  let rms' =
    if not durable then rms
    else
      List.mapi
        (fun i name ->
          let store, _ = Store.open_paged ~frames:pool_frames (page_path dir name) in
          let plan = Recovery.kv_redo ~rm:name records in
          List.iter (fun (lsn, key, v) -> Store.redo store ~lsn key v) plan.Recovery.ops;
          make_rm i name (Some store))
        names
  in
  let r1 = clock () in
  let recovered = Scheduler.recover ~config:{ config with admission_clock = None } ~tracer:Obs.Tracer.disabled ~spec ~rms:rms' ~procs records in
  let r2 = clock () in
  let restart_checks =
    match recovered with
    | Error e -> [ ("recover: " ^ e, false) ]
    | Ok t' ->
        Scheduler.run ~until:1e6 t';
        let after = statuses t' pids in
        let stores_kept =
          List.for_all2
            (fun snap rm -> snap = Store.snapshot (Rm.store rm))
            snapshots rms'
        in
        Gate.restart ~finished:(Scheduler.finished t') ~before ~after
        @ [ ("restart keeps subsystem state", stores_kept) ]
  in
  let r3 = clock () in
  if durable then List.iter (fun rm -> close_store (Rm.store rm)) rms';
  {
    outcome;
    setup_s;
    wall_s;
    segments;
    spans;
    vt_makespan = Scheduler.now t;
    vt_latency = Metrics.samples m "latency";
    load_s = r1 -. r0;
    recover_s = r2 -. r1;
    complete_s = r3 -. r2;
    heap_live_mb;
    failed = Gate.failures (checks @ restart_checks);
    server_rejected = 0;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* serve_longlived: one server, one closed-loop client over a socketpair *)

type reply = {
  mutable committed : int;
  mutable aborted : int;
  mutable rejected : int;
  mutable errors : int;
}

let read_reply ic r =
  let rec go () =
    match input_line ic with
    | "." -> ()
    | line ->
        (match String.split_on_char ' ' line with
        | [ "decision"; _; d ] when String.length d >= 6 && String.sub d 0 6 = "reject" ->
            r.rejected <- r.rejected + 1
        | [ "status"; _; "committed" ] -> r.committed <- r.committed + 1
        | [ "status"; _; "aborted" ] -> r.aborted <- r.aborted + 1
        | [ "status"; _; "shed" ] -> r.rejected <- r.rejected + 1
        | "error" :: _ -> r.errors <- r.errors + 1
        | _ -> ());
        go ()
  in
  go ()

let serve_round ~seed ~n ~traced ~full ~heap ~dir =
  let p = probe traced in
  let params = params Serve_longlived in
  let policy = wal_policy Serve_longlived in
  let wal_path = Filename.concat dir "wal" in
  let heap0 = if heap then live_mb () else 0.0 in
  let s0 = clock () in
  let spec = Generator.spec params in
  let procs = List.init n (fun i -> Generator.process ~seed params ~pid:(i + 1)) in
  let docs = List.map render procs in
  let registry = timed_registry p (Generator.registry params) in
  let rms =
    List.mapi
      (fun i name -> Rm.create ~name ~registry ~seed:(seed + i) ())
      (subsystem_names params)
  in
  let config =
    {
      Scheduler.default_config with
      seed;
      (* each document runs alone: with unit service times every latency
         would be its process's critical-path length *)
      stochastic_times = true;
      wal_sync = policy;
      admission_clock = admission_clock p;
    }
  in
  let sched = Scheduler.create ~config ~tracer:(tracer p) ~wal_path ~spec ~rms () in
  let srv = Server.create sched in
  let client, server_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server = Domain.spawn (fun () -> Server.handle_connection srv server_end) in
  let ic = Unix.in_channel_of_descr client and oc = Unix.out_channel_of_descr client in
  let setup_s = clock () -. s0 in
  (* measured phase: write a document, wait for its final "." line *)
  let r = { committed = 0; aborted = 0; rejected = 0; errors = 0 } in
  let w0 = clock () in
  let segments =
    List.map
      (fun doc ->
        let t0 = clock () in
        output_string oc doc;
        output_string oc ".\n";
        flush oc;
        read_reply ic r;
        clock () -. t0)
      docs
  in
  let wall_s = clock () -. w0 in
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Domain.join server;
  let heap_live_mb = if heap then live_mb () -. heap0 else 0.0 in
  Unix.close server_end;
  Unix.close client;
  let admitted = List.map Process.pid (Server.admitted_procs srv) in
  let before = statuses sched admitted in
  let outcome =
    {
      Gate.offered = n;
      committed = r.committed;
      aborted = r.aborted;
      rejected = r.rejected;
      unfinished = n - r.committed - r.aborted - r.rejected;
    }
  in
  let m = Scheduler.metrics sched in
  let layers =
    if traced then
      Some (layers_of p ~t:sched ~rms ~wal_path ~dir ~policy ~docs ~parses_in_run:n)
    else None
  in
  let checks =
    Gate.outcome outcome
    @ [ ("server accounting", Server.accounting_ok srv); ("no error replies", r.errors = 0) ]
    @ Gate.history ~full (Scheduler.history sched)
  in
  ignore (Scheduler.crash sched);
  let r0 = clock () in
  let records = Wal.load_records wal_path in
  let r1 = clock () in
  let recovered =
    Scheduler.recover ~config:{ config with admission_clock = None } ~tracer:Obs.Tracer.disabled ~spec ~rms
      ~procs:(Server.admitted_procs srv) records
  in
  let r2 = clock () in
  let restart_checks =
    match recovered with
    | Error e -> [ ("recover: " ^ e, false) ]
    | Ok t' ->
        Scheduler.run ~until:1e6 t';
        Gate.restart ~finished:(Scheduler.finished t') ~before ~after:(statuses t' admitted)
  in
  let r3 = clock () in
  {
    outcome;
    setup_s;
    wall_s;
    segments;
    spans = List.init n (fun i -> (i, i + 1));
    vt_makespan = Scheduler.now sched;
    vt_latency = Metrics.samples m "latency";
    load_s = r1 -. r0;
    recover_s = r2 -. r1;
    complete_s = r3 -. r2;
    heap_live_mb;
    failed = Gate.failures (checks @ restart_checks);
    server_rejected = (Server.counters srv).Server.rejected;
    layers;
  }

(* [full] adds the PRED and process-recoverability checks (small scales
   only); [heap] measures the live heap after the measured phase *)
let round ?(full = false) ?(heap = false) kind ~seed ~n ~traced ~dir =
  fresh_dir dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match kind with
      | Batch_contended | Durable_short -> batch_round kind ~seed ~n ~traced ~full ~heap ~dir
      | Serve_longlived -> serve_round ~seed ~n ~traced ~full ~heap ~dir)

(* Repetitions of one round on the same input, merged into one: each
   segment's fastest time, the fastest set-up and restart phases, and the
   largest live heap.  The schedule is deterministic, so a segment does
   the same work in every repetition; the host's interference only ever
   adds time, in bursts that rarely hit the same segment every time.  The
   rest (wall time, counters, layers) is the fastest repetition's own.  A
   failed check of any repetition is kept. *)
let merge rs =
  let fastest = List.fold_left (fun a r -> if r.wall_s < a.wall_s then r else a) (List.hd rs) rs in
  let least g = List.fold_left (fun a r -> Float.min a (g r)) infinity rs in
  let alike r =
    List.length r.segments = List.length fastest.segments && r.spans = fastest.spans
  in
  let segments =
    if List.for_all alike rs then
      List.fold_left (fun acc r -> List.map2 Float.min acc r.segments) fastest.segments rs
    else fastest.segments
  in
  {
    fastest with
    segments;
    setup_s = least (fun r -> r.setup_s);
    load_s = least (fun r -> r.load_s);
    recover_s = least (fun r -> r.recover_s);
    complete_s = least (fun r -> r.complete_s);
    heap_live_mb = List.fold_left (fun a r -> Float.max a r.heap_live_mb) 0.0 rs;
    failed = List.sort_uniq compare (List.concat_map (fun r -> r.failed) rs);
  }

(* A run makes [passes] passes over the same inputs.  The first pass
   takes new inputs until [seconds / passes] have passed (at least
   [min_rounds]) and also measures the live heap; input [k] of a run
   seeded [seed] is generated from seed [seed * 1000 + k].  The later
   passes repeat those inputs in order, so the repetitions of one input
   lie a pass apart and a slow spell of the host rarely covers all of
   them.  With [trace], each round is followed by a traced twin on the
   same input, so the pair's wall times give the tracing overhead.
   Returns one merged (plain, traced) pair per input. *)
let passes = 5

let run kind ~seed ~seconds ~trace ~min_rounds ~workdir () =
  let n = default_procs kind in
  let t0 = clock () in
  let pair ?heap k =
    let seed = (seed * 1000) + k in
    let dir = Filename.concat workdir (Printf.sprintf "r%d" k) in
    let plain = round ?heap kind ~seed ~n ~traced:false ~dir in
    (plain, if trace then Some (round kind ~seed ~n ~traced:true ~dir) else None)
  in
  let rec first k acc =
    if k >= min_rounds && clock () -. t0 >= seconds /. float_of_int passes then List.rev acc
    else first (k + 1) (pair ~heap:true k :: acc)
  in
  let pass1 = first 0 [] in
  let later = List.init (passes - 1) (fun _ -> List.mapi (fun k _ -> pair k) pass1) in
  List.mapi
    (fun k _ ->
      let reps = List.map (fun pass -> List.nth pass k) (pass1 :: later) in
      let traced = List.filter_map snd reps in
      (merge (List.map fst reps), if traced = [] then None else Some (merge traced)))
    pass1
