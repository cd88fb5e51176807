(* Randomized stress of the scheduler: many seeds, modes, failure rates,
   outage plans and message-fault plans; every run is judged by
   {!Tpm_oracle.Oracle.run}.  Under pure message faults (loss,
   duplication, reordering — no invocation failures) the final subsystem
   stores must additionally be identical to a fault-free run of the same
   seed: the 2PC retransmission and termination protocol may delay
   commits but never change outcomes.  With --amnesia each run is crashed
   right after the first commit decision of its twin without message
   faults (append 12 if that twin commits nothing through 2PC) and
   recovered with the coordinator records declared lost: a 2PC instance
   has one participant, so its in-doubt token is presumed aborted.  Every
   failing combination prints a one-line repro including the fault plan.

   dune exec tools/stress.exe -- \
     --seeds 41-120 --modes deferred,quasi --fail-rates 0.1 --outages 0.2 \
     --msg-faults 0.05 *)
open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Shard = Tpm_scheduler.Shard
module Server = Tpm_server.Server
module Generator = Tpm_workload.Generator
module Faults = Tpm_sim.Faults
module Prng = Tpm_sim.Prng
module Rm = Tpm_subsys.Rm
module Obs = Tpm_obs.Obs
module Wal = Tpm_wal.Wal
module Oracle = Tpm_oracle.Oracle

let mode_of_name = function
  | "conservative" -> Scheduler.Conservative
  | "deferred" -> Scheduler.Deferred
  | "quasi" -> Scheduler.Quasi
  | s -> raise (Arg.Bad (Printf.sprintf "unknown mode %S" s))

let split_commas s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

let parse_floats s =
  List.map
    (fun x ->
      match float_of_string_opt x with
      | Some f -> f
      | None -> raise (Arg.Bad (Printf.sprintf "bad number %S" x)))
    (split_commas s)

(* "41-120" (inclusive range) or "3,7,11" *)
let parse_seeds s =
  let bad () = raise (Arg.Bad (Printf.sprintf "bad seed spec %S" s)) in
  let int x = match int_of_string_opt x with Some n -> n | None -> bad () in
  match String.index_opt s '-' with
  | Some i ->
      let lo = int (String.sub s 0 i) in
      let hi = int (String.sub s (i + 1) (String.length s - i - 1)) in
      if hi < lo then bad ();
      List.init (hi - lo + 1) (fun k -> lo + k)
  | None -> List.map int (split_commas s)

let serve_mode = ref false
let offered_loads = ref [ 2.0; 8.0 ]
let serve_horizon = ref 20.0
let overload_policies = ref [ "reject"; "queue"; "degrade" ]
let seeds = ref (parse_seeds "41-120")
let modes = ref [ "conservative"; "deferred"; "quasi" ]
let fail_rates = ref [ 0.0; 0.1; 0.3 ]
let outages = ref [ 0.0 ]
let msg_rates = ref [ 0.0 ]
let amnesia = ref false
let check_admission = ref false
let n_procs = ref 8
let horizon = ref 50.0
let trace_ring = ref false
let inject_failure = ref false
let shards_opt = ref 0
let domains_opt = ref 1
let churn_mode = ref false

(* [None] = in-memory log only (the historical default); [Some policy]
   mirrors every run's WAL to a scratch directory under that sync policy
   and cross-checks the on-disk image against memory after the run *)
let sync_policy : (string * Wal.sync_policy) option ref = ref None

let parse_sync_policy s =
  let policy =
    match s with
    | "none" -> Wal.No_sync
    | "each" -> Wal.Sync_each
    | _ when String.length s > 6 && String.sub s 0 6 = "group:" -> (
        match float_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some w when w >= 0.0 -> Wal.Group w
        | _ -> raise (Arg.Bad (Printf.sprintf "bad group window in %S" s)))
    | _ -> raise (Arg.Bad (Printf.sprintf "unknown sync policy %S (none|each|group:W)" s))
  in
  sync_policy := Some (s, policy)

let parse_probs name s =
  let l = parse_floats s in
  List.iter
    (fun p ->
      if p < 0.0 || p >= 1.0 then
        raise (Arg.Bad (Printf.sprintf "%s: probability %g out of [0,1)" name p)))
    l;
  l

let speclist =
  [
    ( "--seeds",
      Arg.String (fun s -> seeds := parse_seeds s),
      "RANGE workload seeds, \"41-120\" or \"3,7,11\" (default 41-120)" );
    ( "--modes",
      Arg.String
        (fun s ->
          let l = split_commas s in
          List.iter (fun m -> ignore (mode_of_name m)) l;
          modes := l),
      "LIST scheduler modes among conservative,deferred,quasi (default all)" );
    ( "--fail-rates",
      Arg.String (fun s -> fail_rates := parse_floats s),
      "LIST per-invocation failure probabilities (default 0.0,0.1,0.3)" );
    ( "--outages",
      Arg.String (fun s -> outages := parse_probs "--outages" s),
      "LIST outage duty cycles in [0,1); 0 disables the plan (default 0.0)" );
    ( "--msg-faults",
      Arg.String (fun s -> msg_rates := parse_probs "--msg-faults" s),
      "LIST message loss/duplication rates in [0,1) applied to every 2PC \
       link over the horizon, with delay-induced reordering; 0 disables \
       (default 0.0)" );
    ( "--amnesia",
      Arg.Set amnesia,
      " crash each run right after its first 2PC commit decision (append 12 \
       without one) and recover with the coordinator records declared lost: \
       in-doubt tokens are presumed aborted" );
    ( "--check-admission",
      Arg.Set check_admission,
      " differential admission testing: run the incremental engine and the \
       string-based reference oracle side by side on every admission and \
       fail on any divergence in decisions, dependency edges, or \
       would-cycle verdicts, or on a parked waiter found admissible \
       (missed wakeup); applies to --serve, --churn and --shards too" );
    ("--procs", Arg.Set_int n_procs, "N processes per run (default 8)");
    ( "--horizon",
      Arg.Set_float horizon,
      "T virtual-time span the random fault plans cover (default 50)" );
    ( "--trace-ring",
      Arg.Set trace_ring,
      " run every scheduler with a ring-buffer tracer; any invariant \
       failure then dumps the last trace events and the metrics snapshot \
       (failure forensics)" );
    ( "--inject-failure",
      Arg.Set inject_failure,
      " leak a prepared token in the first run, so its oracle check must \
       fail (CI self-test: asserts the failure path and the forensics dump \
       fire)" );
    ( "--sync-policy",
      Arg.String parse_sync_policy,
      "P mirror every run's WAL to disk under sync policy none|each|group:W \
       (e.g. group:0.2) and cross-check the on-disk image against memory \
       after each run (default: in-memory log only)" );
    ( "--serve",
      Arg.Set serve_mode,
      " server-mode stress: drive the open-world server with open-loop \
       arrival scripts instead of closed batches; checks the shed-accounting \
       invariant, drain, and that the final stores equal a closed-batch run \
       of exactly the admitted subset" );
    ( "--offered-load",
      Arg.String
        (fun s ->
          let l = parse_floats s in
          List.iter
            (fun r -> if r <= 0.0 then raise (Arg.Bad "offered load must be positive"))
            l;
          offered_loads := l),
      "LIST offered loads (arrivals per unit virtual time) for --serve \
       (default 2.0,8.0)" );
    ( "--serve-horizon",
      Arg.Float
        (fun h ->
          if h <= 0.0 then raise (Arg.Bad "serve horizon must be positive");
          serve_horizon := h),
      "T virtual-time span of the --serve arrival scripts (default 20); a \
       long horizon builds a history of hundreds of terminated processes" );
    ( "--shards",
      Arg.Set_int shards_opt,
      "N sharded stress: partition clustered workloads by conflict \
       component via Shard.run_parallel into at most N shards, check \
       per-shard invariants (termination, legality, PRED, admission \
       oracle under --check-admission) and that the union of the shard \
       histories equals a single-engine run of the same workload \
       (default 0 = off)" );
    ( "--domains",
      Arg.Set_int domains_opt,
      "D OCaml domains driving the shards in --shards mode (default 1)" );
    ( "--churn",
      Arg.Set churn_mode,
      " mixed-churn stress: staggered submissions interleaved with random \
       abort requests, the run advanced in time slices with the \
       incremental latent base cross-checked against the from-scratch \
       algorithm at every slice (dirty-set invalidation exercise)" );
    ( "--overload-policy",
      Arg.String
        (fun s ->
          let l = split_commas s in
          List.iter
            (fun p ->
              if Server.policy_of_string p = None then
                raise (Arg.Bad (Printf.sprintf "unknown overload policy %S" p)))
            l;
          overload_policies := l),
      "LIST overload policies among reject,queue,degrade for --serve \
       (default all)" );
  ]

(* Counts a judged run as one failure when it violated anything, printing
   its repro prefix and every violation, then the forensics. *)
let judge failures ?(forensics = ignore) repro violations =
  if violations <> [] then begin
    incr failures;
    Format.printf "%s %s@." repro (String.concat "; " violations);
    forensics ()
  end

(* Failure forensics: under --trace-ring every scheduler records into a
   ring buffer, and a failing run dumps its last trace events and its
   metrics snapshot. *)
let mk_tracer () =
  if !trace_ring then Obs.Tracer.create ~ring_capacity:256 () else Obs.Tracer.disabled

let dump_forensics sched = if !trace_ring then Scheduler.forensics Format.std_formatter sched

(* The amnesia arm's crash point: right after the first [Coord_committed]
   of a twin run under [faults] without the crash, so the crash strands
   that decision's participant in doubt; append 12 when the twin decides
   nothing through 2PC. *)
let amnesia_crash_point ~config ~spec ~faults ~rms ~procs =
  let t = Scheduler.create ~config ~faults ~spec ~rms () in
  List.iteri (fun i p -> Scheduler.submit t ~at:(0.4 *. float_of_int i) p) procs;
  Scheduler.run ~until:100000.0 t;
  let rec first i = function
    | [] -> 12
    | Wal.Coord_committed _ :: _ -> i
    | _ :: rest -> first (i + 1) rest
  in
  first 1 (Scheduler.wal_records t)

(* --inject-failure: leak a prepared token at the first activity's
   subsystem, which the oracle must catch *)
let inject_leak rms procs =
  let a = List.hd (Process.activities (List.hd procs)) in
  let rm = List.find (fun rm -> Rm.name rm = a.Activity.subsystem) rms in
  ignore (Rm.prepare rm ~token:max_int ~service:a.Activity.service ~attempt:max_int ())

(* --- server-mode stress ---

   Open-loop arrivals against the bounded-admission server.  Fault-free on
   purpose: the oracle is that serving is {e transparent} — the subsystem
   stores after a served run must equal a closed-batch run of exactly the
   processes the server admitted (degraded variants included).  Overload
   may shed work; it must never corrupt what was admitted.  Under
   --check-admission both runs use the Checked engine: arrivals land
   while earlier processes are parked, which the missed-wakeup detector
   watches. *)
let serve_stress () =
  let failures = ref 0 in
  let runs = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun policy_name ->
          let policy = Option.get (Server.policy_of_string policy_name) in
          List.iter
            (fun rate ->
              incr runs;
              let params =
                { Generator.default_params with services = 8; conflict_density = 0.4 }
              in
              let spec = Generator.spec params in
              let config =
                {
                  Scheduler.default_config with
                  seed;
                  admission_engine =
                    (if !check_admission then Scheduler.Checked
                     else Scheduler.Incremental);
                }
              in
              let rms = Generator.rms params ~seed () in
              let sched =
                Scheduler.create ~config ~tracer:(mk_tracer ()) ~spec ~rms ()
              in
              let srv =
                Server.create
                  ~config:
                    {
                      Server.default_config with
                      policy;
                      max_live = 4;
                      queue_capacity = 8;
                      default_deadline = 4.0;
                    }
                  sched
              in
              let script =
                Generator.arrivals params ~seed:(seed * 100) ~rate ~horizon:!serve_horizon
              in
              let repro () =
                Printf.sprintf "seed=%d serve policy=%s load=%.1f horizon=%g%s" seed
                  policy_name rate !serve_horizon
                  (if !check_admission then " check-admission" else "")
              in
              let dump_forensics () = dump_forensics sched in
              (try
                 Server.play srv script;
                 Server.run srv;
                 Server.drain srv
               with e ->
                 incr failures;
                 Format.printf "%s EXCEPTION %s@." (repro ()) (Printexc.to_string e);
                 dump_forensics ());
              judge failures ~forensics:dump_forensics (repro ())
                (Oracle.run sched
                @ (if Server.accounting_ok srv then [] else [ "shed accounting violated" ])
                @
                if (Server.counters srv).Server.offered = List.length script then []
                else [ "offered count differs from the script" ]);
              (* the transparency oracle: closed-batch twin of the admitted
                 subset (fault-free, so every admitted process commits in
                 both worlds and the stores must agree exactly) *)
              let admitted = Server.admitted_procs srv in
              let rms0 = Generator.rms params ~seed () in
              let t0 = Scheduler.create ~config ~spec ~rms:rms0 () in
              List.iteri
                (fun i p -> Scheduler.submit t0 ~at:(0.4 *. float_of_int i) p)
                admitted;
              (try Scheduler.run ~until:100000.0 t0
               with e ->
                 incr failures;
                 Format.printf "%s TWIN-EXCEPTION %s@." (repro ())
                   (Printexc.to_string e));
              judge failures ~forensics:dump_forensics
                (Printf.sprintf "%s closed-batch twin of %d admitted:" (repro ())
                   (List.length admitted))
                (Oracle.same_stores rms rms0))
            !offered_loads)
        !overload_policies)
    !seeds;
  Format.printf "stress --serve: %d runs, %d failures@." !runs !failures;
  exit (if !failures = 0 then 0 else 1)

(* --- sharded stress ---

   Clustered (conflict-disjoint) workloads through [Shard.run_parallel]:
   every shard must terminate with a legal, PRED history (the per-shard
   admission oracle runs too under --check-admission), and the union of
   the shard histories, filtered per pid set, must equal a single-engine
   run of the same workload — decision equivalence, not just safety. *)
let sharded_stress () =
  let failures = ref 0 in
  let runs = ref 0 in
  let event_str ev = Format.asprintf "%a" Schedule.pp_event ev in
  List.iter
    (fun seed ->
      incr runs;
      let params =
        { Generator.default_params with services = 8; conflict_density = 0.3 }
      in
      let clusters = max 2 !shards_opt in
      let spec, make_rms, procs, _ =
        Generator.clustered ~seed params ~clusters ~n:!n_procs
      in
      let items = List.mapi (fun i p -> (0.4 *. float_of_int i, p)) procs in
      let config =
        {
          Scheduler.default_config with
          seed;
          admission_engine =
            (if !check_admission then Scheduler.Checked else Scheduler.Incremental);
        }
      in
      let repro () =
        Printf.sprintf "seed=%d sharded shards=%d domains=%d procs=%d%s" seed
          !shards_opt !domains_opt !n_procs
          (if !check_admission then " check-admission" else "")
      in
      let wal_dir =
        let dir = Filename.temp_file "tpm_shardstress" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        dir
      in
      let wal_path = Filename.concat wal_dir "wal.log" in
      let buckets = Array.of_list (Shard.partition ~shards:!shards_opt ~spec items) in
      (* [Shard.run_parallel] runs untraced schedulers.  Buckets are
         deterministic, so forensics replays the failing shard alone with
         a ring tracer and dumps that replay. *)
      let shard_forensics i =
        if !trace_ring then begin
          let t = Scheduler.create ~config ~tracer:(mk_tracer ()) ~spec ~rms:(make_rms ()) () in
          List.iter (fun (at, p) -> Scheduler.submit t ~at p) buckets.(i);
          (try Scheduler.run t
           with e ->
             Format.printf "%s shard=%d replay EXCEPTION %s@." (repro ()) i
               (Printexc.to_string e));
          dump_forensics t
        end
      in
      match
        Shard.run_parallel ~shards:!shards_opt ~domains:!domains_opt ~config ~spec
          ~make_rms ~wal_path items
      with
      | exception e ->
          incr failures;
          Format.printf "%s EXCEPTION %s@." (repro ()) (Printexc.to_string e);
          Array.iteri (fun i _ -> shard_forensics i) buckets
      | scheds ->
          List.iteri
            (fun i t ->
              judge failures
                ~forensics:(fun () -> shard_forensics i)
                (Printf.sprintf "%s shard=%d" (repro ()) i)
                (Oracle.run t))
            scheds;
          let covered =
            List.concat_map
              (fun t -> Schedule.proc_ids (Scheduler.history t))
              scheds
            |> List.sort compare
          in
          if covered <> List.sort compare (List.map Process.pid procs) then begin
            incr failures;
            Format.printf "%s COVERAGE: shards ran %d of %d processes@." (repro ())
              (List.length covered) (List.length procs)
          end;
          let solo =
            Scheduler.create ~config ~spec ~rms:(make_rms ()) ()
          in
          List.iter (fun (at, p) -> Scheduler.submit solo ~at p) items;
          (match Scheduler.run ~until:100000.0 solo with
          | exception e ->
              incr failures;
              Format.printf "%s SOLO-EXCEPTION %s@." (repro ())
                (Printexc.to_string e)
          | () ->
              List.iter
                (fun t ->
                  let pids = Schedule.proc_ids (Scheduler.history t) in
                  let touches pid = List.mem pid pids in
                  let filtered =
                    List.filter
                      (fun ev ->
                        match ev with
                        | Schedule.Act inst -> touches (Activity.instance_proc inst)
                        | Schedule.Commit p | Schedule.Abort p -> touches p
                        | Schedule.Group_abort ps -> List.exists touches ps)
                      (Schedule.events (Scheduler.history solo))
                  in
                  if
                    List.map event_str (Schedule.events (Scheduler.history t))
                    <> List.map event_str filtered
                  then begin
                    incr failures;
                    Format.printf "%s HISTORY-DIVERGENCE from single engine@."
                      (repro ())
                  end)
                scheds);
          (* recovery from the sharded run's WALs: each shard's on-disk log
             ["wal.log.shard<i>"] must load clean and recover, with that
             shard's submissions, to the same terminal statuses the live
             shard reached *)
          List.iteri
            (fun i t ->
              ignore (Wal.sync (Scheduler.wal t));
              let path = Printf.sprintf "%s.shard%d" wal_path i in
              let bucket_procs = List.map snd (Array.get buckets i) in
              match Wal.load path with
              | exception e ->
                  incr failures;
                  Format.printf "%s shard=%d WAL-LOAD-EXCEPTION %s@." (repro ()) i
                    (Printexc.to_string e)
              | report -> (
                  if report.Wal.anomalies <> [] then begin
                    incr failures;
                    Format.printf "%s shard=%d WAL-ANOMALIES@." (repro ()) i
                  end;
                  match
                    Scheduler.recover ~config ~spec ~rms:(make_rms ())
                      ~procs:bucket_procs report.Wal.records
                  with
                  | Error e ->
                      incr failures;
                      Format.printf "%s shard=%d RECOVERY-ERROR %s@." (repro ()) i e
                  | Ok t2 ->
                      (try Scheduler.run ~until:100000.0 t2
                       with e ->
                         incr failures;
                         Format.printf "%s shard=%d RECOVERY-RUN-EXCEPTION %s@."
                           (repro ()) i (Printexc.to_string e));
                      judge failures
                        (Printf.sprintf "%s shard=%d recovered:" (repro ()) i)
                        (Oracle.run ~before:report.Wal.records t2);
                      List.iter
                        (fun p ->
                          let pid = Process.pid p in
                          if Scheduler.status t pid <> Scheduler.status t2 pid
                          then begin
                            incr failures;
                            Format.printf "%s shard=%d P%d STATUS-DIVERGENCE@."
                              (repro ()) i pid
                          end)
                        bucket_procs))
            scheds;
          Array.iter
            (fun e ->
              try Sys.remove (Filename.concat wal_dir e) with Sys_error _ -> ())
            (Sys.readdir wal_dir);
          (try Unix.rmdir wal_dir with Unix.Unix_error _ -> ()))
    !seeds;
  Format.printf "stress --shards: %d runs, %d failures@." !runs !failures;
  exit (if !failures = 0 then 0 else 1)

(* --- mixed-churn stress ---

   Staggered submissions with random abort requests in between, the run
   advanced slice by slice; at every slice boundary the incrementally
   maintained latent base (dirty-set invalidation, patched order) is
   cross-checked against the from-scratch algorithm. *)
let churn_stress () =
  let failures = ref 0 in
  let runs = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun mode_name ->
          incr runs;
          let mode = mode_of_name mode_name in
          let params =
            { Generator.default_params with services = 8; conflict_density = 0.4 }
          in
          let rng = Prng.create (seed * 31 + 17) in
          let spec = Generator.spec params in
          let rms = Generator.rms params ~seed () in
          let config =
            {
              Scheduler.default_config with
              mode;
              seed;
              admission_engine =
                (if !check_admission then Scheduler.Checked
                 else Scheduler.Incremental);
            }
          in
          let t = Scheduler.create ~config ~tracer:(mk_tracer ()) ~spec ~rms () in
          let procs = Generator.batch ~seed:(seed * 100) params ~n:!n_procs in
          List.iteri
            (fun i p -> Scheduler.submit t ~at:(0.6 *. float_of_int i) p)
            procs;
          let repro () =
            Printf.sprintf "seed=%d churn mode=%s procs=%d%s" seed mode_name
              !n_procs
              (if !check_admission then " check-admission" else "")
          in
          let slices = 8 in
          let span = 0.6 *. float_of_int !n_procs in
          (try
             for k = 1 to slices do
               Scheduler.run ~until:(span *. float_of_int k /. float_of_int slices) t;
               if Prng.chance rng 0.5 then begin
                 let victim = 1 + Prng.int rng !n_procs in
                 if Scheduler.status t victim = Schedule.Active then
                   Scheduler.request_abort t victim
               end;
               match Scheduler.latent_self_check t with
               | Ok () -> ()
               | Error msg ->
                   incr failures;
                   Format.printf "%s slice=%d LATENT-DIVERGENCE %s@." (repro ()) k
                     msg
             done;
             Scheduler.run ~until:100000.0 t
           with e ->
             incr failures;
             Format.printf "%s EXCEPTION %s@." (repro ()) (Printexc.to_string e);
             dump_forensics t);
          if !inject_failure && !runs = 1 then inject_leak rms procs;
          judge failures ~forensics:(fun () -> dump_forensics t) (repro ())
            (Oracle.run t
            @
            match Scheduler.latent_self_check t with
            | Ok () -> []
            | Error msg -> [ "LATENT-DIVERGENCE " ^ msg ]))
        !modes)
    !seeds;
  Format.printf "stress --churn: %d runs, %d failures@." !runs !failures;
  exit (if !failures = 0 then 0 else 1)

let () =
  Arg.parse speclist
    (fun s -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" s)))
    "stress [options]";
  if !serve_mode then serve_stress ();
  if !shards_opt > 0 then sharded_stress ();
  if !churn_mode then churn_stress ();
  let failures = ref 0 in
  let runs = ref 0 in
  (* amnesia runs whose crash left a participant in doubt *)
  let in_doubt_runs = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun mode_name ->
          let mode = mode_of_name mode_name in
          List.iter
            (fun fail_rate ->
              List.iter
                (fun outage_duty ->
                  List.iter
                    (fun msg_rate ->
                      incr runs;
                      let params =
                        {
                          Generator.default_params with
                          services = 8;
                          conflict_density = 0.4;
                        }
                      in
                      let rms =
                        Generator.rms params ~fail_prob:(fun _ -> fail_rate) ~seed ()
                      in
                      let base =
                        if outage_duty <= 0.0 then Faults.none
                        else
                          Faults.random
                            (Prng.create (seed * 7919))
                            ~subsystems:(List.map Rm.name rms) ~horizon:!horizon
                            ~outage_duty ()
                      in
                      (* message faults cover [0, horizon): traffic past the
                         horizon is clean, so every 2PC round eventually
                         terminates via retransmission *)
                      let faults =
                        {
                          base with
                          Faults.msg_faults =
                            (if msg_rate <= 0.0 then []
                             else
                               Faults.uniform_msg_faults ~drop:msg_rate ~dup:msg_rate
                                 ~delay:0.5 ~horizon:!horizon ());
                        }
                      in
                      let spec = Generator.spec params in
                      let config =
                        {
                          Scheduler.default_config with
                          mode;
                          seed;
                          admission_engine =
                            (if !check_admission then Scheduler.Checked
                             else Scheduler.Incremental);
                          wal_sync =
                            (match !sync_policy with
                            | Some (_, p) -> p
                            | None -> Scheduler.default_config.Scheduler.wal_sync);
                        }
                      in
                      let wal_dir =
                        Option.map
                          (fun _ ->
                            let dir = Filename.temp_file "tpm_stress" "" in
                            Sys.remove dir;
                            Unix.mkdir dir 0o755;
                            dir)
                          !sync_policy
                      in
                      let wal_path =
                        Option.map (fun d -> Filename.concat d "wal.log") wal_dir
                      in
                      let procs = Generator.batch ~seed:(seed * 100) params ~n:!n_procs in
                      let faults =
                        if not !amnesia then faults
                        else
                          {
                            faults with
                            Faults.crash_after_appends =
                              Some
                                (amnesia_crash_point ~config ~spec ~faults:base
                                   ~rms:
                                     (Generator.rms params
                                        ~fail_prob:(fun _ -> fail_rate)
                                        ~seed ())
                                   ~procs);
                          }
                      in
                      let t =
                        Scheduler.create ~config ~faults ~tracer:(mk_tracer ()) ~spec
                          ~rms ?wal_path ()
                      in
                      List.iteri
                        (fun i p -> Scheduler.submit t ~at:(0.4 *. float_of_int i) p)
                        procs;
                      let repro () =
                        Printf.sprintf "seed=%d mode=%s fail=%.2f outage=%.2f msg=%.2f%s plan=%s"
                          seed mode_name fail_rate outage_duty msg_rate
                          (if !amnesia then " amnesia" else "")
                          (Faults.to_string faults)
                        ^ (if !check_admission then " check-admission" else "")
                        ^
                        match !sync_policy with
                        | Some (name, _) -> " sync=" ^ name
                        | None -> ""
                      in
                      let guarded sched f =
                        try f ()
                        with e ->
                          incr failures;
                          Format.printf "%s EXCEPTION %s@." (repro ())
                            (Printexc.to_string e);
                          dump_forensics sched
                      in
                      guarded t (fun () -> Scheduler.run ~until:100000.0 t);
                      (* with a mirrored WAL: once quiescent (and synced),
                         the on-disk image must load cleanly and match the
                         in-memory record stream bit for bit, whatever the
                         batching policy did along the way *)
                      (match wal_path with
                      | Some path when not (Scheduler.is_crashed t) -> (
                          ignore (Wal.sync (Scheduler.wal t));
                          match Wal.load path with
                          | exception e ->
                              incr failures;
                              Format.printf "%s WAL-LOAD-EXCEPTION %s@." (repro ())
                                (Printexc.to_string e)
                          | report ->
                              if
                                report.Wal.anomalies <> []
                                || report.Wal.records <> Scheduler.wal_records t
                              then begin
                                incr failures;
                                Format.printf "%s WAL-DISK-DIVERGENCE@." (repro ())
                              end)
                      | Some _ | None -> ());
                      let t =
                        (* amnesia arm: the run crashed mid-log; recover it
                           with the coordinator records declared lost and
                           judge the recovered scheduler instead *)
                        if !amnesia && Scheduler.is_crashed t then begin
                          if List.exists (fun rm -> Rm.in_doubt rm <> []) rms then
                            incr in_doubt_runs;
                          match
                            Scheduler.recover ~config ~amnesia:true
                              ~tracer:(mk_tracer ()) ~spec ~rms ~procs
                              (Scheduler.wal_records t)
                          with
                          | Error e ->
                              incr failures;
                              Format.printf "%s RECOVERY-ERROR %s@." (repro ()) e;
                              dump_forensics t;
                              t
                          | Ok t2 ->
                              guarded t2 (fun () -> Scheduler.run ~until:100000.0 t2);
                              t2
                        end
                        else t
                      in
                      (* the self-test leaks a prepared token in the first
                         run, which the oracle must catch *)
                      if !inject_failure && !runs = 1 then inject_leak rms procs;
                      judge failures ~forensics:(fun () -> dump_forensics t) (repro ())
                        (Oracle.run t);
                      (* pure message faults never change outcomes: the final
                         stores must equal a fault-free run of the same seed *)
                      if
                        msg_rate > 0.0 && fail_rate = 0.0 && outage_duty <= 0.0
                        && not !amnesia
                      then begin
                        let rms0 = Generator.rms params ~seed () in
                        let t0 = Scheduler.create ~config ~spec ~rms:rms0 () in
                        List.iteri
                          (fun i p -> Scheduler.submit t0 ~at:(0.4 *. float_of_int i) p)
                          procs;
                        guarded t0 (fun () -> Scheduler.run ~until:100000.0 t0);
                        judge failures ~forensics:(fun () -> dump_forensics t)
                          (repro () ^ " fault-free twin:")
                          (Oracle.same_stores rms rms0)
                      end;
                      Option.iter
                        (fun dir ->
                          Array.iter
                            (fun e ->
                              try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
                            (Sys.readdir dir);
                          try Unix.rmdir dir with Unix.Unix_error _ -> ())
                        wal_dir)
                    !msg_rates)
                !outages)
            !fail_rates)
        !modes)
    !seeds;
  if !amnesia then
    Format.printf "stress --amnesia: %d of %d runs recovered an in-doubt token@."
      !in_doubt_runs !runs;
  Format.printf "stress: %d runs, %d failures@." !runs !failures;
  exit (if !failures = 0 then 0 else 1)
