(* Sharded admission (DESIGN.md §13) and the incremental latent base:
   - property: the dirty-set-maintained latent base equals the
     from-scratch base after randomized mutation sequences (admissions,
     occurrences, aborts, group aborts) — [Scheduler.latent_self_check]
     at random points of real runs;
   - property: shard partitions are conflict-closed and cover the batch;
     sharded decision trajectories equal the single-engine trajectory on
     conflict-disjoint (clustered) workloads;
   - the routing front door: ownership, spanning-submission deflection,
     component merge after drain, shed accounting. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Shard = Tpm_scheduler.Shard
module Server = Tpm_server.Server
module Router = Tpm_server.Router
module Generator = Tpm_workload.Generator
module Prng = Tpm_sim.Prng

let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000)

let small_params =
  {
    Generator.default_params with
    services = 8;
    subsystems = 2;
    conflict_density = 0.3;
    activities_min = 2;
    activities_max = 5;
  }

(* ------------------------------------------------------------------ *)
(* Property: incremental latent base ≡ from-scratch base under churn *)

let latent_equiv_under_churn =
  QCheck.Test.make ~count:60
    ~name:"incremental latent base = from-scratch base under random churn"
    arb_seed (fun seed ->
      let rng = Prng.create (seed + 9) in
      let n = 4 + Prng.int rng 6 in
      let rms = Generator.rms small_params ~seed () in
      let spec = Generator.spec ~seed:(seed + 11) small_params in
      let t =
        Scheduler.create
          ~config:{ Scheduler.default_config with seed }
          ~spec ~rms ()
      in
      let procs = Generator.batch ~seed:(seed * 13) small_params ~n in
      List.iteri
        (fun i p -> Scheduler.submit t ~at:(0.7 *. float_of_int i) p)
        procs;
      (* run in slices; inject aborts (rollbacks, group aborts) and check
         the maintained base against the one-shot algorithm mid-flight,
         while admissions and occurrences churn the dirty set *)
      let horizon = 0.7 *. float_of_int n in
      let slices = 6 in
      for k = 1 to slices do
        let until = horizon *. float_of_int k /. float_of_int slices in
        Scheduler.run ~until t;
        if Prng.chance rng 0.4 then begin
          let victim = 1 + Prng.int rng n in
          if Scheduler.status t victim = Schedule.Active then
            Scheduler.request_abort t victim
        end;
        match Scheduler.latent_self_check t with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_reportf "slice %d: %s" k msg
      done;
      Scheduler.run t;
      if not (Scheduler.finished t) then QCheck.Test.fail_report "did not finish";
      match Scheduler.latent_self_check t with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "final: %s" msg)

(* ------------------------------------------------------------------ *)
(* Partition properties *)

let no_cross_bucket_conflict spec buckets =
  let procs_of b = List.map snd b in
  let services p =
    List.sort_uniq compare
      (List.map (fun a -> (Process.find p a).Activity.service) (Process.activity_ids p))
  in
  List.iteri
    (fun i bi ->
      List.iteri
        (fun j bj ->
          if i < j then
            List.iter
              (fun p ->
                List.iter
                  (fun q ->
                    List.iter
                      (fun s ->
                        List.iter
                          (fun s' ->
                            if Conflict.services_conflict spec s s' then
                              Alcotest.failf
                                "buckets %d/%d conflict: P%d.%s ~ P%d.%s" i j
                                (Process.pid p) s (Process.pid q) s')
                          (services q))
                      (services p))
                  (procs_of bj))
              (procs_of bi))
        buckets)
    buckets

let partition_is_conflict_closed =
  QCheck.Test.make ~count:40
    ~name:"shard partition: conflict-closed buckets covering the batch" arb_seed
    (fun seed ->
      let rng = Prng.create (seed + 4) in
      let clusters = 2 + Prng.int rng 3 in
      let n = clusters + Prng.int rng 10 in
      let shards = 1 + Prng.int rng 4 in
      let spec, _, procs, _ = Generator.clustered ~seed small_params ~clusters ~n in
      let items = List.mapi (fun i p -> (0.3 *. float_of_int i, p)) procs in
      let buckets = Shard.partition ~shards ~spec items in
      (* coverage: every process in exactly one bucket *)
      let all = List.concat buckets in
      let pids l = List.sort compare (List.map (fun (_, p) -> Process.pid p) l) in
      if pids all <> pids items then QCheck.Test.fail_report "partition lost a process";
      if List.length buckets > shards then
        QCheck.Test.fail_report "more buckets than shards";
      no_cross_bucket_conflict spec buckets;
      (* determinism: partitioning again yields the same buckets *)
      let again = Shard.partition ~shards ~spec items in
      if List.map pids buckets <> List.map pids again then
        QCheck.Test.fail_report "partition not deterministic";
      true)

(* ------------------------------------------------------------------ *)
(* Shard equivalence: sharded ≡ single engine on conflict-disjoint load *)

let filtered_history sched pids =
  List.filter
    (fun ev ->
      let touches pid = List.mem pid pids in
      match ev with
      | Schedule.Act inst -> touches (Activity.instance_proc inst)
      | Schedule.Commit p | Schedule.Abort p -> touches p
      | Schedule.Group_abort ps -> List.exists touches ps)
    (Schedule.events (Scheduler.history sched))

let event_str ev = Format.asprintf "%a" Schedule.pp_event ev

let shard_equivalence =
  QCheck.Test.make ~count:25
    ~name:"sharded runs = single-engine run on conflict-disjoint workloads"
    arb_seed (fun seed ->
      let rng = Prng.create (seed + 5) in
      let clusters = 2 + Prng.int rng 2 in
      let n = 2 * clusters + Prng.int rng 8 in
      let shards = 1 + Prng.int rng clusters in
      let spec, make_rms, procs, _ =
        Generator.clustered ~seed small_params ~clusters ~n
      in
      let items = List.mapi (fun i p -> (0.5 *. float_of_int i, p)) procs in
      let config = { Scheduler.default_config with seed } in
      (* single engine over the whole batch *)
      let solo = Scheduler.create ~config ~spec ~rms:(make_rms ()) () in
      List.iter (fun (at, p) -> Scheduler.submit solo ~at p) items;
      Scheduler.run solo;
      if not (Scheduler.finished solo) then QCheck.Test.fail_report "solo not finished";
      (* sharded run, single domain (the decision-equivalence axis; the
         domain axis only changes who executes which bucket) *)
      let scheds = Shard.run_parallel ~shards ~domains:1 ~config ~spec ~make_rms items in
      List.iter
        (fun t ->
          if not (Scheduler.finished t) then QCheck.Test.fail_report "shard not finished")
        scheds;
      List.iter
        (fun t ->
          let pids = Schedule.proc_ids (Scheduler.history t) in
          let shard_events = List.map event_str (Schedule.events (Scheduler.history t)) in
          let solo_events = List.map event_str (filtered_history solo pids) in
          if shard_events <> solo_events then
            QCheck.Test.fail_reportf
              "histories diverge for pids [%s]:\nshard: %s\nsolo:  %s"
              (String.concat "," (List.map string_of_int pids))
              (String.concat " " shard_events)
              (String.concat " " solo_events))
        scheds;
      true)

let sharded_off_bit_identical () =
  (* shards = 1, domains = 1 must be the historical create/submit/run
     loop, bit for bit: same history, same final explorable state *)
  let params = small_params in
  let spec = Generator.spec ~seed:19 params in
  let make_rms () = Generator.rms params ~seed:3 () in
  let procs = Generator.batch ~seed:57 params ~n:8 in
  let items = List.mapi (fun i p -> (0.4 *. float_of_int i, p)) procs in
  let config = { Scheduler.default_config with seed = 5 } in
  let plain = Scheduler.create ~config ~spec ~rms:(make_rms ()) () in
  List.iter (fun (at, p) -> Scheduler.submit plain ~at p) items;
  Scheduler.run plain;
  match Shard.run_parallel ~shards:1 ~domains:1 ~config ~spec ~make_rms items with
  | [ sharded ] ->
      Alcotest.(check (list string))
        "identical histories"
        (List.map event_str (Schedule.events (Scheduler.history plain)))
        (List.map event_str (Schedule.events (Scheduler.history sharded)));
      Alcotest.(check string)
        "identical state fingerprints"
        (Scheduler.state_fingerprint plain)
        (Scheduler.state_fingerprint sharded)
  | l -> Alcotest.failf "expected 1 shard, got %d" (List.length l)

let sharded_checked_multi_domain () =
  (* the per-shard differential oracle stays valid under real domain
     parallelism: every admission of every shard is cross-checked against
     the reference engine, on 2 domains *)
  let clusters = 3 in
  let spec, make_rms, procs, _ =
    Generator.clustered ~seed:8 small_params ~clusters ~n:9
  in
  let items = List.mapi (fun i p -> (0.4 *. float_of_int i, p)) procs in
  let config =
    { Scheduler.default_config with seed = 2; admission_engine = Scheduler.Checked }
  in
  let scheds =
    Shard.run_parallel ~shards:clusters ~domains:2 ~config ~spec ~make_rms items
  in
  Alcotest.(check bool) "some shards ran" true (List.length scheds >= 1);
  List.iter
    (fun t -> Alcotest.(check bool) "shard finished" true (Scheduler.finished t))
    scheds;
  let total =
    List.fold_left
      (fun acc t -> acc + List.length (Schedule.proc_ids (Scheduler.history t)))
      0 scheds
  in
  Alcotest.(check int) "every process ran on exactly one shard" 9 total

(* ------------------------------------------------------------------ *)
(* Router: ownership, deflection, merge after drain, accounting *)

let router_fixture ?(server_config = Server.default_config) ?(shards = 2) () =
  let clusters = 2 in
  let spec, make_rms, procs, cluster_of =
    Generator.clustered ~seed:4 small_params ~clusters ~n:6
  in
  let make_scheduler () =
    Scheduler.create ~config:{ Scheduler.default_config with seed = 3 } ~spec
      ~rms:(make_rms ()) ()
  in
  let r = Router.create ~config:server_config ~shards ~spec ~make_scheduler () in
  (r, spec, procs, cluster_of)

let router_routes_by_component () =
  let r, spec, procs, _ = router_fixture () in
  let placed =
    List.filter_map
      (fun p ->
        match Router.offer r p with
        | Router.Deflected -> None
        | Router.Routed (s, d) -> (
            match d with
            | Server.Admitted | Server.Queued | Server.Degraded_admit _ ->
                Some (s, p)
            | Server.Rejected reason ->
                Alcotest.failf "P%d rejected: %s" (Process.pid p)
                  (Server.reason_label reason)))
      procs
  in
  Alcotest.(check bool) "some processes placed" true (placed <> []);
  (* the partition invariant while everything is live: processes placed on
     different shards share no conflicting services *)
  let buckets =
    List.init (Router.shards r) (fun s ->
        List.filter_map
          (fun (s', p) -> if s' = s then Some (0.0, p) else None)
          placed)
    |> List.filter (fun b -> b <> [])
  in
  no_cross_bucket_conflict spec buckets;
  Router.run r;
  Alcotest.(check bool) "accounting holds" true (Router.accounting_ok r);
  let c = Router.counters r in
  Alcotest.(check int) "every placement was offered" (List.length placed)
    c.Server.offered;
  List.iter
    (fun (s, p) ->
      let pid = Process.pid p in
      Alcotest.(check bool)
        (Printf.sprintf "P%d terminal on its shard" pid)
        true
        (Scheduler.status (Server.scheduler (Router.server r s)) pid
        <> Schedule.Active))
    placed

(* a process spanning the components of two existing activities *)
let spanning_proc ~pid (a : Activity.t) (b : Activity.t) =
  let a1 =
    Activity.make ~proc:pid ~act:1 ~service:a.Activity.service
      ~kind:Activity.Retriable ~subsystem:a.Activity.subsystem ()
  in
  let a2 =
    Activity.make ~proc:pid ~act:2 ~service:b.Activity.service
      ~kind:Activity.Retriable ~subsystem:b.Activity.subsystem ()
  in
  Process.make_exn ~pid ~activities:[ a1; a2 ] ~prec:[ (1, 2) ] ~pref:[]

let first_act p = Process.find p (List.hd (Process.activity_ids p))

let router_deflects_spanning_then_merges () =
  let r, _, procs, cluster_of = router_fixture () in
  (* occupy both shards with live processes from each cluster *)
  let p0 = List.find (fun p -> cluster_of (Process.pid p) = 0) procs in
  let p1 = List.find (fun p -> cluster_of (Process.pid p) = 1) procs in
  (match Router.offer r p0 with
  | Router.Routed (_, Server.Admitted) -> ()
  | other -> Alcotest.failf "p0: %s" (Router.route_label other));
  (match Router.offer r p1 with
  | Router.Routed (_, Server.Admitted) -> ()
  | other -> Alcotest.failf "p1: %s" (Router.route_label other));
  (* both owners live: a spanning submission must be deflected, never
     admitted with an invisible cross-shard edge *)
  (match Router.offer r (spanning_proc ~pid:100 (first_act p0) (first_act p1)) with
  | Router.Deflected -> ()
  | other -> Alcotest.failf "expected deflection, got %s" (Router.route_label other));
  Alcotest.(check int) "deflection counted" 1 (Router.deflected r);
  (* drain both clusters; the dead owners' claims can now merge *)
  Router.run r;
  (match Router.offer r (spanning_proc ~pid:101 (first_act p0) (first_act p1)) with
  | Router.Routed (_, Server.Admitted) -> ()
  | other ->
      Alcotest.failf "expected merged admit after drain, got %s"
        (Router.route_label other));
  Router.run r;
  Alcotest.(check bool) "accounting still holds" true (Router.accounting_ok r)

let router_parallel_run () =
  (* domain-parallel Router.run on disjoint shards reaches the same
     terminal statuses as the sequential drive *)
  let run ~domains =
    let r, _, procs, _ = router_fixture () in
    List.iter (fun p -> ignore (Router.offer r p)) procs;
    Router.run ~domains r;
    List.map
      (fun p ->
        let pid = Process.pid p in
        let status =
          List.find_map
            (fun s ->
              match Scheduler.status (Server.scheduler (Router.server r s)) pid with
              | Schedule.Active -> None
              | st -> Some st)
            (List.init (Router.shards r) Fun.id)
        in
        (pid, status))
      procs
  in
  let seq = run ~domains:1 and par = run ~domains:2 in
  List.iter2
    (fun (pid, a) (_, b) ->
      if a <> b then Alcotest.failf "P%d status differs across domain counts" pid)
    seq par

let suite =
  [
    QCheck_alcotest.to_alcotest latent_equiv_under_churn;
    QCheck_alcotest.to_alcotest partition_is_conflict_closed;
    QCheck_alcotest.to_alcotest shard_equivalence;
    Alcotest.test_case "shards off: bit-identical to the plain loop" `Quick
      sharded_off_bit_identical;
    Alcotest.test_case "checked oracle per shard across 2 domains" `Quick
      sharded_checked_multi_domain;
    Alcotest.test_case "router: clusters pin to shards, all terminate" `Quick
      router_routes_by_component;
    Alcotest.test_case "router: spanning offer deflected, merged after drain" `Quick
      router_deflects_spanning_then_merges;
    Alcotest.test_case "router: parallel run matches sequential" `Quick
      router_parallel_run;
  ]
