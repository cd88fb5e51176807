(* Sharded admission (DESIGN.md §13) and the incremental latent base:
   - property: the dirty-set-maintained latent base equals the
     from-scratch base after randomized mutation sequences (admissions,
     occurrences, aborts, group aborts) — [Scheduler.latent_self_check]
     at random points of real runs;
   - property: shard partitions are conflict-closed and cover the batch;
     sharded decision trajectories equal the single-engine trajectory on
     conflict-disjoint (clustered) workloads;
   - property: with unbounded shards the buckets are exactly the
     connected components, computed independently with [Digraph]. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Shard = Tpm_scheduler.Shard
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

(* The components of the batch, independently of the union-find: a
   [Digraph] over the spec's services with an edge each way for every
   declared conflict and for consecutive services of one process.  Two
   processes share a component iff their first services reach each other
   (or coincide).  Grouped in order of first appearance. *)
let reference_components spec items =
  let services p =
    List.map (fun a -> (Process.find p a).Activity.service) (Process.activity_ids p)
  in
  let names =
    List.sort_uniq compare
      (List.concat_map (fun (a, b) -> [ a; b ]) (Conflict.pairs spec)
      @ List.concat_map (fun (_, p) -> services p) items)
  in
  let index = Hashtbl.create 16 in
  List.iteri (fun i s -> Hashtbl.replace index s i) names;
  let id = Hashtbl.find index in
  let both (a, b) = [ (id a, id b); (id b, id a) ] in
  let rec chain = function a :: (b :: _ as rest) -> (a, b) :: chain rest | _ -> [] in
  let g =
    Digraph.make
      ~nodes:(List.init (List.length names) Fun.id)
      ~edges:
        (List.concat_map both
           (Conflict.pairs spec @ List.concat_map (fun (_, p) -> chain (services p)) items))
  in
  let joined p q =
    let a = id (List.hd (services p)) and b = id (List.hd (services q)) in
    a = b || Digraph.reachable g a b
  in
  List.fold_left
    (fun groups ((_, p) as item) ->
      let rec place = function
        | [] -> [ [ item ] ]
        | ((_, q) :: _ as grp) :: rest ->
            if joined p q then (grp @ [ item ]) :: rest else grp :: place rest
        | [] :: _ -> assert false
      in
      place groups)
    [] items

let partition_is_components =
  QCheck.Test.make ~count:60
    ~name:"shard partition: unbounded shards give exactly the connected components"
    arb_seed (fun seed ->
      let rng = Prng.create (seed + 6) in
      (* clustered batches, and sparse random ones whose components merge
         through declared conflicts and process bundles *)
      let spec, procs =
        if seed mod 2 = 0 then
          let clusters = 2 + Prng.int rng 3 in
          let spec, _, procs, _ =
            Generator.clustered ~seed small_params ~clusters ~n:(clusters + Prng.int rng 10)
          in
          (spec, procs)
        else
          let params =
            { small_params with services = 40; conflict_density = 0.01; activities_max = 3 }
          in
          let n = 1 + Prng.int rng 20 in
          (Generator.spec ~seed params, Generator.batch ~seed:(seed + 1) params ~n)
      in
      let items = List.mapi (fun i p -> (0.3 *. float_of_int i, p)) procs in
      let show buckets =
        String.concat " "
          (List.map
             (fun b -> String.concat ";" (List.map (fun (_, p) -> string_of_int (Process.pid p)) b))
             buckets)
      in
      let got = show (Shard.partition ~shards:max_int ~spec items) in
      let want = show (reference_components spec items) in
      if got <> want then QCheck.Test.fail_reportf "buckets %s, components %s" got want;
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

let suite =
  [
    QCheck_alcotest.to_alcotest latent_equiv_under_churn;
    QCheck_alcotest.to_alcotest partition_is_conflict_closed;
    QCheck_alcotest.to_alcotest partition_is_components;
    QCheck_alcotest.to_alcotest shard_equivalence;
    Alcotest.test_case "shards off: bit-identical to the plain loop" `Quick
      sharded_off_bit_identical;
    Alcotest.test_case "checked oracle per shard across 2 domains" `Quick
      sharded_checked_multi_domain;
  ]
