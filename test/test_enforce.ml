(* Section 3.6 end to end: weak vs. strong orders, the enforcement layer
   (per-subsystem local executors realizing the prescribed weak commit
   order), retriable re-invocation of dependent local transactions,
   prepared-overlap, and multi-level composition (subprocess groups
   admitted as one unit). *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Generator = Tpm_workload.Generator
module Local = Tpm_composite.Local
module Metrics = Tpm_sim.Metrics

let check = Alcotest.check

(* a conflict spec with every service's self/inverse pairs (physical
   soundness) plus the given explicit cross-service pairs *)
let spec_with params pairs =
  Conflict.union
    (Generator.spec { params with Generator.conflict_density = 0.0 })
    (Conflict.of_pairs pairs)

let single ~pid ~act ~service ?(kind = Activity.Compensatable) ~subsystem () =
  Activity.make ~proc:pid ~act ~service ~kind ~subsystem ()

let locals_cos t =
  List.for_all (fun (_, l) -> Local.commit_order_serializable l) (Scheduler.local_histories t)

let local_commits t =
  match Scheduler.local_histories t with
  | [ (_, l) ] ->
      List.filter_map (function Local.Commit x -> Some x | _ -> None) (Local.events l)
  | ls -> Alcotest.failf "expected one local history, got %d" (List.length ls)

let single_proc ~pid ~service ?kind () =
  Process.make_exn ~pid
    ~activities:[ single ~pid ~act:1 ~service ?kind ~subsystem:"ss0" () ]
    ~prec:[] ~pref:[]

(* -------------------------------------------------------------------- *)
(* Weak vs. strong order on two conflicting single-activity processes   *)
(* -------------------------------------------------------------------- *)

let run_pair ~order =
  let params = { Generator.default_params with services = 2; subsystems = 1 } in
  let rms = Generator.rms params () in
  let t =
    Scheduler.create ~config:{ Scheduler.default_config with order }
      ~spec:(Generator.spec params) ~rms ()
  in
  Scheduler.submit t (single_proc ~pid:1 ~service:"svc0" ());
  Scheduler.submit t ~at:0.1 (single_proc ~pid:2 ~service:"svc0" ());
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "RED" true (Criteria.red h);
  (t, h)

let test_weak_overlaps () =
  (* strong: P2 starts only after P1's commit -> makespan past 2.0;
     weak: executions overlap, P2 commits just after P1 -> makespan ~1.x *)
  let t_strong, _ = run_pair ~order:Scheduler.Strong in
  let t_weak, _ = run_pair ~order:Scheduler.Weak in
  check Alcotest.bool "weak order shortens the makespan" true
    (Scheduler.now t_weak < Scheduler.now t_strong);
  check Alcotest.bool "strong order serializes executions" true
    (Scheduler.now t_strong >= 2.0)

let test_weak_commit_order_respected () =
  let t, h = run_pair ~order:Scheduler.Weak in
  (* the history must order the two conflicting occurrences P1 before P2 *)
  (match Schedule.activities h with
  | [ first; second ] ->
      check Alcotest.int "P1 commits first" 1 (Activity.instance_proc first);
      check Alcotest.int "P2 commits second" 2 (Activity.instance_proc second)
  | acts -> Alcotest.failf "expected two occurrences, got %d" (List.length acts));
  check Alcotest.bool "serializable" true (Criteria.serializable h);
  check Alcotest.bool "locals commit-order serializable" true (locals_cos t)

let test_weak_random_workload_still_pred () =
  let wparams = { Generator.default_params with services = 8; conflict_density = 0.3 } in
  let rms = Generator.rms wparams () in
  let config = { Scheduler.default_config with order = Scheduler.Weak } in
  let t = Scheduler.create ~config ~spec:(Generator.spec wparams) ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch ~seed:21 wparams ~n:6);
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "PRED" true (Criteria.pred h);
  check Alcotest.bool "locals commit-order serializable" true (locals_cos t)

(* -------------------------------------------------------------------- *)
(* Enforced weak order: overlapping executions, held local commits      *)
(* -------------------------------------------------------------------- *)

let overlap_setup ~order =
  (* P1 runs a slow svc0, P2 a fast svc1 conflicting with it.  Under the
     enforced weak order P2 executes overlapping and its local commit is
     held until P1's; under the strong order P2 waits P1 out. *)
  let params = { Generator.default_params with services = 2; subsystems = 1 } in
  let rms = Generator.rms params () in
  let spec = spec_with params [ ("svc0", "svc1") ] in
  let config =
    {
      Scheduler.default_config with
      order;
      service_time = (fun s -> if s = "svc0" then 3.0 else 1.0);
    }
  in
  let t = Scheduler.create ~config ~spec ~rms () in
  Scheduler.submit t (single_proc ~pid:1 ~service:"svc0" ());
  Scheduler.submit t ~at:0.1 (single_proc ~pid:2 ~service:"svc1" ());
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "PRED" true (Criteria.pred h);
  t

let test_enforced_overlap () =
  let t_strong = overlap_setup ~order:Scheduler.Strong in
  let t_enf = overlap_setup ~order:Scheduler.Weak in
  check Alcotest.bool "enforced weak order shortens the makespan" true
    (Scheduler.now t_enf < Scheduler.now t_strong);
  (* P2 finished executing first but its local commit was held for P1 *)
  check Alcotest.bool "a local commit was held" true (Scheduler.enforcement_held t_enf > 0);
  check Alcotest.bool "weak_commit_waits counted" true
    (Metrics.count (Scheduler.metrics t_enf) "weak_commit_waits" > 0)

let test_enforced_local_history () =
  let t = overlap_setup ~order:Scheduler.Weak in
  check (Alcotest.list Alcotest.string) "single subsystem" [ "ss0" ]
    (List.map fst (Scheduler.local_histories t));
  check Alcotest.bool "commit-order serializable" true (locals_cos t);
  (* the subsystem realized the prescribed order: P1's transaction
     (opened first, id 1) commits before P2's (id 2) even though P2's
     invocation finished first *)
  check (Alcotest.list Alcotest.int) "commit order follows the weak order" [ 1; 2 ]
    (local_commits t)

let test_strong_no_histories () =
  let t = overlap_setup ~order:Scheduler.Strong in
  check Alcotest.int "no local histories under the strong order" 0
    (List.length (Scheduler.local_histories t));
  check Alcotest.int "nothing held" 0 (Scheduler.enforcement_held t)

(* -------------------------------------------------------------------- *)
(* Retriable re-invocation: a predecessor's local abort restarts the    *)
(* dependent local transaction, not its process                         *)
(* -------------------------------------------------------------------- *)

let test_local_restart_on_pred_abort () =
  let params = { Generator.default_params with services = 2; subsystems = 1 } in
  (* every svc0 invocation fails: P1 (compensatable, no alternatives)
     retries transiently, degrades, and aborts -- while P2's conflicting
     svc1 invocation completed long ago and sits with its local commit
     held.  The abort must re-invoke P2's local transaction. *)
  let rms =
    Generator.rms params ~fail_prob:(fun s -> if s = "svc0" then 1.0 else 0.0) ()
  in
  let spec = spec_with params [ ("svc0", "svc1") ] in
  let config = { Scheduler.default_config with order = Scheduler.Weak } in
  let t = Scheduler.create ~config ~spec ~rms () in
  Scheduler.submit t (single_proc ~pid:1 ~service:"svc0" ());
  Scheduler.submit t ~at:0.1 (single_proc ~pid:2 ~service:"svc1" ());
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "local transactions restarted" true
    (Metrics.count (Scheduler.metrics t) "local_restarts" > 0);
  (* P2 survived its predecessor's abort and committed *)
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "P2 committed" true
    (List.exists (fun a -> Activity.instance_proc a = 2) (Schedule.activities h));
  check Alcotest.bool "locals commit-order serializable" true (locals_cos t)

let test_commit_held_through_pred_retries () =
  (* P1's retriable svc0 fails transiently until the guaranteed third
     attempt; P2's conflicting svc1 finishes long before.  The retries
     happen inside P1's open local transaction, so nothing restarts: P2's
     local commit is held until P1's finally commits. *)
  let params = { Generator.default_params with services = 2; subsystems = 1 } in
  let rms =
    Generator.rms params ~fail_prob:(fun s -> if s = "svc0" then 1.0 else 0.0) ()
  in
  let spec = spec_with params [ ("svc0", "svc1") ] in
  let config = { Scheduler.default_config with order = Scheduler.Weak } in
  let t = Scheduler.create ~config ~spec ~rms () in
  Scheduler.submit t (single_proc ~pid:1 ~service:"svc0" ~kind:Activity.Retriable ());
  Scheduler.submit t ~at:0.1 (single_proc ~pid:2 ~service:"svc1" ());
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  check Alcotest.bool "predecessor retried" true
    (Metrics.count (Scheduler.metrics t) "retries" > 0);
  check Alcotest.bool "the dependent's commit was held" true
    (Scheduler.enforcement_held t > 0);
  check Alcotest.int "no local restarts" 0
    (Metrics.count (Scheduler.metrics t) "local_restarts");
  check (Alcotest.list Alcotest.int) "local commit order follows the weak order" [ 1; 2 ]
    (local_commits t);
  check Alcotest.bool "locals commit-order serializable" true (locals_cos t);
  check Alcotest.bool "RED" true (Criteria.red (Scheduler.history t))

(* -------------------------------------------------------------------- *)
(* Prepared-overlap: a dependent may execute while its predecessor sits *)
(* prepared in 2PC; the local commit is held until the 2PC decision     *)
(* -------------------------------------------------------------------- *)

let prepared_setup ~order =
  (* P0: svc0 then a long svc4 -- keeps P0 uncommitted until t=7.
     P1: svc3 (conflicts svc0, so P0 < P1) then a pivot svc1: with an
     uncommitted predecessor the Deferred mode prepares it, and the 2PC
     decision waits for P0's commit.
     P2: svc2 (conflicts svc1) submitted while P1's pivot is prepared. *)
  let params = { Generator.default_params with services = 5; subsystems = 1 } in
  let rms = Generator.rms params () in
  let spec = spec_with params [ ("svc3", "svc0"); ("svc1", "svc2") ] in
  let config =
    {
      Scheduler.default_config with
      order;
      service_time = (fun s -> if s = "svc4" then 6.0 else 1.0);
    }
  in
  let t = Scheduler.create ~config ~spec ~rms () in
  let p0 =
    Process.make_exn ~pid:1
      ~activities:
        [
          single ~pid:1 ~act:1 ~service:"svc0" ~subsystem:"ss0" ();
          single ~pid:1 ~act:2 ~service:"svc4" ~subsystem:"ss0" ();
        ]
      ~prec:[ (1, 2) ] ~pref:[]
  in
  let p1 =
    Process.make_exn ~pid:2
      ~activities:
        [
          single ~pid:2 ~act:1 ~service:"svc3" ~subsystem:"ss0" ();
          single ~pid:2 ~act:2 ~service:"svc1" ~kind:Activity.Pivot ~subsystem:"ss0" ();
        ]
      ~prec:[ (1, 2) ] ~pref:[]
  in
  let p2 =
    Process.make_exn ~pid:3
      ~activities:[ single ~pid:3 ~act:1 ~service:"svc2" ~subsystem:"ss0" () ]
      ~prec:[] ~pref:[]
  in
  Scheduler.submit t p0;
  Scheduler.submit t ~at:0.1 p1;
  Scheduler.submit t ~at:2.5 p2;
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "PRED" true (Criteria.pred h);
  t

let test_prepared_overlap () =
  let t_wait = prepared_setup ~order:Scheduler.Strong in
  let t_enf = prepared_setup ~order:Scheduler.Weak in
  check Alcotest.bool "overlapping a prepared predecessor shortens the makespan" true
    (Scheduler.now t_enf < Scheduler.now t_wait);
  check Alcotest.bool "the dependent's local commit was held" true
    (Scheduler.enforcement_held t_enf > 0);
  check Alcotest.bool "locals commit-order serializable" true (locals_cos t_enf)

(* -------------------------------------------------------------------- *)
(* Multi-level composition: a subprocess admits as one unit             *)
(* -------------------------------------------------------------------- *)

let group_setup ~grouped =
  (* P1 = svc0 then svc1; P2 = svc2 conflicting with svc1, submitted
     while P1's first member runs.  With the group, admission claims the
     union footprint up front: P2 orders after P1, and the second member
     dispatches without re-admission even while P2's conflicting
     invocation is in flight. *)
  let params = { Generator.default_params with services = 3; subsystems = 1 } in
  let rms = Generator.rms params () in
  let spec = spec_with params [ ("svc1", "svc2") ] in
  let t = Scheduler.create ~spec ~rms () in
  let p1 =
    Process.make_exn ~pid:1
      ~activities:
        [
          single ~pid:1 ~act:1 ~service:"svc0" ~subsystem:"ss0" ();
          single ~pid:1 ~act:2 ~service:"svc1" ~subsystem:"ss0" ();
        ]
      ~prec:[ (1, 2) ] ~pref:[]
  in
  let p2 =
    Process.make_exn ~pid:2
      ~activities:[ single ~pid:2 ~act:1 ~service:"svc2" ~subsystem:"ss0" () ]
      ~prec:[] ~pref:[]
  in
  let groups = if grouped then [ { Compose.gname = "sub"; members = [ 1; 2 ] } ] else [] in
  Scheduler.submit t ~groups p1;
  Scheduler.submit t ~at:0.5 p2;
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "PRED" true (Criteria.pred h);
  t

let test_group_admits_as_unit () =
  let t_flat = group_setup ~grouped:false in
  let t_grp = group_setup ~grouped:true in
  check Alcotest.bool "one subprocess admission" true
    (Metrics.count (Scheduler.metrics t_grp) "subprocess_admissions" = 1);
  check Alcotest.int "no subprocess admission without groups" 0
    (Metrics.count (Scheduler.metrics t_flat) "subprocess_admissions");
  (* the claimed footprint orders P2 after the whole subprocess... *)
  (match Criteria.serialization_order (Scheduler.history t_grp) with
  | Some [ a; b ] ->
      check Alcotest.int "subprocess first" 1 a;
      check Alcotest.int "outsider second" 2 b
  | o ->
      Alcotest.failf "unexpected serialization order (%d procs)"
        (List.length (Option.value ~default:[] o)));
  (* ...whereas without the group the outsider interleaves ahead of the
     not-yet-occurred second member: unit admission changed the order *)
  match Criteria.serialization_order (Scheduler.history t_flat) with
  | Some [ a; b ] ->
      check Alcotest.int "outsider slips ahead without the group" 2 a;
      check Alcotest.int "flat process second" 1 b
  | o ->
      Alcotest.failf "unexpected flat serialization order (%d procs)"
        (List.length (Option.value ~default:[] o))

let test_group_validation () =
  let p =
    Process.make_exn ~pid:1
      ~activities:
        [
          single ~pid:1 ~act:1 ~service:"a" ~subsystem:"ss0" ();
          single ~pid:1 ~act:2 ~service:"b" ~subsystem:"ss0" ();
          single ~pid:1 ~act:3 ~service:"c" ~subsystem:"ss0" ();
        ]
      ~prec:[ (1, 2); (2, 3) ]
      ~pref:[]
  in
  let ok gs = match Compose.validate p gs with Ok () -> true | Error _ -> false in
  check Alcotest.bool "convex prefix is valid" true
    (ok [ { Compose.gname = "g"; members = [ 1; 2 ] } ]);
  check Alcotest.bool "unknown member rejected" false
    (ok [ { Compose.gname = "g"; members = [ 1; 9 ] } ]);
  check Alcotest.bool "empty group rejected" false
    (ok [ { Compose.gname = "g"; members = [] } ]);
  check Alcotest.bool "overlapping groups rejected" false
    (ok
       [
         { Compose.gname = "g1"; members = [ 1; 2 ] };
         { Compose.gname = "g2"; members = [ 2; 3 ] };
       ]);
  check Alcotest.bool "non-convex group rejected" false
    (ok [ { Compose.gname = "g"; members = [ 1; 3 ] } ]);
  check Alcotest.(result unit string) "reused group name rejected"
    (Error "group g: name already used")
    (Compose.validate p
       [
         { Compose.gname = "g"; members = [ 1 ] };
         { Compose.gname = "g"; members = [ 2; 3 ] };
       ])

(* -------------------------------------------------------------------- *)
(* Differential: groups + enforcement under the Checked engine          *)
(* -------------------------------------------------------------------- *)

let test_checked_engine_groups_enforcement () =
  (* chains of three activities with the first two grouped, random
     conflicts, transient svc0 failures: the Checked engine fails the run
     on any Incremental/Reference divergence *)
  let params =
    { Generator.default_params with services = 6; subsystems = 2; conflict_density = 0.4 }
  in
  let rms =
    Generator.rms params ~fail_prob:(fun s -> if s = "svc0" then 0.4 else 0.0) ()
  in
  let spec = Generator.spec params in
  let config =
    {
      Scheduler.default_config with
      order = Scheduler.Weak;
      admission_engine = Scheduler.Checked;
    }
  in
  let t = Scheduler.create ~config ~spec ~rms () in
  let subsystem i = Printf.sprintf "ss%d" (i mod 2) in
  let proc pid =
    let svc k = Printf.sprintf "svc%d" ((pid + k) mod 6) in
    Process.make_exn ~pid
      ~activities:
        [
          single ~pid ~act:1 ~service:(svc 0) ~subsystem:(subsystem pid) ();
          single ~pid ~act:2 ~service:(svc 1) ~subsystem:(subsystem (pid + 1)) ();
          single ~pid ~act:3 ~service:(svc 2) ~subsystem:(subsystem (pid + 2)) ();
        ]
      ~prec:[ (1, 2); (2, 3) ]
      ~pref:[]
  in
  let groups = [ { Compose.gname = "head"; members = [ 1; 2 ] } ] in
  for pid = 1 to 6 do
    Scheduler.submit t ~at:(0.4 *. float_of_int pid) ~groups (proc pid)
  done;
  Scheduler.run t;
  check Alcotest.bool "finished" true (Scheduler.finished t);
  let h = Scheduler.history t in
  check Alcotest.bool "legal" true (Schedule.legal h);
  check Alcotest.bool "PRED" true (Criteria.pred h);
  check Alcotest.bool "locals commit-order serializable" true (locals_cos t);
  check Alcotest.bool "subprocess admissions recorded" true
    (Metrics.count (Scheduler.metrics t) "subprocess_admissions" > 0)

(* -------------------------------------------------------------------- *)
(* Randomized differential: the weak order under the Checked engine     *)
(* -------------------------------------------------------------------- *)

(* A generated workload (density, failures and durations drawn from the
   seed) under the weak order (or, with [~order], the strong one), with
   every admission decided by both engines: any Incremental/Reference
   divergence fails the run, and the run must finish with a PRED history
   and commit-order serializable locals. *)
let weak_checked_run ?(order = Scheduler.Weak) ~mode seed =
  let rng = Tpm_sim.Prng.create seed in
  let params =
    {
      Generator.default_params with
      services = 6;
      subsystems = 2;
      conflict_density = 0.1 +. Tpm_sim.Prng.float rng 0.6;
    }
  in
  let fail = if Tpm_sim.Prng.chance rng 0.5 then 0.2 else 0.0 in
  let rms = Generator.rms params ~fail_prob:(fun _ -> fail) ~seed () in
  let config =
    {
      Scheduler.default_config with
      mode;
      seed;
      order;
      admission_engine = Scheduler.Checked;
      stochastic_times = true;
    }
  in
  let t = Scheduler.create ~config ~spec:(Generator.spec ~seed params) ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 7) params ~n:6);
  Scheduler.run ~until:100000.0 t;
  let h = Scheduler.history t in
  Scheduler.finished t && Schedule.legal h && Criteria.pred h && locals_cos t

(* All three modes rotate through the property.  Conservative once
   violated PRED on rare seeds because it waited on predecessors that had
   already committed; stall resolution then aborted an F-REC process
   whose forward completion conflicted with a live process.  Those seeds
   are pinned below. *)
let weak_checked_property =
  QCheck.Test.make ~name:"weak order under the checked engine stays PRED, locals COS"
    ~count:40
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      weak_checked_run seed
        ~mode:
          (match seed mod 3 with
          | 0 -> Scheduler.Deferred
          | 1 -> Scheduler.Quasi
          | _ -> Scheduler.Conservative))

(* Seeds on which the property found quasi-commits admitted behind a
   predecessor's conflicting in-flight activity, whose compensation then
   broke PRED. *)
let test_quasi_behind_inflight_pred () =
  List.iter
    (fun seed ->
      check Alcotest.bool (Printf.sprintf "seed %d PRED, locals COS" seed) true
        (weak_checked_run ~mode:Scheduler.Quasi seed))
    [ 1568; 5006; 9726 ]

(* Seeds on which Conservative, waiting on committed predecessors, was
   driven into a stall-abort whose forward completion broke PRED: all six
   under the weak order, and 216, 4868, 8903 and 22418 under the strong
   order too. *)
let test_conservative_committed_preds () =
  List.iter
    (fun order ->
      List.iter
        (fun seed ->
          check Alcotest.bool
            (Printf.sprintf "%s seed %d PRED, locals COS"
               (if order = Scheduler.Weak then "weak" else "strong")
               seed)
            true
            (weak_checked_run ~order ~mode:Scheduler.Conservative seed))
        [ 216; 4868; 8903; 1191; 9451; 22418 ])
    [ Scheduler.Weak; Scheduler.Strong ]

let suite =
  [
    Alcotest.test_case "weak order overlaps executions" `Quick test_weak_overlaps;
    Alcotest.test_case "weak order preserves commit order" `Quick test_weak_commit_order_respected;
    Alcotest.test_case "weak order keeps histories PRED" `Quick test_weak_random_workload_still_pred;
    Alcotest.test_case "enforced weak order overlaps executions" `Quick test_enforced_overlap;
    Alcotest.test_case "local history realizes the weak order" `Quick test_enforced_local_history;
    Alcotest.test_case "strong order keeps no local histories" `Quick test_strong_no_histories;
    Alcotest.test_case "predecessor abort re-invokes dependents" `Quick
      test_local_restart_on_pred_abort;
    Alcotest.test_case "dependent commit held through predecessor retries" `Quick
      test_commit_held_through_pred_retries;
    Alcotest.test_case "dependents overlap prepared predecessors" `Quick test_prepared_overlap;
    Alcotest.test_case "subprocess admits as one unit" `Quick test_group_admits_as_unit;
    Alcotest.test_case "group validation" `Quick test_group_validation;
    Alcotest.test_case "checked engine: groups + enforcement" `Quick
      test_checked_engine_groups_enforcement;
    Alcotest.test_case "quasi-commit waits out conflicting in-flight predecessors" `Quick
      test_quasi_behind_inflight_pred;
    Alcotest.test_case "conservative ignores committed predecessors" `Quick
      test_conservative_committed_preds;
    QCheck_alcotest.to_alcotest weak_checked_property;
  ]
