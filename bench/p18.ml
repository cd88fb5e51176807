(* P18 — PRED vs. classical concurrency control (strict 2PL, TSO) and
   the Section 3.6 weak order, across conflict densities.  All four arms
   run the same generated workloads over the same Rm substrate on the
   virtual clock: the paper's process-aware scheduler (Deferred mode)
   against real classical activity schedulers that treat a whole process
   as one transaction, plus PRED with the enforced weak order — the
   parallelism multiplier of overlapping conflicting local transactions
   under subsystem-enforced commit orders. *)

open Harness

type p18_point = {
  e_arm : string;
  e_density : float;
  e_makespan : float;
  e_committed : int;
  e_aborted : int;
  e_throughput : float;  (* committed processes per unit virtual time *)
  e_abort_rate : float;
  e_compensations : int;
  e_restarts : int;  (* whole-process rollback+restart events (classical) *)
  e_local_restarts : int;  (* retriable local re-invocations (weak order) *)
}

let p18_fail = 0.10
let p18_horizon = 100000.0

(* a tight transient budget (2 attempts before degradation) so injected
   failures actually reach the degradation/abort paths — and, under the
   weak order, the retriable re-invocation of dependent locals *)
let p18_backoff = { Scheduler.default_backoff with max_attempts = Some 2 }

let p18_params density =
  {
    Generator.default_params with
    activities_min = 4;
    activities_max = 7;
    services = 6;
    subsystems = 3;
    conflict_density = density;
  }

let p18_zero label density =
  {
    e_arm = label;
    e_density = density;
    e_makespan = 0.0;
    e_committed = 0;
    e_aborted = 0;
    e_throughput = 0.0;
    e_abort_rate = 0.0;
    e_compensations = 0;
    e_restarts = 0;
    e_local_restarts = 0;
  }

let p18_add a b =
  {
    a with
    e_makespan = a.e_makespan +. b.e_makespan;
    e_committed = a.e_committed + b.e_committed;
    e_aborted = a.e_aborted + b.e_aborted;
    e_compensations = a.e_compensations + b.e_compensations;
    e_restarts = a.e_restarts + b.e_restarts;
    e_local_restarts = a.e_local_restarts + b.e_local_restarts;
  }

let p18_finalize ~n_total p =
  {
    p with
    e_throughput = (if p.e_makespan > 0.0 then float_of_int p.e_committed /. p.e_makespan else 0.0);
    e_abort_rate = float_of_int p.e_aborted /. float_of_int n_total;
  }

let p18_pred ~label ~config ~density ~seed ~n =
  let params = p18_params density in
  let rms = Generator.rms params ~fail_prob:(fun _ -> p18_fail) ~seed () in
  let spec = Generator.spec params in
  let t =
    Scheduler.create
      ~config:{ config with Scheduler.seed; backoff = p18_backoff }
      ~spec ~rms ()
  in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.1 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 100) params ~n);
  Scheduler.run ~until:p18_horizon t;
  if not (Scheduler.finished t) then
    failwith (Printf.sprintf "p18: %s density=%.2f seed=%d did not finish" label density seed);
  let m = Scheduler.metrics t in
  {
    (p18_zero label density) with
    e_makespan = Scheduler.now t;
    e_committed = Metrics.count m "committed";
    e_aborted = Metrics.count m "aborted";
    e_compensations = Metrics.count m "compensations";
    e_local_restarts = Metrics.count m "local_restarts";
  }

let p18_classical ~kind ~label ~density ~seed ~n =
  let params = p18_params density in
  let rms = Generator.rms params ~fail_prob:(fun _ -> p18_fail) ~seed () in
  let spec = Generator.spec params in
  let procs = Generator.batch ~seed:(seed * 100) params ~n in
  let r =
    Baseline.run kind ~spec ~rms ~horizon:p18_horizon
      ~submit_at:(fun i -> 0.1 *. float_of_int i)
      procs
  in
  if not r.Baseline.finished then
    failwith (Printf.sprintf "p18: %s density=%.2f seed=%d did not finish" label density seed);
  {
    (p18_zero label density) with
    e_makespan = r.Baseline.makespan;
    e_committed = r.Baseline.committed;
    e_aborted = r.Baseline.aborted;
    e_compensations = r.Baseline.compensations;
    e_restarts = r.Baseline.restarts;
  }

let p18_weak_config = { Scheduler.default_config with order = Scheduler.Weak }

let p18_row p =
  [
    p.e_arm;
    Printf.sprintf "%.2f" p.e_density;
    Printf.sprintf "%.1f" p.e_makespan;
    string_of_int p.e_committed;
    string_of_int p.e_aborted;
    Printf.sprintf "%.4f" p.e_throughput;
    Printf.sprintf "%.3f" p.e_abort_rate;
    string_of_int p.e_compensations;
    string_of_int p.e_restarts;
    string_of_int p.e_local_restarts;
  ]

let p18_json_point p =
  Printf.sprintf
    "{\"arm\": %S, \"conflict_density\": %.2f, \"makespan\": %.2f, \"committed\": %d, \
     \"aborted\": %d, \"throughput\": %.5f, \"abort_rate\": %.4f, \"compensations\": %d, \
     \"process_restarts\": %d, \"local_restarts\": %d}"
    p.e_arm p.e_density p.e_makespan p.e_committed p.e_aborted p.e_throughput p.e_abort_rate
    p.e_compensations p.e_restarts p.e_local_restarts

let run ~quick ~json =
  section
    (if quick then "P18 — PRED vs classical baselines, smoke scales"
     else "P18 — PRED vs strict 2PL / TSO, and the weak-order multiplier");
  let densities = [ 0.1; 0.3; 0.6 ] in
  let seeds = if quick then [ 11; 12 ] else [ 11; 12; 13 ] in
  let n = if quick then 12 else 24 in
  let n_total = n * List.length seeds in
  let arm label runner density =
    p18_finalize ~n_total
      (List.fold_left
         (fun acc seed -> p18_add acc (runner ~density ~seed ~n))
         (p18_zero label density) seeds)
  in
  let points =
    List.concat_map
      (fun density ->
        let pred =
          arm "pred" (p18_pred ~label:"pred" ~config:Scheduler.default_config) density
        in
        let weak =
          arm "pred+weak" (p18_pred ~label:"pred+weak" ~config:p18_weak_config) density
        in
        let tpl =
          arm "2pl" (p18_classical ~kind:Baseline.Two_pl ~label:"2pl") density
        in
        let tso = arm "tso" (p18_classical ~kind:Baseline.Tso ~label:"tso") density in
        Printf.eprintf "  [p18] density %.2f done\n%!" density;
        [ pred; weak; tpl; tso ])
      densities
  in
  print_table
    [ "arm"; "density"; "makespan"; "committed"; "aborted"; "throughput"; "abort rate";
      "compens"; "restarts"; "local restarts" ]
    (List.map p18_row points);
  let find arm density =
    List.find (fun p -> p.e_arm = arm && p.e_density = density) points
  in
  (* the weak-order parallelism multiplier: same scheduler, same
     workloads; the only delta is overlapping conflicting locals under
     subsystem-enforced commit orders *)
  let speedups =
    List.map
      (fun d -> (d, (find "pred" d).e_makespan /. (find "pred+weak" d).e_makespan))
      densities
  in
  Format.printf "@.weak-order parallelism multiplier (PRED makespan / PRED+weak makespan):@.";
  List.iter
    (fun (d, s) -> Format.printf "  density %.2f: %.2fx@." d s)
    speedups;
  let d_hi = List.fold_left max 0.0 densities in
  let weak_hi = find "pred+weak" d_hi and tpl = find "2pl" d_hi and tso = find "tso" d_hi in
  let local_restarts = List.fold_left (fun acc p -> acc + p.e_local_restarts) 0 points in
  Format.printf
    "@.at density %.2f: pred+weak throughput %.4f vs 2PL %.4f vs TSO %.4f; %d local \
     restarts over the bench@."
    d_hi weak_hi.e_throughput tpl.e_throughput tso.e_throughput local_restarts;
  Format.printf
    "shape: the classical schedulers hold whole-process footprints — locks (2PL) or@.";
  Format.printf
    "timestamp windows (TSO) — so rising conflict density turns into blocking and@.";
  Format.printf
    "whole-process restarts.  PRED admits at activity granularity, and the weak@.";
  Format.printf
    "order overlaps even conflicting locals, re-invoking (not restarting) on a@.";
  Format.printf "predecessor abort.@.";
  let open Record in
  write_record json ~title:"P18 PRED vs classical baselines" ~experiment:"P18" ~clock:Virtual
    ~knobs:
      (let p = p18_params 0.0 in
       knobs
         [
           ("services", Int p.services); ("subsystems", Int p.subsystems);
           ("activities", Str (Printf.sprintf "%d-%d" p.activities_min p.activities_max));
           ("conflict_densities", List (List.map (num ~digits:2) densities));
           ("procs_per_seed", Int n); ("seeds", Int (List.length seeds));
           ("fail_prob", num ~digits:2 p18_fail);
         ])
    [
      ( "arms",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("arm", Str p.e_arm); ("conflict_density", num ~digits:2 p.e_density);
                   ("makespan", num ~digits:2 p.e_makespan); ("committed", Int p.e_committed);
                   ("aborted", Int p.e_aborted); ("throughput", num ~digits:5 p.e_throughput);
                   ("abort_rate", num ~digits:4 p.e_abort_rate);
                   ("compensations", Int p.e_compensations); ("process_restarts", Int p.e_restarts);
                   ("local_restarts", Int p.e_local_restarts);
                 ])
             points) );
      ( "weak_order_speedup",
        List
          (List.map
             (fun (d, s) -> Obj [ ("conflict_density", num ~digits:2 d); ("speedup", num s) ])
             speedups) );
    ];
  {
    readings =
      [
        ("weak-order speedup at the highest density", List.assoc d_hi speedups);
        ( "pred+weak beats 2PL and TSO",
          if weak_hi.e_throughput > tpl.e_throughput && weak_hi.e_throughput > tso.e_throughput
          then 1.0
          else 0.0 );
        ("local restarts", float_of_int local_restarts);
      ];
    invariants = [];
  }

let experiment =
  Harness.experiment "p18" ~record:true
    ~gates:
      [
        gate "--min-weak-speedup" Min "weak-order speedup at the highest density";
        gate "--check-baselines" Min "pred+weak beats 2PL and TSO" ~fixed:1.0;
        gate "--check-baselines" Min "local restarts" ~fixed:1.0;
      ]
    run
