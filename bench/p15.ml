(* P15: open-world serving under overload — saturation curves.  The
   offered load (open-loop Poisson arrivals per unit of virtual time) is
   swept across the server's capacity for each overload policy.  At every
   point the run must stay civilized: the shed-accounting invariant holds
   exactly, the queue is empty after drain, and every admitted process
   reaches a terminal state.  Goodput counts committed processes per unit
   of virtual time; admission latency is the virtual-time wait between a
   submission and its hand-off to the scheduler. *)

open Harness

type p15_point = {
  s_policy : string;
  s_rate : float;
  s_offered : int;
  s_admitted : int;  (* preferred-branch admits *)
  s_degraded : int;
  s_rejected : int;
  s_expired : int;
  s_committed : int;
  s_goodput : float;  (* committed per unit virtual time *)
  s_shed_rate : float;  (* (rejected+expired) / offered *)
  s_p95_wait : float;  (* virtual-time admission wait, p95 *)
  s_p99_wait : float;
  s_ok : bool;  (* accounting exact, queue drained, scheduler finished *)
}

let p15_params =
  {
    Generator.default_params with
    services = 8;
    conflict_density = 0.4;
    alt_prob = 0.8;
    activities_min = 3;
    activities_max = 6;
  }

let p15_max_live = 4
let p15_queue_capacity = 8
let p15_deadline = 4.0
let p15_saturation = 2
let p15_seed = 7

let p15_run ~policy ~rate ~horizon =
  let seed = p15_seed in
  let spec = Generator.spec p15_params in
  let rms = Generator.rms p15_params ~seed () in
  let sched =
    Scheduler.create ~config:{ Scheduler.default_config with seed } ~spec ~rms ()
  in
  let srv =
    Server.create
      ~config:
        {
          Server.default_config with
          policy;
          max_live = p15_max_live;
          queue_capacity = p15_queue_capacity;
          default_deadline = p15_deadline;
          saturation_limit = p15_saturation;
        }
      sched
  in
  let script = Generator.arrivals p15_params ~seed:(seed * 100) ~rate ~horizon in
  Server.play srv script;
  Server.run srv;
  Server.drain srv;
  let c = Server.counters srv in
  let committed =
    List.length
      (List.filter
         (fun p -> Scheduler.status sched (Process.pid p) = Schedule.Committed)
         (Server.admitted_procs srv))
  in
  let m = Scheduler.metrics sched in
  {
    s_policy = Server.policy_label policy;
    s_rate = rate;
    s_offered = c.Server.offered;
    s_admitted = c.Server.admitted;
    s_degraded = c.Server.degraded;
    s_rejected = c.Server.rejected;
    s_expired = c.Server.expired;
    s_committed = committed;
    s_goodput = float_of_int committed /. horizon;
    s_shed_rate =
      (if c.Server.offered = 0 then 0.0
       else
         float_of_int (c.Server.rejected + c.Server.expired)
         /. float_of_int c.Server.offered);
    s_p95_wait = Metrics.hquantile m "srv_admission_wait" 0.95;
    s_p99_wait = Metrics.hquantile m "srv_admission_wait" 0.99;
    s_ok =
      Server.accounting_ok srv && Server.queue_depth srv = 0
      && Scheduler.finished sched;
  }

let run ~quick ~json =
  section
    (if quick then "P15 — open-world serving under overload (quick)"
     else "P15 — open-world serving under overload: saturation curves");
  let loads = if quick then [ 2.0; 8.0; 16.0 ] else [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let horizon = if quick then 12.0 else 30.0 in
  let policies = [ Server.Reject; Server.Queue; Server.Degrade ] in
  let fnan f = if Float.is_nan f then "-" else Printf.sprintf "%.2f" f in
  let curves =
    List.map
      (fun policy ->
        let points =
          List.map
            (fun rate ->
              let p = p15_run ~policy ~rate ~horizon in
              Printf.eprintf "  [p15] %s load=%.1f: goodput %.2f, shed %.0f%%\n%!"
                p.s_policy rate p.s_goodput (100.0 *. p.s_shed_rate);
              p)
            loads
        in
        (Server.policy_label policy, points))
      policies
  in
  List.iter
    (fun (policy, points) ->
      Format.printf "@.policy %s (window %d, queue %d, deadline %.1f):@." policy
        p15_max_live p15_queue_capacity p15_deadline;
      print_table
        [ "offered/s"; "offered"; "admit"; "degrade"; "reject"; "expire";
          "committed"; "goodput/s"; "shed"; "p95 wait"; "p99 wait"; "ok" ]
        (List.map
           (fun p ->
             [
               Printf.sprintf "%.1f" p.s_rate; string_of_int p.s_offered;
               string_of_int p.s_admitted; string_of_int p.s_degraded;
               string_of_int p.s_rejected; string_of_int p.s_expired;
               string_of_int p.s_committed; Printf.sprintf "%.2f" p.s_goodput;
               Printf.sprintf "%.0f%%" (100.0 *. p.s_shed_rate);
               fnan p.s_p95_wait; fnan p.s_p99_wait;
               (if p.s_ok then "yes" else "NO");
             ])
           points))
    curves;
  Format.printf
    "@.shape: goodput climbs with offered load until the %d-deep admission window@."
    p15_max_live;
  Format.printf
    "saturates (multi-activity processes at unit service time under conflicts),@.";
  Format.printf
    "then plateaus while the shed rate absorbs the excess — the server degrades@.";
  Format.printf "by shedding, never by collapsing.@.";
  let open Record in
  write_record json ~title:"P15 open-world serving under overload" ~experiment:"P15" ~clock:Virtual
    ~knobs:
      (knobs ~params:p15_params
         [
           ("arrivals", Str "poisson"); ("horizon", num ~digits:1 horizon);
           ("max_live", Int p15_max_live); ("queue_capacity", Int p15_queue_capacity);
           ("default_deadline", num ~digits:1 p15_deadline);
           ("saturation_limit", Int p15_saturation); ("service_time", num ~digits:1 1.0);
           ("seed", Int p15_seed);
         ])
    [
      ( "curves",
        List
          (List.map
             (fun (policy, points) ->
               Obj
                 [
                   ("policy", Str policy);
                   ( "points",
                     List
                       (List.map
                          (fun p ->
                            Obj
                              [
                                ("offered_per_s", num ~digits:2 p.s_rate); ("offered", Int p.s_offered);
                                ("admitted", Int p.s_admitted); ("degraded", Int p.s_degraded);
                                ("rejected", Int p.s_rejected); ("expired", Int p.s_expired);
                                ("committed", Int p.s_committed);
                                ("goodput_per_s", num ~digits:4 p.s_goodput);
                                ("shed_rate", num ~digits:4 p.s_shed_rate);
                                ("p95_wait", num ~digits:4 p.s_p95_wait);
                                ("p99_wait", num ~digits:4 p.s_p99_wait); ("invariants_ok", Bool p.s_ok);
                              ])
                          points) );
                 ])
             curves) );
    ];
  (* saturation reading per policy: the worst goodput at the overloaded
     points (>= 8 offered per unit of virtual time) *)
  {
    readings =
      List.map
        (fun (policy, points) ->
          ( "overload goodput " ^ policy,
            List.fold_left
              (fun acc p -> if p.s_rate >= 8.0 then min acc p.s_goodput else acc)
              infinity points ))
        curves;
    (* the shed-accounting invariant and drain/termination must hold at
       every measured point, whatever the load *)
    invariants =
      [ ("accounting exact, queue drained, every point finished",
         List.for_all (fun (_, points) -> List.for_all (fun p -> p.s_ok) points) curves) ];
  }

let experiment =
  Harness.experiment "p15" ~record:true
    ~gates:
      (List.map
         (fun policy -> gate "--min-goodput" Min ("overload goodput " ^ Server.policy_label policy))
         [ Server.Reject; Server.Queue; Server.Degrade ])
    run
