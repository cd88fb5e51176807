open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Local = Tpm_composite.Local
module Rm = Tpm_subsys.Rm
module Des = Tpm_sim.Des

let serial_makespan ~make_rms ~spec ?(config = Scheduler.default_config)
    ?(args_of = fun _ -> Tpm_kv.Value.Nil) procs =
  List.fold_left
    (fun total proc ->
      let t = Scheduler.create ~config ~spec ~rms:(make_rms ()) () in
      Scheduler.submit t ~args_of proc;
      Scheduler.run t;
      total +. Scheduler.now t)
    0.0 procs

(* ------------------------------------------------------------------ *)
(* Classical activity schedulers over the same Rm substrate.

   Both treat a whole process as one transaction whose operations are its
   activity invocations, scheduled at the granularity of the conflict
   relation: the lockable/timestamped items are the service names, an
   activity on service [s] "writes" [s] (when [s] self-conflicts) and
   "reads" every other service conflicting with [s].  Strict 2PL grants
   an activity only while no other live process holds a conflicting
   service, holds everything to the end of the process, detects waits-for
   cycles and aborts the youngest rollbackable victim; TSO stamps each
   process at (re)start and validates every access against the per-item
   wts/rts tables, aborting the process on any out-of-order access.

   Aborted processes are rolled back through the engine's completion
   C(P) — compensations run against the subsystems via {!Rm.compensate},
   committed pivots force a forward completion instead — and restarted
   after backoff, exactly the paper's comparison point: the classical
   protocols pay whole-process rollbacks and lock-to-the-end waits where
   the transactional process scheduler commits activities early.

   Injected invocation failures are retried in place up to the Rm's
   finite bound; the classical baselines have no alternative paths, so
   [Execution.fail] is never consulted.  Every subsystem interaction is
   recorded as a local transaction (ops at dispatch, local commit at
   completion) so a run's per-subsystem histories can be checked against
   {!Local.commit_order_serializable} — the differential oracle. *)

type kind = Two_pl | Tso

type result = {
  makespan : float;
  finished : bool;  (** all processes reached a terminal state *)
  committed : int;
  aborted : int;  (** permanently aborted (restart budget exhausted) *)
  restarts : int;  (** whole-process rollback + restart events *)
  deadlocks : int;  (** 2PL: waits-for cycles broken *)
  validation_aborts : int;  (** TSO: wts/rts validation failures *)
  compensations : int;
  invocations : int;  (** committed forward invocations (attempts excluded) *)
  locals : (string * Local.t) list;  (** per-subsystem local schedules *)
}

type doom = Restart | Terminal

type pstate = {
  pid : int;
  proc : Process.t;
  mutable exec : Execution.t;
  mutable arrived : bool;
  mutable finished_p : bool;
  mutable ts : int;  (* TSO timestamp; also the 2PL age for victim choice *)
  mutable epoch : int;  (* bumped on rollback; stale timers check it *)
  mutable inflight : (int * int) list;  (* (act, token), dispatch order *)
  mutable tokens : (int * int) list;  (* (act, token) newest first, incl. inflight *)
  mutable held : Bitset.t;  (* 2PL: service ids locked *)
  mutable blocked : (int * int) list;  (* (act, wanted sid) from the last pump *)
  mutable attempts : (int, int) Hashtbl.t;
  mutable restarts_p : int;
  mutable doomed : doom option;
  mutable parked : bool;  (* in restart backoff: no dispatching *)
}

let run kind ~spec ~rms ?(service_time = 1.0) ?(backoff = 0.4) ?(retry_delay = 0.1)
    ?(max_restarts = 25) ?(horizon = 100000.0) ?(submit_at = fun _ -> 0.0) procs =
  let comp = Conflict.Compiled.make spec in
  let sim = Des.create () in
  let token_ctr = ref 0 in
  let ts_ctr = ref 0 in
  let restarts = ref 0 in
  let deadlocks = ref 0 in
  let validation_aborts = ref 0 in
  let compensations = ref 0 in
  let invocations = ref 0 in
  let rm_of =
    let tbl = Hashtbl.create 8 in
    List.iter (fun rm -> Hashtbl.replace tbl (Rm.name rm) rm) rms;
    fun subsystem ->
      match Hashtbl.find_opt tbl subsystem with
      | Some rm -> rm
      | None -> invalid_arg ("Baseline.run: unknown subsystem " ^ subsystem)
  in
  (* per-subsystem local schedules, built in emission order *)
  let local_evs : (string, Local.event list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun rm -> Hashtbl.replace local_evs (Rm.name rm) (ref [])) rms;
  let emit subsystem ev =
    let r = Hashtbl.find local_evs subsystem in
    r := ev :: !r
  in
  let sid_of service = Conflict.Compiled.intern comp service in
  let item sid = Conflict.Compiled.name comp sid in
  let self_conf sid = Bitset.mem (Conflict.Compiled.row comp sid) sid in
  let conf_others sid =
    List.filter (fun s' -> s' <> sid) (Bitset.elements (Conflict.Compiled.row comp sid))
  in
  (* the op model: own service written (when self-conflicting), every
     other conflicting service read — this encodes exactly the declared
     conflict relation as item-level r/w conflicts *)
  let ops_of ~tx sid =
    Local.Op { Local.tx; item = item sid; mode = (if self_conf sid then `Write else `Read) }
    :: List.map (fun s' -> Local.Op { Local.tx; item = item s'; mode = `Read }) (conf_others sid)
  in
  let emit_ops subsystem ~tx sid = List.iter (emit subsystem) (ops_of ~tx sid) in
  (* TSO timestamp tables over service ids *)
  let wts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let get tbl sid = Option.value ~default:0 (Hashtbl.find_opt tbl sid) in
  let bump tbl sid ts = if ts > get tbl sid then Hashtbl.replace tbl sid ts in
  let fresh_ts () =
    incr ts_ctr;
    !ts_ctr
  in
  let ps =
    List.mapi
      (fun i proc ->
        {
          pid = Process.pid proc;
          proc;
          exec = Execution.start proc;
          arrived = submit_at i <= 0.0;
          finished_p = false;
          ts = 0;
          epoch = 0;
          inflight = [];
          tokens = [];
          held = Bitset.create ();
          blocked = [];
          attempts = Hashtbl.create 8;
          restarts_p = 0;
          doomed = None;
          parked = false;
        })
      procs
  in
  let live p = p.arrived && not p.finished_p in
  let fresh_token () =
    incr token_ctr;
    !token_ctr
  in
  let token_of p act =
    match List.assoc_opt act p.tokens with
    | Some tok -> tok
    | None -> invalid_arg "Baseline.run: no token for compensated activity"
  in
  (* 2PL: does granting service [sid] to [p] conflict with another
     process's held set? *)
  let lock_blockers p sid =
    let row = Conflict.Compiled.row comp sid in
    List.filter (fun q -> q != p && live q && Bitset.inter_nonempty row q.held) ps
  in
  (* TSO: validate an access by [p] to service [sid]; on success the
     tables are updated (same-timestamp accesses — the process itself —
     always pass) *)
  let tso_validate p sid =
    let ok =
      p.ts >= get rts sid
      && ((not (self_conf sid)) || p.ts >= get wts sid)
      && List.for_all (fun s' -> p.ts >= get wts s') (conf_others sid)
    in
    if ok then begin
      bump wts sid p.ts;
      List.iter (fun s' -> bump rts s' p.ts) (conf_others sid)
    end;
    ok
  in
  let rec pump () =
    List.iter
      (fun p ->
        if live p && p.doomed = None && not p.parked then begin
          p.blocked <- [];
          List.iter
            (fun act ->
              if p.doomed = None && not (List.mem_assoc act p.inflight) then
                try_dispatch p act)
            (List.sort compare (Execution.enabled p.exec))
        end)
      ps;
    check_deadlock ()
  and try_dispatch p act =
    let a = Process.find p.proc act in
    let sid = sid_of a.Activity.service in
    match kind with
    | Two_pl -> (
        match lock_blockers p sid with
        | [] ->
            Bitset.set p.held sid;
            invoke p a sid
        | _ :: _ -> p.blocked <- (act, sid) :: p.blocked)
    | Tso ->
        if tso_validate p sid then invoke p a sid
        else begin
          incr validation_aborts;
          doom p
        end
  and invoke p a sid =
    let act = a.Activity.id.Activity.act in
    let rm = rm_of a.Activity.subsystem in
    let attempt = 1 + Option.value ~default:0 (Hashtbl.find_opt p.attempts act) in
    Hashtbl.replace p.attempts act attempt;
    let token = fresh_token () in
    match Rm.invoke rm ~token ~service:a.Activity.service ~attempt ~now:(Des.now sim) () with
    | Rm.Committed _ ->
        incr invocations;
        emit_ops a.Activity.subsystem ~tx:token sid;
        p.tokens <- (act, token) :: p.tokens;
        p.inflight <- p.inflight @ [ (act, token) ];
        let epoch = p.epoch in
        Des.after sim service_time (fun _ -> if p.epoch = epoch then complete p act token)
    | Rm.Failed | Rm.Blocked _ | Rm.Unavailable ->
        (* an effect-free aborted local transaction; retry in place *)
        emit_ops a.Activity.subsystem ~tx:token sid;
        emit a.Activity.subsystem (Local.Abort token);
        let epoch = p.epoch in
        Des.after sim retry_delay (fun _ ->
            if p.epoch = epoch && not p.finished_p then pump ())
    | Rm.Prepared _ -> assert false
  and complete p act token =
    let a = Process.find p.proc act in
    p.inflight <- List.filter (fun (ac, _) -> ac <> act) p.inflight;
    emit a.Activity.subsystem (Local.Commit token);
    p.exec <- Execution.exec p.exec act;
    if p.doomed <> None then begin
      if p.inflight = [] then rollback p
    end
    else if Execution.can_commit p.exec && p.inflight = [] then begin
      p.exec <- Execution.commit p.exec;
      finish p
    end
    else pump ()
  and finish p =
    p.finished_p <- true;
    Bitset.clear p.held;
    p.blocked <- [];
    pump ()
  and doom p =
    if p.doomed = None then begin
      p.doomed <-
        Some
          (if
             Execution.recovery_state p.exec = Execution.B_rec
             && List.for_all (fun (act, _) -> Activity.compensatable (Process.find p.proc act)) p.tokens
             && p.restarts_p < max_restarts
           then Restart
           else Terminal);
      p.blocked <- [];
      if p.inflight = [] then rollback p
    end
  and rollback p =
    (* apply the completion C(P): compensations of the committed prefix,
       plus — for forward recovery — the retriable completion path *)
    List.iter
      (fun inst ->
        let a = Activity.instance_base inst in
        let rm = rm_of a.Activity.subsystem in
        let sid = sid_of a.Activity.service in
        if Activity.is_inverse inst then begin
          let token = token_of p a.Activity.id.Activity.act in
          (match Rm.compensate rm ~token ~now:(Des.now sim) () with
          | Rm.Committed _ -> ()
          | _ -> invalid_arg "Baseline.run: compensation did not commit");
          incr compensations;
          let tx = fresh_token () in
          emit_ops a.Activity.subsystem ~tx sid;
          (* the completion transaction occupies a service time like any
             other local transaction; emitting its local commit early
             would invert the commit order against in-flight conflicting
             transactions *)
          Des.after sim service_time (fun _ -> emit a.Activity.subsystem (Local.Commit tx))
        end
        else begin
          (* retriable completion activity: runs to commit by definition *)
          let tx = fresh_token () in
          (match
             Rm.invoke rm ~token:tx ~service:a.Activity.service ~attempt:(Rm.max_failures rm)
               ~now:(Des.now sim) ()
           with
          | Rm.Committed _ -> incr invocations
          | _ -> invalid_arg "Baseline.run: completion invocation did not commit");
          emit_ops a.Activity.subsystem ~tx sid;
          Des.after sim service_time (fun _ -> emit a.Activity.subsystem (Local.Commit tx))
        end)
      (Execution.completion p.exec);
    let how = p.doomed in
    p.doomed <- None;
    Bitset.clear p.held;
    p.blocked <- [];
    p.tokens <- [];
    p.epoch <- p.epoch + 1;
    Hashtbl.reset p.attempts;
    match how with
    | Some Restart ->
        incr restarts;
        p.restarts_p <- p.restarts_p + 1;
        p.exec <- Execution.start p.proc;
        p.parked <- true;
        let epoch = p.epoch in
        Des.after sim
          (backoff *. float_of_int p.restarts_p)
          (fun _ ->
            if p.epoch = epoch && not p.finished_p then begin
              p.parked <- false;
              p.ts <- fresh_ts ();
              pump ()
            end);
        pump ()
    | Some Terminal | None ->
        p.exec <- Execution.abort p.exec;
        finish p
  and check_deadlock () =
    (* waits-for graph over the blocked processes; break any cycle by
       aborting its youngest rollbackable member *)
    let edges =
      List.concat_map
        (fun p ->
          if live p && p.blocked <> [] then
            List.concat_map
              (fun (_, sid) -> List.map (fun q -> (p.pid, q.pid)) (lock_blockers p sid))
              p.blocked
          else [])
        ps
    in
    if edges <> [] then begin
      let nodes = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
      let g = Digraph.make ~nodes ~edges:(List.sort_uniq compare edges) in
      if Digraph.has_cycle g then begin
        (* victim: youngest (largest ts stamp, then pid) blocked process
           whose rollback is possible, else youngest blocked overall *)
        let blocked_ps = List.filter (fun p -> live p && p.blocked <> []) ps in
        let rollbackable p =
          Execution.recovery_state p.exec = Execution.B_rec
          && List.for_all
               (fun (act, _) -> Activity.compensatable (Process.find p.proc act))
               p.tokens
        in
        let age p = (p.ts, p.pid) in
        let youngest l =
          List.fold_left (fun best p ->
              match best with
              | None -> Some p
              | Some b -> if compare (age p) (age b) > 0 then Some p else best)
            None l
        in
        let victim =
          match youngest (List.filter rollbackable blocked_ps) with
          | Some v -> Some v
          | None -> youngest blocked_ps
        in
        match victim with
        | Some v ->
            incr deadlocks;
            doom v
        | None -> ()
      end
    end
  in
  (* stamp and release the processes at their submission times *)
  List.iteri
    (fun i p ->
      let at = submit_at i in
      if at <= 0.0 then begin
        p.arrived <- true;
        p.ts <- fresh_ts ()
      end
      else
        Des.at sim at (fun _ ->
            p.arrived <- true;
            p.ts <- fresh_ts ();
            pump ()))
    ps;
  pump ();
  Des.run ~until:horizon sim;
  let committed, aborted =
    List.fold_left
      (fun (c, a) p ->
        match Execution.status p.exec with
        | Execution.Finished Execution.Committed -> (c + 1, a)
        | Execution.Finished Execution.Aborted -> (c, a + 1)
        | Execution.Running -> (c, a))
      (0, 0) ps
  in
  {
    makespan = Des.now sim;
    finished = List.for_all (fun p -> p.finished_p) ps;
    committed;
    aborted;
    restarts = !restarts;
    deadlocks = !deadlocks;
    validation_aborts = !validation_aborts;
    compensations = !compensations;
    invocations = !invocations;
    locals =
      List.map
        (fun rm -> (Rm.name rm, Local.make (List.rev !(Hashtbl.find local_evs (Rm.name rm)))))
        rms;
  }

let run_2pl = run Two_pl
let run_tso = run Tso
