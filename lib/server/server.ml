(* The open-world front door: every submission is decided — admit, queue,
   degrade or shed — before it can touch the scheduler, and every decision
   is a deterministic function of the virtual-time event order.  The
   server owns no clock and no randomness of its own: arrivals, shed
   scans and drain all run as events on the wrapped scheduler's
   simulation, which is what makes overload runs replayable and the
   decision log bit-identical across runs of the same script. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Des = Tpm_sim.Des
module Metrics = Tpm_sim.Metrics
module Obs = Tpm_obs.Obs
module Wal = Tpm_wal.Wal

type overload_policy =
  | Reject
  | Queue
  | Degrade

let policy_label = function
  | Reject -> "reject"
  | Queue -> "queue"
  | Degrade -> "degrade"

let policy_of_string = function
  | "reject" -> Some Reject
  | "queue" -> Some Queue
  | "degrade" -> Some Degrade
  | _ -> None

type reject_reason =
  | Window_full
  | Queue_full
  | Deadline_expired
  | Breaker_open of string
  | Saturated
  | Draining
  | Invalid of Scheduler.invalid

let reason_label = function
  | Window_full -> "window-full"
  | Queue_full -> "queue-full"
  | Deadline_expired -> "deadline-expired"
  | Breaker_open ss -> "breaker-open:" ^ ss
  | Saturated -> "saturated"
  | Draining -> "draining"
  | Invalid i -> Scheduler.invalid_label i

type decision =
  | Admitted
  | Queued
  | Degraded_admit of int
  | Rejected of reject_reason

let decision_label = function
  | Admitted -> "admit"
  | Queued -> "queue"
  | Degraded_admit n -> Printf.sprintf "degrade:%d" n
  | Rejected r -> "reject:" ^ reason_label r

type config = {
  policy : overload_policy;
  max_live : int;
  queue_capacity : int;
  default_deadline : float;
  scan_period : float;
  breaker_threshold : int;
  breaker_cooldown : float;
  saturation_limit : int;
}

let default_config =
  {
    policy = Queue;
    max_live = 32;
    queue_capacity = 64;
    default_deadline = 10.0;
    scan_period = 0.25;
    breaker_threshold = 3;
    breaker_cooldown = 5.0;
    saturation_limit = 8;
  }

type counters = {
  offered : int;
  admitted : int;
  rejected : int;
  expired : int;
  degraded : int;
}

type bstate =
  | B_closed
  | B_open of float  (* reopens to half-open at this virtual time *)
  | B_half

type breaker = {
  mutable bstate : bstate;
  mutable fails : int;  (* consecutive Unavailable/timeout answers *)
}

type entry = {
  e_proc : Process.t;
  e_deadline : float;  (* absolute virtual time *)
  e_offered : float;
}

type t = {
  cfg : config;
  sched : Scheduler.t;
  breakers : (string, breaker) Hashtbl.t;
  mutable q : entry list;  (* FIFO, arrival order; bounded by queue_capacity *)
  mutable qlen : int;
  seen : (int, unit) Hashtbl.t;  (* pids ever admitted or queued *)
  live_pids : (int, unit) Hashtbl.t;  (* admitted, possibly still live *)
  mutable c_offered : int;
  mutable c_admitted : int;
  mutable c_rejected : int;
  mutable c_expired : int;
  mutable c_degraded : int;
  mutable decisions_rev : string list;
  mutable admitted_rev : Process.t list;  (* what the scheduler actually runs *)
  mutable draining : bool;
  mutable ticker_on : bool;
  mutable nsteps : int;
  mutable hook : (stage:string -> step:int -> unit) option;
}

let create ?(config = default_config) sched =
  if config.max_live <= 0 then invalid_arg "Server.create: max_live must be positive";
  if config.queue_capacity < 0 then invalid_arg "Server.create: negative queue_capacity";
  let t =
    {
      cfg = config;
      sched;
      breakers = Hashtbl.create 8;
      q = [];
      qlen = 0;
      seen = Hashtbl.create 64;
      live_pids = Hashtbl.create 64;
      c_offered = 0;
      c_admitted = 0;
      c_rejected = 0;
      c_expired = 0;
      c_degraded = 0;
      decisions_rev = [];
      admitted_rev = [];
      draining = false;
      ticker_on = false;
      nsteps = 0;
      hook = None;
    }
  in
  (* the breakers feed on the scheduler's availability signal: consecutive
     Unavailable/timeout answers open, any success closes *)
  Scheduler.set_subsystem_observer sched (fun ~subsystem ~ok ->
      let b =
        match Hashtbl.find_opt t.breakers subsystem with
        | Some b -> b
        | None ->
            let b = { bstate = B_closed; fails = 0 } in
            Hashtbl.replace t.breakers subsystem b;
            b
      in
      let obs = Scheduler.tracer sched in
      let emit state =
        if Obs.Tracer.active obs then Obs.Tracer.emit obs (Obs.Breaker { subsystem; state })
      in
      if ok then begin
        b.fails <- 0;
        match b.bstate with
        | B_closed -> ()
        | B_open _ | B_half ->
            b.bstate <- B_closed;
            Metrics.incr (Scheduler.metrics sched) "srv_breaker_closes";
            emit "closed"
      end
      else begin
        b.fails <- b.fails + 1;
        match b.bstate with
        | B_half ->
            (* the probe failed: back to open for another cooldown *)
            b.bstate <- B_open (Scheduler.now sched +. config.breaker_cooldown);
            Metrics.incr (Scheduler.metrics sched) "srv_breaker_opens";
            emit "open"
        | B_closed when b.fails >= config.breaker_threshold ->
            b.bstate <- B_open (Scheduler.now sched +. config.breaker_cooldown);
            Metrics.incr (Scheduler.metrics sched) "srv_breaker_opens";
            emit "open"
        | B_closed | B_open _ -> ()
      end);
  t

let scheduler t = t.sched
let config t = t.cfg
let draining t = t.draining
let queue_depth t = t.qlen
let steps t = t.nsteps
let set_step_hook t f = t.hook <- Some f
let decision_log t = List.rev t.decisions_rev
let admitted_procs t = List.rev t.admitted_rev

let counters t =
  {
    offered = t.c_offered;
    admitted = t.c_admitted;
    rejected = t.c_rejected;
    expired = t.c_expired;
    degraded = t.c_degraded;
  }

let accounting_ok t =
  t.c_offered = t.c_admitted + t.c_rejected + t.c_expired + t.c_degraded + t.qlen

let breaker_state t ss =
  match Hashtbl.find_opt t.breakers ss with
  | None | Some { bstate = B_closed; _ } -> "closed"
  | Some { bstate = B_open _; _ } -> "open"
  | Some { bstate = B_half; _ } -> "half-open"

let step t stage =
  t.nsteps <- t.nsteps + 1;
  match t.hook with None -> () | Some f -> f ~stage ~step:t.nsteps

let crashed t = Scheduler.is_crashed t.sched

let logd t pid label = t.decisions_rev <- Printf.sprintf "P%d %s" pid label :: t.decisions_rev

let emit t ev =
  let obs = Scheduler.tracer t.sched in
  if Obs.Tracer.active obs then Obs.Tracer.emit obs ev

(* In-flight window occupancy.  Registration of an admitted process is
   itself a simulation event, so the scheduler's own live count lags the
   decision by one event; the server counts its admissions directly and
   retires them once the scheduler reports them terminal. *)
let occupancy t =
  let dead = ref [] in
  let n =
    Hashtbl.fold
      (fun pid () n ->
        match Scheduler.status t.sched pid with
        | Schedule.Committed | Schedule.Aborted ->
            dead := pid :: !dead;
            n
        | Schedule.Active -> n + 1)
      t.live_pids 0
  in
  List.iter (Hashtbl.remove t.live_pids) !dead;
  n

(* --- admission predicates --- *)

(* First open breaker on the preferred execution path.  Reading the
   breaker doubles as the half-open transition: an elapsed cooldown turns
   the next interested submission into the probe. *)
let breaker_block t proc =
  List.find_map
    (fun aid ->
      let a = Process.find proc aid in
      match Hashtbl.find_opt t.breakers a.Activity.subsystem with
      | None | Some { bstate = B_closed; _ } | Some { bstate = B_half; _ } -> None
      | Some ({ bstate = B_open until; _ } as b) ->
          if Scheduler.now t.sched >= until then begin
            b.bstate <- B_half;
            emit t (Obs.Breaker { subsystem = a.Activity.subsystem; state = "half-open" });
            None
          end
          else Some a.Activity.subsystem)
    (Process.preferred_path proc)

let saturated t proc =
  List.exists
    (fun aid ->
      let a = Process.find proc aid in
      Scheduler.service_pressure t.sched a.Activity.service >= t.cfg.saturation_limit)
    (Process.preferred_path proc)

(* The degraded variant: resolve every choice point to its least-preferred
   alternative (the compensable/retriable fallback the flex structure
   guarantees), dropping the preferred subtrees.  Only a variant that
   still validates and keeps a well-formed flex structure is usable —
   anything else refuses to degrade rather than admitting a process whose
   termination is no longer guaranteed. *)
let degrade_variant proc =
  let drop_heads =
    List.concat_map
      (fun s ->
        match Process.alternatives proc s with
        | [] | [ _ ] -> []
        | alts ->
            let rec all_but_last = function
              | [] | [ _ ] -> []
              | x :: tl -> x :: all_but_last tl
            in
            all_but_last alts)
      (Process.choice_points proc)
  in
  if drop_heads = [] then None
  else begin
    let dropped = Hashtbl.create 16 in
    let rec dfs a =
      if not (Hashtbl.mem dropped a) then begin
        Hashtbl.replace dropped a ();
        List.iter dfs (Process.succs proc a)
      end
    in
    List.iter dfs drop_heads;
    let keep a = not (Hashtbl.mem dropped a) in
    let activities =
      List.filter (fun (a : Activity.t) -> keep a.Activity.id.Activity.act)
        (Process.activities proc)
    in
    let prec = List.filter (fun (x, y) -> keep x && keep y) (Process.prec_edges proc) in
    let pref =
      List.filter
        (fun ((s1, d1), (s2, d2)) -> keep s1 && keep d1 && keep s2 && keep d2)
        (Process.pref_pairs proc)
    in
    match Process.make ~pid:(Process.pid proc) ~activities ~prec ~pref with
    | Error _ -> None
    | Ok p -> (
        match Flex.well_formed p with
        | Ok () -> Some (p, Hashtbl.length dropped)
        | Error _ -> None)
  end

(* --- decision bookkeeping --- *)

let reject t pid r =
  t.c_rejected <- t.c_rejected + 1;
  Metrics.incr (Scheduler.metrics t.sched) "srv_rejected";
  emit t (Obs.Shed { pid; why = reason_label r });
  logd t pid (decision_label (Rejected r));
  Rejected r

let expire t pid =
  t.c_expired <- t.c_expired + 1;
  Metrics.incr (Scheduler.metrics t.sched) "srv_expired";
  emit t (Obs.Shed { pid; why = reason_label Deadline_expired });
  logd t pid (decision_label (Rejected Deadline_expired))

let admit t ?(pruned = 0) proc ~offered_at =
  let pid = Process.pid proc in
  Hashtbl.replace t.seen pid ();
  Hashtbl.replace t.live_pids pid ();
  t.admitted_rev <- proc :: t.admitted_rev;
  Scheduler.submit t.sched proc;
  let m = Scheduler.metrics t.sched in
  Metrics.observe m "srv_admission_wait" (Scheduler.now t.sched -. offered_at);
  if pruned > 0 then begin
    t.c_degraded <- t.c_degraded + 1;
    Metrics.incr m "srv_degraded";
    emit t (Obs.Degraded { pid; pruned });
    logd t pid (decision_label (Degraded_admit pruned));
    Degraded_admit pruned
  end
  else begin
    t.c_admitted <- t.c_admitted + 1;
    Metrics.incr m "srv_admitted";
    logd t pid (decision_label Admitted);
    Admitted
  end

(* --- the queue: shed expired entries, pump admissible heads --- *)

let scan_and_pump t =
  let now = Scheduler.now t.sched in
  (* shed every entry past its deadline, wherever it sits in the queue *)
  let kept =
    List.filter
      (fun e ->
        if crashed t then true
        else if now >= e.e_deadline then begin
          t.qlen <- t.qlen - 1;
          expire t (Process.pid e.e_proc);
          step t "shed";
          false
        end
        else true)
      t.q
  in
  t.q <- kept;
  (* admit from the head while the window has room and no breaker blocks *)
  let rec pump () =
    if (not (crashed t)) && occupancy t < t.cfg.max_live then
      match t.q with
      | [] -> ()
      | e :: tl -> (
          match breaker_block t e.e_proc with
          | Some _ -> ()  (* head-of-line waits for the breaker's cooldown *)
          | None ->
              t.q <- tl;
              t.qlen <- t.qlen - 1;
              ignore (admit t e.e_proc ~offered_at:e.e_offered);
              step t "pump";
              pump ())
  in
  pump ();
  Metrics.observe (Scheduler.metrics t.sched) "srv_queue_depth" (float_of_int t.qlen)

(* The ticker is armed only while the queue is non-empty: an idle or
   fully-drained server schedules nothing, so the simulation can reach
   quiescence. *)
let rec arm_ticker t =
  if (not t.ticker_on) && not (crashed t) then begin
    t.ticker_on <- true;
    Des.every (Scheduler.sim t.sched) ~period:t.cfg.scan_period (fun _ ->
        if crashed t || t.q = [] then begin
          t.ticker_on <- false;
          false
        end
        else begin
          scan_and_pump t;
          if t.q = [] then begin
            t.ticker_on <- false;
            false
          end
          else true
        end)
  end

and enqueue t ?deadline proc =
  let pid = Process.pid proc in
  if t.qlen >= t.cfg.queue_capacity then reject t pid Queue_full
  else begin
    let now = Scheduler.now t.sched in
    let e =
      {
        e_proc = proc;
        e_offered = now;
        e_deadline = now +. Option.value ~default:t.cfg.default_deadline deadline;
      }
    in
    t.q <- t.q @ [ e ];
    t.qlen <- t.qlen + 1;
    Hashtbl.replace t.seen pid ();
    Metrics.incr (Scheduler.metrics t.sched) "srv_queued";
    logd t pid (decision_label Queued);
    arm_ticker t;
    step t "enqueue";
    Queued
  end

(* --- the front door --- *)

let offer t ?deadline proc =
  let pid = Process.pid proc in
  t.c_offered <- t.c_offered + 1;
  Metrics.incr (Scheduler.metrics t.sched) "srv_offered";
  emit t (Obs.Arrival { pid });
  let decision =
    if t.draining || crashed t then reject t pid Draining
    else if Hashtbl.mem t.seen pid then reject t pid (Invalid Scheduler.Duplicate_pid)
    else
      match Scheduler.check_submission t.sched ~groups:[] proc with
      | Some i -> reject t pid (Invalid i)
      | None -> (
          let window_ok = occupancy t < t.cfg.max_live in
          let blocked = breaker_block t proc in
          let sat = t.cfg.policy = Degrade && saturated t proc in
          if window_ok && blocked = None && not sat then
            admit t proc ~offered_at:(Scheduler.now t.sched)
          else
            match t.cfg.policy with
            | Reject -> (
                match blocked with
                | Some ss -> reject t pid (Breaker_open ss)
                | None -> reject t pid Window_full)
            | Queue -> enqueue t ?deadline proc
            | Degrade ->
                if not window_ok then
                  (* no variant shrinks the window: shed explicitly *)
                  reject t pid Window_full
                else (
                  match degrade_variant proc with
                  | Some (p, pruned) -> (
                      match breaker_block t p with
                      | Some ss -> reject t pid (Breaker_open ss)
                      | None ->
                          admit t p ~pruned ~offered_at:(Scheduler.now t.sched))
                  | None -> (
                      match blocked with
                      | Some ss -> reject t pid (Breaker_open ss)
                      | None -> reject t pid Saturated)))
  in
  step t "arrival";
  decision

let submit_at t ~at ?deadline proc =
  Des.at (Scheduler.sim t.sched) at (fun _ ->
      if not (crashed t) then ignore (offer t ?deadline proc))

let play t script = List.iter (fun (at, proc) -> submit_at t ~at proc) script

let run ?until t = Scheduler.run ?until t.sched

(* --- graceful drain --- *)

let drain t =
  if not t.draining then begin
    t.draining <- true;
    emit t (Obs.Drain { stage = "intake-stopped" });
    step t "drain-start";
    (* the queue is flushed as explicit drain-time rejects: nothing may
       enter the system once intake stopped.  A crashed server leaves its
       queue untouched — those entries are still accounted as queued in
       the crash image, never silently dropped *)
    if not (crashed t) then begin
      let q = t.q in
      t.q <- [];
      t.qlen <- 0;
      List.iter (fun e -> ignore (reject t (Process.pid e.e_proc) Draining)) q
    end;
    step t "drain-queue";
    (* settle in-flight work: every admitted process finishes or
       compensates (guaranteed termination) before the log is sealed *)
    if not (crashed t) then run t;
    emit t (Obs.Drain { stage = "in-flight-settled" });
    step t "drain-quiesce";
    if not (crashed t) then begin
      Scheduler.checkpoint t.sched;
      ignore (Wal.sync (Scheduler.wal t.sched));
      emit t (Obs.Drain { stage = "wal-sealed" })
    end;
    step t "drain-seal"
  end

(* --- Lang front-end and the wire protocol --- *)

let offer_text t text =
  match Lang.parse text with
  | Error e -> Error (Format.asprintf "%a" Lang.pp_error e)
  | Ok (doc : Lang.document) ->
      Ok
        (List.map
           (fun proc -> (Process.pid proc, offer t proc))
           doc.Lang.processes)

(* The largest document the wire protocol buffers.  A longer one is
   answered [error document-too-large] and skipped up to its [.] line, so
   no client can make the server hold more than this much of its input. *)
let max_document_bytes = 1 lsl 20

let handle_connection t fd =
  let oc = Unix.out_channel_of_descr fd in
  let send line =
    output_string oc line;
    output_char oc '\n'
  in
  let doc = Buffer.create 256 in
  let answer () =
    let text = Buffer.contents doc in
    Buffer.clear doc;
    (match offer_text t text with
    | Error e -> send ("error " ^ e)
    | Ok decisions ->
        List.iter
          (fun (pid, d) -> send (Printf.sprintf "decision %d %s" pid (decision_label d)))
          decisions;
        (* bridge to virtual time: each document runs to quiescence, so
           queued entries resolve and statuses are final *)
        run t;
        List.iter
          (fun (pid, d) ->
            match d with
            | Rejected _ -> ()
            | Admitted | Queued | Degraded_admit _ ->
                let st =
                  match Scheduler.status t.sched pid with
                  | Schedule.Committed -> "committed"
                  | Schedule.Aborted -> "aborted"
                  | Schedule.Active -> "shed"  (* queued entry expired unregistered *)
                in
                send (Printf.sprintf "status %d %s" pid st))
          decisions;
        let c = counters t in
        send
          (Printf.sprintf "counters offered=%d admitted=%d rejected=%d expired=%d degraded=%d queued=%d"
             c.offered c.admitted c.rejected c.expired c.degraded t.qlen));
    send ".";
    flush oc
  in
  (* [doc] holds the document's complete lines, [line] the one being
     read.  Once the two together pass the cap, [doc] is dropped and
     [line] keeps at most its first two bytes: enough to recognise the
     [.] line that ends the oversized document. *)
  let line = Buffer.create 256 in
  let oversized = ref false in
  let overflow () =
    oversized := true;
    Buffer.reset doc;
    let head = Buffer.sub line 0 (min 2 (Buffer.length line)) in
    Buffer.reset line;
    Buffer.add_string line head
  in
  let end_line () =
    if Buffer.length line = 1 && Buffer.nth line 0 = '.' then begin
      Buffer.clear line;
      if !oversized then begin
        oversized := false;
        send "error document-too-large";
        send ".";
        flush oc
      end
      else answer ()
    end
    else begin
      if not !oversized then begin
        Buffer.add_buffer doc line;
        Buffer.add_char doc '\n';
        if Buffer.length doc > max_document_bytes then overflow ()
      end;
      Buffer.clear line
    end
  in
  let add_bytes chunk pos len =
    if !oversized then Buffer.add_subbytes line chunk pos (min len (2 - Buffer.length line))
    else begin
      Buffer.add_subbytes line chunk pos len;
      if Buffer.length doc + Buffer.length line > max_document_bytes then overflow ()
    end
  in
  let chunk = Bytes.create 65536 in
  let rec scan pos stop =
    if pos < stop then
      match Bytes.index_from_opt chunk pos '\n' with
      | Some nl when nl < stop ->
          add_bytes chunk pos (nl - pos);
          end_line ();
          scan (nl + 1) stop
      | _ -> add_bytes chunk pos (stop - pos)
  in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        (* end of input ends the last line and the last document *)
        if Buffer.length line > 0 then end_line ();
        if !oversized then begin
          send "error document-too-large";
          send "."
        end
        else if Buffer.length doc > 0 then answer ()
    | n ->
        scan 0 n;
        loop ()
  in
  loop ();
  flush oc
