open Tpm_core
module Rm = Tpm_subsys.Rm
module Value = Tpm_kv.Value
module Store = Tpm_kv.Store
module Des = Tpm_sim.Des
module Prng = Tpm_sim.Prng
module Metrics = Tpm_sim.Metrics
module Faults = Tpm_sim.Faults
module Bus = Tpm_sim.Bus
module Wal = Tpm_wal.Wal
module Recovery = Tpm_wal.Recovery
module Coordinator = Tpm_twopc.Coordinator
module Obs = Tpm_obs.Obs
module Choice = Tpm_sim.Choice
module Enforce = Tpm_composite.Enforce

type mode =
  | Conservative
  | Deferred
  | Quasi
  | Naive_sr
      (* baseline: classical serializability-only scheduling that ignores
         recovery — no Lemma-1 gating of non-compensatable activities and
         no anticipation of completion conflicts.  Exhibits exactly the
         figure-1 anomaly; used by the benchmarks as a comparator. *)

type backoff = {
  base : float;
  multiplier : float;
  cap : float;
  jitter : float;
  max_attempts : int option;
      (* transient-failure attempts granted to a non-retriable activity
         before the scheduler degrades to the next alternative branch;
         [None] derives the bound from the RM's finite-retry bound
         (max_failures - 1, i.e. strictly before Definition 3 would force
         the injected success of a retriable) *)
}

let default_backoff =
  { base = 0.5; multiplier = 2.0; cap = 8.0; jitter = 0.0; max_attempts = None }

type admission_engine =
  | Incremental
      (* interned-service bitmatrix + cached per-process service bitsets +
         cycle detection against the combined graph's maintained order
         (the default) *)
  | Reference
      (* the pre-incremental path: string-keyed conflict tests, per-pair
         future recomputation, full-graph cycle detection.  Kept as the
         comparison oracle and as the old arm of bench P11. *)
  | Checked
      (* run both on every admission and fail loudly unless the decisions
         (and recorded dependency edges) are bit-identical *)

type order =
  | Strong
  | Weak

type config = {
  mode : mode;
  exact_admission : bool;
      (* ablation: before admitting, additionally check that the history
         extended by the candidate is still reducible (Definition 9 on the
         completed schedule) — the literal "always consider S-tilde" rule
         of Section 3.5.  Definitionally exact but expensive; the default
         incremental dependency tracking approximates it. *)
  order : order;
      (* Section 3.6: [Strong] executes conflicting activities of
         different processes one after the other; [Weak] lets them
         overlap in their subsystem (in flight or prepared) and routes the
         prescribed commit order through per-subsystem local executors
         ({!Tpm_composite.Enforce}) that hold each local commit until every
         prescribed predecessor's local transaction committed, and restart
         the dependent local transactions when a predecessor aborts *)
  seed : int;
  service_time : string -> float;
  stochastic_times : bool;
  backoff : backoff;
  invocation_timeout : float option;
      (* client-side timeout: an invocation whose (spiked) duration exceeds
         it is abandoned after the timeout and counted as a failed attempt *)
  outage_degrade : bool;
      (* degrade a non-retriable activity to its next alternative branch
         when its subsystem answers Unavailable; when off, wait out the
         outage retrying (ablation for the robustness experiments) *)
  twopc_retransmit : float;
      (* retransmission timer period of the 2PC coordinator: unanswered
         PREPARE/DECISION messages are re-sent this often *)
  twopc_inquiry : float option;
      (* participant-side termination protocol: an in-doubt participant
         re-inquires the coordinator after this long without a decision;
         [None] disables inquiries (the participant waits passively for
         coordinator retransmission) *)
  admission_engine : admission_engine;
  admission_clock : (unit -> float) option;
      (* wall-clock source for admission-latency metrics ("admission_time"
         observations); [None] (default) skips the measurement *)
  wal_sync : Wal.sync_policy;
      (* durability of the mirrored log: [Sync_each] (default) fsyncs
         every append that witnesses an effect or decides an outcome;
         [Group w] coalesces concurrent durable appends — 2PC commit
         decisions, process commits — into one fsync per [w]-long batch
         window; [No_sync] never fsyncs.  Irrelevant without
         [wal_path]. *)
  wal_segment_bytes : int;  (* segment roll size of the mirrored log *)
}

let default_config =
  {
    mode = Deferred;
    exact_admission = false;
    order = Strong;
    seed = 1;
    service_time = (fun _ -> 1.0);
    stochastic_times = false;
    backoff = default_backoff;
    invocation_timeout = None;
    outage_degrade = true;
    twopc_retransmit = 1.0;
    twopc_inquiry = Some 3.0;
    admission_engine = Incremental;
    admission_clock = None;
    wal_sync = Wal.Sync_each;
    wal_segment_bytes = 1 lsl 20;
  }

type phase =
  | Running
  | Blocked_2pc of {
      act : int;
      token : int;
    }
  | Deciding_2pc of {
      act : int;
      token : int;
      cid : int;
    }
      (* a 2PC coordinator instance is deciding the prepared activity: the
         process's fate for this activity is in the protocol's hands (the
         commit decision may already be durable), so abort paths must not
         touch the token *)
  | Recovering of Execution.t option
      (* executing completion activities.  [Some exec]: a branch switch,
         the process resumes at [exec] once they ran; [None]: the process
         terminates through them (an abort, or a failed branch with no
         alternative left) *)
  | Awaiting_commit
  | Done of {
      outcome : Execution.outcome;
      rolled_back : bool;  (* ended through a terminal rollback ([Recovering None]) *)
    }

(* Cached view of the services a process may still execute
   ([remaining_services] of the reference path), keyed on the engine
   state that determines it: recomputed only when the execution state,
   the in-flight activity or the prepared activity changed since. *)
type future_cache = {
  f_exec : Execution.t;  (* compared physically: every step makes a new value *)
  f_inflight : int option;
  f_placed : int option;
  f_bits : Tpm_core.Bitset.t;  (* interned services still executable *)
  f_conf : Tpm_core.Bitset.t;  (* their conflict closure (union of rows) *)
}

type pstate = {
  proc : Process.t;
  args_of : Activity.t -> Value.t;
  groups : Compose.group list;
      (* declared subprocesses (Section 3.6, multi-level composition):
         each admits as ONE activity at the parent level, against the
         union of its members' conflict rows *)
  admitted_groups : (string, string list) Hashtbl.t;
      (* gname -> the services its admission claimed (the reference
         engine's string-level mirror of the claimed occ bits) *)
  svc_ids : (int, int) Hashtbl.t;  (* activity number -> interned service id *)
  occ_bits : Tpm_core.Bitset.t;  (* interned services of [occurrences] *)
  occ_conf : Tpm_core.Bitset.t;  (* their conflict closure *)
  pending_bits : Tpm_core.Bitset.t;  (* services of [pending_completion] *)
  mutable future_cache : future_cache option;
  mutable exec : Execution.t;
  mutable phase : phase;
  mutable inflight : int option;
  mutable occurrences : Activity.instance list;  (* chronological, reversed *)
  mutable pending_completion : Activity.instance list;
  mutable completion_cache : (Execution.t * (bool * string) list) option;
      (* C(P) services (is_inverse, name) of the execution state it was
         computed from, compared physically like [future_cache]'s *)
  mutable arrived : float;
}

(* Candidate-independent part of the latent-edge computation (Section
   3.5): per-source conflict closures and per-source latent out-edge
   sets, maintained *incrementally*.  A mutation of process [p]'s
   admission-relevant state marks [p] dirty ([bump_pid]); the next
   admission re-derives only [p]'s closure, [p]'s out-edges and [p]'s
   membership in every other source's out-set — O(dirty × procs) bitset
   probes instead of a drop-everything-and-rescan O(procs²).  No event
   invalidates the base wholesale: a cached closure embeds conflict-matrix
   rows, and interning never changes an existing row (a service interned
   after [Compiled.make] is in no conflict pair).

   The topological order of the combined graph (stored dependency edges
   ∪ base latent edges) is kept as a state machine:
   [Order_valid pos] survives edge *removals* unconditionally (removing
   an edge never invalidates a topological order) and survives additions
   that run forward in [pos]; a backward addition degrades to
   [Order_stale], resolved by one DFS on the next cycle query.
   [Order_cyclic] survives additions and degrades to [Order_stale] on
   removals. *)
type order_state =
  | Order_stale  (* recompute on next cycle query *)
  | Order_cyclic  (* combined graph known cyclic; removals invalidate *)
  | Order_valid of (int, int) Hashtbl.t
      (* topological position of every non-aborted process; forward
         additions keep it, removals keep it, new nodes append at the end *)

type latent = {
  lt_dirty : (int, unit) Hashtbl.t;  (* pids whose state changed since the last patch *)
  lt_qconf : (int, Tpm_core.Bitset.t) Hashtbl.t;
      (* per-source conflict closure (occurrences ∪ in-flight ∪ prepared);
         key set = exactly the current sources (live ∪ committed, unretired) *)
  lt_out : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* per-source latent out-edges into live targets; same key set *)
  mutable lt_order : order_state;
  mutable lt_next_pos : int;  (* append position for newly registered pids *)
}

let latent_create () =
  {
    lt_dirty = Hashtbl.create 16;
    lt_qconf = Hashtbl.create 32;
    lt_out = Hashtbl.create 32;
    lt_order = Order_stale;
    lt_next_pos = 0;
  }

type t = {
  cfg : config;
  spec : Conflict.t;
  cspec : Conflict.Compiled.t;  (* interned bit-compiled conflict matrix *)
  faults : Faults.t;
  rms : (string, Rm.t) Hashtbl.t;
  sim : Des.t;
  rng : Prng.t;
  deps : Deps.t;
  wal : Wal.t;
  procs : (int, pstate) Hashtbl.t;
  mutable all_asc : pstate list option;  (* every pstate by pid; dropped at register *)
  mutable idx : pstate list;
      (* the index: every unretired pstate, in any order — retired ones
         linger until the next [index] rebuild filters them out *)
  mutable idx_asc : pstate list option;  (* [idx] unretired and by pid; dropped on change *)
  retired_conf : Tpm_core.Bitset.t;
      (* union of the conflict closures of the retired committed
         processes: what their latent out-edges would still hit *)
  mutable hist : Schedule.t;  (* the emitted schedule, appended at [emit] *)
  scratch : Tpm_core.Bitset.t;  (* per-admission working set (single-threaded) *)
  latent : latent;  (* incrementally maintained latent base *)
  metrics : Metrics.t;
  attempts : (int * int, int) Hashtbl.t;
  enforce : Enforce.t option;
      (* the Section-3.6 enforcement layer, present iff [order = Weak]:
         per-subsystem local executors holding local commits to the
         prescribed weak order *)
  enf_how : (int, [ `Invoke | `Prepare ]) Hashtbl.t;
      (* dispatch mode per token, for re-invocation after a weak-order
         restart *)
  mutable rollback_queue : (int * Activity.instance) list;
  mutable rollback_running : bool;
  crashed : bool ref;
      (* a ref, not a mutable field: the bus crash hook and the
         coordinator's halted probe capture it before [t] exists *)
  bus : Coordinator.msg Bus.t;
  coord : Coordinator.t;
  logf : Wal.record -> unit;
  mutable ckpt_seq : int;  (* checkpoint ids, unique per scheduler *)
  obs : Obs.Tracer.t;  (* per-instance tracer: no state leaks across schedulers *)
  mutable subsys_observer : (subsystem:string -> ok:bool -> unit) option;
      (* availability feedback for the serving layer's circuit breakers:
         [ok:false] on Unavailable / invocation timeout, [ok:true] on a
         successful subsystem answer *)
  mutable no_lemma1 : bool;  (* mutation hook, tests only: see [disable_lemma1] *)
  wakeup : Wakeup.t;  (* parked admission waiters and their invalidation stamps *)
}

let tracer t = t.obs

(* Free-form protocol trace lines become [Note] events on the tracer:
   with tracing disabled the format arguments are consumed without
   rendering (one branch, no allocation).  With tracing active,
   [kdprintf] captures the arguments in a printer closure without
   formatting them — the lazy renders only when a sink or forensics
   dump reads the note. *)
let tracef t fmt =
  if Obs.Tracer.active t.obs then
    Format.kdprintf
      (fun printer ->
        Obs.Tracer.emit t.obs (Obs.Note (lazy (Format.asprintf "%t" printer))))
      fmt
  else Format.ikfprintf ignore Format.err_formatter fmt

(* Compat for the removed global [trace] flag: [TPM_TRACE] (non-empty,
   non-"0") gives every scheduler created without an explicit tracer a
   stderr pretty-printing sink. *)
let tracer_from_env () =
  match Sys.getenv_opt "TPM_TRACE" with
  | Some v when v <> "" && v <> "0" ->
      Obs.Tracer.create ~sinks:[ Obs.Sink.stderr_pretty () ] ()
  | Some _ | None -> Obs.Tracer.disabled

(* An activity token packs [(pid, act)] into one int, decoded by
   [token / 1_000_000] and [token mod 1_000_000]; the decoding gives the
   pair back iff every id of the process is in this range, which
   [submit] demands. *)
let ids_in_range proc =
  let pid = Process.pid proc in
  0 <= pid
  && pid < max_int / 1_000_000
  && List.for_all
       (fun (a : Activity.t) ->
         let act = a.Activity.id.Activity.act in
         0 <= act && act < 1_000_000)
       (Process.activities proc)

let activity_token ~pid ~act = (pid * 1_000_000) + act

let create ?(config = default_config) ?(faults = Faults.none)
    ?(choice = Choice.passive) ?tracer ?wal_path ~spec ~rms () =
  let obs = match tracer with Some tr -> tr | None -> tracer_from_env () in
  let table = Hashtbl.create 8 in
  List.iter
    (fun rm ->
      if Hashtbl.mem table (Rm.name rm) then
        invalid_arg (Printf.sprintf "Scheduler.create: duplicate subsystem %s" (Rm.name rm));
      Hashtbl.replace table (Rm.name rm) rm;
      (* the scheduler is the single plug point for the fault plan and the
         decision strategy: every registered subsystem consults the same
         script and the same choice stream *)
      Rm.set_faults rm faults;
      Rm.set_choice rm choice)
    rms;
  let sim = Des.create () in
  Obs.Tracer.set_clock obs (fun () -> Des.now sim);
  let metrics = Metrics.create () in
  let wal =
    Wal.create ?path:wal_path ~sync:config.wal_sync ~segment_bytes:config.wal_segment_bytes ()
  in
  Wal.set_on_sync wal (fun batch ->
      Metrics.incr metrics "wal_fsyncs";
      Metrics.observe metrics "wal_batch" (float_of_int batch);
      if Obs.Tracer.active obs then Obs.Tracer.emit obs (Obs.Wal_fsync { batch }));
  Wal.set_lie_probe wal (fun () -> Faults.lying_fsync faults ~now:(Des.now sim));
  let crashed = ref false in
  (* the message layer draws from its own stream so enabling message
     faults never perturbs the scheduler's service-time / backoff draws *)
  let msg_rng = Prng.create ((config.seed * 31) + 7) in
  let bus = Bus.create ~sim ~rng:msg_rng ~metrics ~faults ~choice () in
  Bus.set_crash_hook bus (fun () -> crashed := true);
  if Obs.Tracer.active obs then
    Bus.set_tracer bus obs ~pp:(fun msg -> Format.asprintf "%a" Coordinator.pp_msg msg);
  (* delivery-order options are labelled "<dst>:c<cid>" — the explorer's
     dependence heuristic treats messages of distinct endpoints AND
     distinct 2PC instances as commuting *)
  Bus.set_choice_descr bus (fun ~dst msg ->
      let cid =
        match (msg : Coordinator.msg) with
        | Prepare { cid; _ }
        | Vote { cid; _ }
        | Decision { cid; _ }
        | Ack { cid; _ }
        | Inquiry { cid; _ } ->
            cid
      in
      Printf.sprintf "%s:c%d" dst cid);
  if Obs.Tracer.active obs then
    Choice.set_observer choice (fun (d : Choice.decision) ->
        Obs.Tracer.emit obs
          (Obs.Choice { tag = d.Choice.tag; arity = d.Choice.arity; chosen = d.Choice.chosen }));
  (* Every WAL append goes through here so the fault plan's crash trigger
     ("die right after the Nth append") fires at an exact, reproducible
     point.  The record that trips the trigger is still written — the
     crash happens after the append — and a crash silences the bus so no
     message outlives the scheduler. *)
  (* Group commit: under [Group w] appends buffer in the OS and one Des
     event per window fsyncs the whole batch, releasing every durability
     continuation (waiter) that accumulated meanwhile.  The flush event
     is armed at the first buffered append of a window, so quiescence
     always drains it. *)
  let waiters = ref [] in
  let flush_armed = ref false in
  let group_window =
    match (config.wal_sync, wal_path) with Wal.Group w, Some _ -> Some w | _ -> None
  in
  let rec arm_flush () =
    match group_window with
    | Some w when not !flush_armed ->
        flush_armed := true;
        Des.at sim (Des.now sim +. w) (fun _ ->
            flush_armed := false;
            if not !crashed then begin
              ignore (Wal.sync wal);
              let ks = List.rev !waiters in
              waiters := [];
              List.iter (fun k -> k ()) ks;
              (* a continuation may have appended again *)
              if Wal.pending wal > 0 || !waiters <> [] then arm_flush ()
            end)
    | Some _ | None -> ()
  in
  let logf record =
    if not !crashed then begin
      Wal.append wal record;
      if group_window <> None && Wal.pending wal > 0 then arm_flush ();
      if Obs.Tracer.active obs then
        Obs.Tracer.emit obs
          (Obs.Wal_append
             {
               index = Wal.size wal - 1;
               record = lazy (Format.asprintf "%a" Wal.pp_record record);
             });
      match Faults.crash_after faults with
      | Some n when Wal.size wal >= n ->
          crashed := true;
          Bus.halt bus
      | Some _ | None ->
          (* systematic crash placement: under a driven strategy with
             [crash_explore] set, every append is a potential crash point
             (the record just written survives, like the counted trigger) *)
          if
            Faults.crash_explore faults
            && (not (Choice.is_passive choice))
            && Choice.flag choice
                 ~tag:(Printf.sprintf "crash:%d" (Wal.size wal - 1))
                 ~default:(fun () -> false)
          then begin
            crashed := true;
            Bus.halt bus
          end
    end
  in
  (* [log_durable record k]: append and run [k] once the record is
     durable.  Synchronous policies are durable (or declaredly unsafe)
     when [append] returns; under group commit [k] waits for the batch
     window's fsync.  A crash drops pending continuations — their effects
     must not outlive the scheduler, exactly like undelivered messages. *)
  let log_durable record k =
    if not !crashed then begin
      logf record;
      match group_window with
      | Some _ ->
          if not !crashed then begin
            waiters := k :: !waiters;
            arm_flush ()
          end
      | None -> k ()
    end
  in
  (* Paged resource-manager stores plug into the same log: every store
     mutation appends a [Kv_write] through [logf] — so crash triggers,
     systematic crash placement and tracing all see it — and gets the
     record's LSN back to stamp its page.  The buffer pool's flush rule
     reads the honest durable marker (never the acked count: a lying
     fsync must not unlock a page write) and may force a sync when
     eviction finds only unflushable victims. *)
  List.iter
    (fun rm ->
      let store = Rm.store rm in
      if Store.is_paged store then
        Store.connect_wal store
          ~log:(fun key value ->
            logf (Wal.Kv_write { rm = Rm.name rm; key; value });
            Wal.size wal)
          ~durable_lsn:(fun () -> (Wal.stats wal).Wal.durable_records)
          ~force_durable:(fun () -> ignore (Wal.sync wal)))
    rms;
  let halted () = !crashed in
  Metrics.incr metrics ~by:0 "indoubt_resolved";
  let coord =
    Coordinator.create ~sim ~bus ~log:logf ~log_durable ~metrics ~tracer:obs
      ~retransmit_after:config.twopc_retransmit ~halted ()
  in
  List.iter
    (fun rm ->
      Coordinator.Participant.attach ~sim ~bus ~rm ~metrics
        ?inquiry_after:config.twopc_inquiry
        ~on_resolved:(fun ~token ~commit ->
          (* participant-side durable mark, written in the same synchronous
             block as the subsystem commit/abort of the token *)
          logf
            (Wal.Prepared_decided
               { pid = token / 1_000_000; act = token mod 1_000_000; commit }))
        ~halted ())
    rms;
  let deps = Deps.create () in
  if config.admission_engine = Checked then Deps.set_check deps true;
  let t =
    {
      cfg = config;
      spec;
      cspec = Conflict.Compiled.make spec;
      faults;
      rms = table;
      sim;
      rng = Prng.create config.seed;
      deps;
      wal;
      procs = Hashtbl.create 16;
      all_asc = None;
      idx = [];
      idx_asc = None;
      retired_conf = Bitset.create ();
      hist = Schedule.make ~spec ~procs:[] [];
      scratch = Bitset.create ();
      latent = latent_create ();
      metrics;
      attempts = Hashtbl.create 64;
      enforce = (match config.order with Weak -> Some (Enforce.create ()) | Strong -> None);
      enf_how = Hashtbl.create 32;
      rollback_queue = [];
      rollback_running = false;
      crashed;
      bus;
      coord;
      logf;
      ckpt_seq = 0;
      obs;
      subsys_observer = None;
      no_lemma1 = false;
      wakeup = Wakeup.create ();
    }
  in
  (* A retired process leaves the index and the latent base (its pid is
     marked dirty so the next patch drops its source side).  A committed
     one's closure joins [retired_conf]: it is final, since a retired
     process has nothing in flight or prepared.  No waiter is stamped —
     retirement changes no admission decision. *)
  Deps.set_on_retire deps (fun pid ->
      t.idx_asc <- None;
      Hashtbl.replace t.latent.lt_dirty pid ();
      match Hashtbl.find_opt t.procs pid with
      | Some ps when Deps.committed deps pid -> Bitset.union ~into:t.retired_conf ps.occ_conf
      | Some _ | None -> ());
  t

let now t = Des.now t.sim
let sim t = t.sim
let metrics t = t.metrics
let set_subsystem_observer t f = t.subsys_observer <- Some f
let wal_records t = Wal.records t.wal
let is_crashed t = !(t.crashed)
let msg_deliveries t = Bus.deliveries t.bus
let log t record = t.logf record

let rm_of t (a : Activity.t) =
  match Hashtbl.find_opt t.rms a.subsystem with
  | Some rm -> rm
  | None -> invalid_arg (Printf.sprintf "Scheduler: unknown subsystem %s" a.subsystem)

let rms t =
  List.sort
    (fun a b -> compare (Rm.name a) (Rm.name b))
    (Hashtbl.fold (fun _ rm acc -> rm :: acc) t.rms [])

let notify_subsys t rm ~ok =
  match t.subsys_observer with
  | None -> ()
  | Some f -> f ~subsystem:(Rm.name rm) ~ok

let by_pid a b = Int.compare (Process.pid a.proc) (Process.pid b.proc)

(* Every process ever registered, by pid: only the whole-history readers
   (the reference engine, fingerprints, checkpoints, dumps) walk it. *)
let pstates t =
  match t.all_asc with
  | Some l -> l
  | None ->
      let l = List.sort by_pid (Hashtbl.fold (fun _ ps acc -> ps :: acc) t.procs []) in
      t.all_asc <- Some l;
      l

(* The live index: live processes plus terminated ones that have not
   retired (see {!Deps.retired}), by pid.  Every per-event scan walks it,
   so per-event work tracks the live set, not the history. *)
let index t =
  match t.idx_asc with
  | Some l -> l
  | None ->
      let l =
        List.sort by_pid
          (List.filter (fun ps -> not (Deps.retired t.deps (Process.pid ps.proc))) t.idx)
      in
      t.idx <- l;
      t.idx_asc <- Some l;
      l

(* Every mutation of admission-relevant state (occurrences, in-flight /
   prepared activities, execution steps, pending completions, phases,
   terminations, registrations) must mark the mutated process dirty —
   the next admission re-derives exactly its latent contribution.  The
   differential stress (--check-admission) and {!latent_self_check}
   would catch a missed site as an engine divergence.  The same sites
   stamp the pid for the parked waiters ({!Wakeup}). *)
let bump_pid t pid =
  Wakeup.bump_pid t.wakeup pid;
  Hashtbl.replace t.latent.lt_dirty pid ()

(* A dependency edge joined the combined graph the topological order is
   maintained over.  Forward in a valid order: nothing to do.  Backward
   (or an endpoint unknown): the order is stale.  A cycle-closing
   completion edge always runs backward — deps alone already contain the
   opposite path — so it degrades to stale here and the next resolution
   answers cyclic, matching the from-scratch build. *)
let latent_dep_added t i j =
  match t.latent.lt_order with
  | Order_stale | Order_cyclic -> ()  (* additions cannot uncycle *)
  | Order_valid pos -> (
      match (Hashtbl.find_opt pos i, Hashtbl.find_opt pos j) with
      | Some pi, Some pj when pi < pj -> ()
      | _ -> t.latent.lt_order <- Order_stale)

(* A dependency edge left the combined graph (process abort).  A valid
   topological order survives any removal; a known-cyclic verdict does
   not, and neither does a park whose witness is a cycle through the
   removed edge.  (Additions need no stamp: a new edge or a new process
   only adds blockers and cycles, never removes a delay.) *)
let latent_dep_removed t =
  Wakeup.bump_all t.wakeup;
  match t.latent.lt_order with
  | Order_cyclic -> t.latent.lt_order <- Order_stale
  | Order_stale | Order_valid _ -> ()

let add_dep_edge t i j =
  Deps.add_edge t.deps i j;
  latent_dep_added t i j

let live ps = match ps.phase with Done _ -> false | _ -> true

(* live or committed: the process's occurrences still order the
   schedule — an aborted one left no effects *)
let not_aborted ps =
  match ps.phase with Done { outcome = Execution.Aborted; _ } -> false | _ -> true

(* the process terminates, or terminated, through its completion *)
let aborting ps =
  match ps.phase with Recovering None | Done { rolled_back = true; _ } -> true | _ -> false

let duration t (a : Activity.t) =
  let mean = t.cfg.service_time a.Activity.service in
  let mean =
    mean *. Faults.latency_factor t.faults ~subsystem:a.Activity.subsystem ~now:(now t)
  in
  if t.cfg.stochastic_times then Prng.exponential t.rng ~mean else mean

(* Capped exponential backoff: attempt 1 waits [base], doubling (by
   [multiplier]) up to [cap], with optional symmetric jitter.  The jitter
   draw is skipped entirely at [jitter = 0] so the default config perturbs
   no rng stream. *)
let backoff_delay t ~pid ~act ~attempt =
  let b = t.cfg.backoff in
  let d = Float.min b.cap (b.base *. (b.multiplier ** float_of_int (attempt - 1))) in
  let d =
    if b.jitter > 0.0 then
      d *. (1.0 -. b.jitter +. (2.0 *. b.jitter *. Prng.float t.rng 1.0))
    else d
  in
  Metrics.observe t.metrics "backoff_wait" d;
  if Obs.Tracer.active t.obs then
    Obs.Tracer.emit t.obs (Obs.Backoff { pid; act; attempt; delay = d });
  d

(* Transient-failure attempts granted to a non-retriable activity before
   the scheduler degrades to an alternative branch.  The derived default
   stays strictly below the RM's finite retry bound (Definition 3), so a
   persistently failing pivot is decided by degradation, never by the
   bound's forced success. *)
let max_transient_attempts t rm =
  match t.cfg.backoff.max_attempts with
  | Some n -> max 1 n
  | None -> max 1 (Rm.max_failures rm - 1)

let sid t s = Conflict.Compiled.intern t.cspec s
let instance_service inst = (Activity.instance_base inst).Activity.service

let emit t ev =
  (match ev with
  | Schedule.Act inst -> bump_pid t (Activity.instance_proc inst)
  | Schedule.Commit pid | Schedule.Abort pid -> bump_pid t pid
  | Schedule.Group_abort pids -> List.iter (bump_pid t) pids);
  t.hist <- Schedule.append t.hist ev;
  if Obs.Tracer.active t.obs then
    Obs.Tracer.emit t.obs
      (match ev with
      | Schedule.Act inst ->
          let a = Activity.instance_base inst in
          Obs.Occurrence
            {
              pid = a.Activity.id.Activity.proc;
              act = a.Activity.id.Activity.act;
              service = a.Activity.service;
              inverse = Activity.is_inverse inst;
            }
      | Schedule.Commit pid -> Obs.Commit pid
      | Schedule.Abort pid -> Obs.Abort pid
      | Schedule.Group_abort pids -> Obs.Group_abort pids);
  match ev with
  | Schedule.Act inst -> (
      match Hashtbl.find_opt t.procs (Activity.instance_proc inst) with
      | Some ps ->
          ps.occurrences <- inst :: ps.occurrences;
          let k = sid t (instance_service inst) in
          Bitset.set ps.occ_bits k;
          Bitset.union ~into:ps.occ_conf (Conflict.Compiled.row t.cspec k)
      | None -> ())
  | Schedule.Commit _ | Schedule.Abort _ | Schedule.Group_abort _ -> ()

let history t = t.hist

(* the enforcement layer's live per-subsystem local schedules (empty
   under the strong order) — what the composite checkers consume *)
let local_histories t =
  match t.enforce with Some e -> Enforce.locals e | None -> []

let enforcement_held t =
  match t.enforce with Some e -> Enforce.held_count e | None -> 0

let status t pid =
  match Hashtbl.find_opt t.procs pid with
  | None -> Schedule.Active
  | Some { phase = Done { outcome = Execution.Committed; _ }; _ } -> Schedule.Committed
  | Some { phase = Done { outcome = Execution.Aborted; _ }; _ } -> Schedule.Aborted
  | Some _ -> Schedule.Active

let finished t = List.for_all (fun ps -> not (live ps)) (index t)

(* Canonical rendering of the explorable state: per-process phase,
   in-flight / pending work and execution position, the rollback queue,
   attempt counters, every subsystem's {!Rm.fingerprint}, the 2PC
   coordinator's protocol state, and the bus's undelivered pool.  Two
   branches with equal fingerprints behave identically under identical
   future decisions, so the explorer prunes the second — with one
   deliberate coarsening: virtual time is excluded (states differing
   only in clock value are merged; sound for the oracles checked, which
   are all time-independent). *)
let state_fingerprint t =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun ps ->
      add "P%d:" (Process.pid ps.proc);
      (match ps.phase with
      | Running -> add "run"
      | Blocked_2pc { act; token } -> add "b2pc(%d,%d)" act token
      | Deciding_2pc { act; token; cid } -> add "d2pc(%d,%d,%d)" act token cid
      | Recovering _ -> add "rec"
      | Awaiting_commit -> add "await"
      | Done { outcome; _ } ->
          add "done(%s)" (match outcome with Execution.Committed -> "C" | Execution.Aborted -> "A"));
      (match ps.inflight with None -> () | Some act -> add ",in%d" act);
      if aborting ps then add ",ab";
      add ",x[";
      List.iter
        (fun inst -> add "%s;" (Format.asprintf "%a" Activity.pp_instance inst))
        (List.rev ps.occurrences);
      add "],e[";
      List.iter
        (fun step -> add "%s;" (Format.asprintf "%a" Execution.pp_step step))
        (Execution.trace ps.exec);
      add "],c[";
      List.iter
        (fun inst -> add "%s;" (Format.asprintf "%a" Activity.pp_instance inst))
        ps.pending_completion;
      add "]|")
    (pstates t);
  add "rb[";
  List.iter
    (fun (pid, inst) ->
      add "%d:%s;" pid (Format.asprintf "%a" Activity.pp_instance inst))
    t.rollback_queue;
  add "]at[";
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.attempts []
  |> List.sort compare
  |> List.iter (fun ((pid, act), n) -> add "%d.%d=%d;" pid act n);
  add "]";
  List.iter (fun rm -> add "{%s}" (Rm.fingerprint rm)) (rms t);
  add "{%s}" (Coordinator.fingerprint t.coord);
  add "bus[%s]" (Bus.pending_summary t.bus);
  add ";q%d" (Des.pending t.sim);
  if !(t.crashed) then add ";CRASHED";
  Buffer.contents b

let next_attempt t pid act =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.attempts (pid, act)) in
  Hashtbl.replace t.attempts (pid, act) n;
  n

(* ------------------------------------------------------------------ *)
(* Conflict queries — interned services, bitmatrix rows, cached bitsets *)

let services_conflict t s s' = Conflict.Compiled.conflict t.cspec (sid t s) (sid t s')

let occurrence_conflicts t ps service =
  Bitset.inter_nonempty (Conflict.Compiled.row t.cspec (sid t service)) ps.occ_bits

let inflight_conflict t ps service =
  match ps.inflight with
  | None -> false
  | Some act -> services_conflict t service (Process.find ps.proc act).Activity.service

(* How many live processes hold state conflicting with [service]: an
   occurrence (tested against the cached conflict closure) or a
   conflicting in-flight invocation.  The serving layer probes this to
   decide whether a submission's preferred branch is saturated. *)
let service_pressure t service =
  let id = sid t service in
  List.fold_left
    (fun n ps ->
      if live ps && (Bitset.mem ps.occ_conf id || inflight_conflict t ps service) then
        n + 1
      else n)
    0 (index t)

let placed_act ps =
  match ps.phase with
  | Blocked_2pc { act; _ } | Deciding_2pc { act; _ } -> Some act
  | Running | Recovering _ | Awaiting_commit | Done _ -> None

let inflight_sid ps = Option.map (Hashtbl.find ps.svc_ids) ps.inflight
let prepared_sid ps = Option.map (Hashtbl.find ps.svc_ids) (placed_act ps)

(* does the conflict row meet the process's in-flight or prepared
   activity?  One bit probe each. *)
let placed_conflicts_bits ps ~row =
  (match inflight_sid ps with Some k -> Bitset.mem row k | None -> false)
  || match prepared_sid ps with Some k -> Bitset.mem row k | None -> false

(* busy test against the candidate's conflict row.  Under the weak order
   (Section 3.6) a conflicting in-flight or prepared (2PC-pending)
   activity does not block: the enforcement layer holds the dependent's
   local commit behind it instead.  Pending completions always block. *)
let busy_conflicts_bits t ps ~row =
  Bitset.inter_nonempty row ps.pending_bits
  || (t.cfg.order = Strong && placed_conflicts_bits ps ~row)

(* Exact conflict-pair footprint of a service for the enforcement-layer
   Local histories: one shared item per conflicting service pair (the
   name "s|s'" with the sides sorted), written by both sides — so two
   local transactions conflict at their subsystem iff their services
   conflict in the global specification. *)
let enf_ops t service =
  let row = Conflict.Compiled.row t.cspec (sid t service) in
  List.rev_map
    (fun j ->
      let s' = Conflict.Compiled.name t.cspec j in
      let item = if service <= s' then service ^ "|" ^ s' else s' ^ "|" ^ service in
      (item, `Write))
    (Bitset.elements row)

(* the pending-completion services mirror [pending_completion]; every
   assignment site goes through here *)
let set_pending t ps insts =
  bump_pid t (Process.pid ps.proc);
  ps.pending_completion <- insts;
  Bitset.clear ps.pending_bits;
  List.iter (fun inst -> Bitset.set ps.pending_bits (sid t (instance_service inst))) insts

(* the services this process may still execute (and their conflict
   closure), recomputed only when the determining state changed: the
   in-flight / prepared activity is already accounted for as an
   occurrence-to-be, it is not part of the open future *)
let future_of t ps =
  let placed = placed_act ps in
  match ps.future_cache with
  | Some c when c.f_exec == ps.exec && c.f_inflight = ps.inflight && c.f_placed = placed
    ->
      c
  | Some _ | None ->
      let bits = Bitset.create () and conf = Bitset.create () in
      let executed = Execution.executed ps.exec in
      List.iter
        (fun n ->
          if
            (not (List.mem n executed))
            && ps.inflight <> Some n
            && placed <> Some n
          then begin
            let k = Hashtbl.find ps.svc_ids n in
            Bitset.set bits k;
            Bitset.union ~into:conf (Conflict.Compiled.row t.cspec k)
          end)
        (Process.activity_ids ps.proc);
      let c =
        { f_exec = ps.exec; f_inflight = ps.inflight; f_placed = placed; f_bits = bits; f_conf = conf }
      in
      ps.future_cache <- Some c;
      c

(* services of C(P), tagged by direction; cached until the engine state
   changes *)
let potential_completion ps =
  match ps.completion_cache with
  | Some (exec, l) when exec == ps.exec -> l
  | Some _ | None ->
      let l =
        match Execution.status ps.exec with
        | Execution.Finished _ -> []
        | Execution.Running ->
            List.map
              (fun inst -> (Activity.is_inverse inst, instance_service inst))
              (Execution.completion ps.exec)
      in
      ps.completion_cache <- Some (ps.exec, l);
      l

(* Quasi-commit condition (figure 9): every uncommitted predecessor is
   forward-recoverable and its possible completion does not conflict with
   anything this process may still execute.  The candidate's closure is
   unioned into the future closure; each predecessor then costs one bit
   probe per completion service.  Under the weak order a predecessor's
   conflicting in-flight or prepared activity also disqualifies it: once
   executed, its compensation joins a completion that was computed
   without it. *)
let quasi_ok_bits t preds ~row ps =
  let my_conf = t.scratch in
  Bitset.assign ~into:my_conf (future_of t ps).f_conf;
  Bitset.union ~into:my_conf row;
  List.for_all
    (fun i ->
      match Hashtbl.find_opt t.procs i with
      | None -> false
      | Some qs ->
          Execution.recovery_state qs.exec = Execution.F_rec
          && (not
                (List.exists (fun (_, s) -> Bitset.mem my_conf (sid t s)) (potential_completion qs)))
          && (not (Bitset.inter_nonempty my_conf qs.pending_bits))
          && not (t.cfg.order = Weak && placed_conflicts_bits qs ~row:my_conf))
    preds

(* ------------------------------------------------------------------ *)
(* Latent base — incremental maintenance *)

let latent_sources t = List.filter not_aborted (index t)

(* a source's conflict closure: occurrences ∪ in-flight row ∪ prepared
   row, written over [into] (surplus bits zeroed by [Bitset.assign]) *)
let latent_qconf_into t q ~into =
  Bitset.assign ~into q.occ_conf;
  (match inflight_sid q with
  | Some k -> Bitset.union ~into (Conflict.Compiled.row t.cspec k)
  | None -> ());
  match prepared_sid q with
  | Some k -> Bitset.union ~into (Conflict.Compiled.row t.cspec k)
  | None -> ()

(* the latent-edge predicate: does [qconf] meet target [r]'s open future
   or pending completions? *)
let latent_hits t qconf r =
  Bitset.inter_nonempty qconf (future_of t r).f_bits
  || Bitset.inter_nonempty qconf r.pending_bits

(* Patch the base for the dirty pids only.  Pass 1 re-derives each dirty
   pid's source side (closure + out-edges against all live targets, or
   removal if no longer a source); pass 2 reconciles each dirty pid's
   target side against every clean source's closure (a dirty source's
   out-edges are pass 1's, already fresh — so a patch with every pid
   dirty costs one from-scratch derivation).  Edges with no dirty
   endpoint are untouched: their predicate inputs did not change (that is
   the invalidation contract of [bump_pid]).  The order state machine
   absorbs the diff: removals keep a valid order valid, additions keep it
   if they run forward. *)
let latent_patch t lt =
  Metrics.incr t.metrics "latent_patches";
  let lives = List.filter live (index t) in
  let removed = ref false in
  let added = ref [] in
  Hashtbl.iter
    (fun p () ->
      match Hashtbl.find_opt t.procs p with
      | None -> ()
      | Some ps ->
          if
            (not (Deps.retired t.deps p)) && not_aborted ps
          then begin
            let qconf =
              match Hashtbl.find_opt lt.lt_qconf p with
              | Some b -> b
              | None ->
                  let b = Bitset.create () in
                  Hashtbl.replace lt.lt_qconf p b;
                  b
            in
            latent_qconf_into t ps ~into:qconf;
            let old =
              match Hashtbl.find_opt lt.lt_out p with
              | Some h -> h
              | None -> Hashtbl.create 1
            in
            let fresh = Hashtbl.create (max 4 (Hashtbl.length old)) in
            List.iter
              (fun r ->
                let rid = Process.pid r.proc in
                if rid <> p && latent_hits t qconf r then begin
                  Hashtbl.replace fresh rid ();
                  if not (Hashtbl.mem old rid) then added := (p, rid) :: !added
                end)
              lives;
            if not !removed then
              Hashtbl.iter
                (fun rid () -> if not (Hashtbl.mem fresh rid) then removed := true)
                old;
            Hashtbl.replace lt.lt_out p fresh
          end
          else begin
            (match Hashtbl.find_opt lt.lt_out p with
            | Some h -> if Hashtbl.length h > 0 then removed := true
            | None -> ());
            Hashtbl.remove lt.lt_out p;
            Hashtbl.remove lt.lt_qconf p
          end)
    lt.lt_dirty;
  Hashtbl.iter
    (fun p () ->
      match Hashtbl.find_opt t.procs p with
      | None -> ()
      | Some ps ->
          let is_target = live ps in
          Hashtbl.iter
            (fun qid qconf ->
              if qid <> p && not (Hashtbl.mem lt.lt_dirty qid) then begin
                let out = Hashtbl.find lt.lt_out qid in
                if is_target && latent_hits t qconf ps then begin
                  if not (Hashtbl.mem out p) then begin
                    Hashtbl.replace out p ();
                    added := (qid, p) :: !added
                  end
                end
                else if Hashtbl.mem out p then begin
                  Hashtbl.remove out p;
                  removed := true
                end
              end)
            lt.lt_qconf)
    lt.lt_dirty;
  Hashtbl.reset lt.lt_dirty;
  match lt.lt_order with
  | Order_stale -> ()
  | Order_cyclic -> if !removed then lt.lt_order <- Order_stale
  | Order_valid pos ->
      let forward (i, j) =
        match (Hashtbl.find_opt pos i, Hashtbl.find_opt pos j) with
        | Some pi, Some pj -> pi < pj
        | _ -> false
      in
      if not (List.for_all forward !added) then lt.lt_order <- Order_stale

(* bring the base up to date; O(1) when nothing changed since the last
   admission (the common case inside a burst) *)
let latent_base t =
  let lt = t.latent in
  if Hashtbl.length lt.lt_dirty > 0 then latent_patch t lt;
  lt

(* the live targets of the latent edges retired sources would still
   have: the base drops retired sources, [retired_conf] stands in for
   them when a delay reports its blockers *)
let retired_hits t =
  List.filter_map
    (fun r -> if live r && latent_hits t t.retired_conf r then Some (Process.pid r.proc) else None)
    (index t)

(* delays report live blockers only *)
let live_pids t pids =
  List.filter
    (fun q -> match Hashtbl.find_opt t.procs q with Some ps -> live ps | None -> false)
    pids

(* a delay's explain payload: its witness minus the waiter, live, sorted *)
let witness_payload t pid witness =
  live_pids t (List.sort_uniq compare (List.filter (fun q -> q <> pid) witness))

(* the endpoints of the base edges, unsorted and with repeats: a full
   delay list holds the endpoints of [new_edges @ latent] as blockers,
   sorted once by its caller.  Folded on demand — only the stall check,
   the [Checked] engine and a [Base_cyclic] delay read it. *)
let latent_endpoints lt =
  Hashtbl.fold
    (fun q out acc ->
      if Hashtbl.length out = 0 then acc
      else q :: Hashtbl.fold (fun r () acc -> r :: acc) out acc)
    lt.lt_out []

(* combined-graph adjacency, walked live: stored dependency edges ∪ base
   latent edges *)
let latent_succ_iter t lt n f =
  Deps.iter_succs t.deps n f;
  match Hashtbl.find_opt lt.lt_out n with
  | Some h -> Hashtbl.iter (fun r () -> f r) h
  | None -> ()

(* resolve [Order_stale]: one DFS over deps ∪ base from every source.
   Every unretired live or committed process is a source, so every node
   the combined graph can route a cycle through ends up with a position
   — newly registered pids are appended at [lt_next_pos]. *)
let latent_resolve_order t lt =
  match lt.lt_order with
  | Order_valid pos -> Some pos
  | Order_cyclic -> None
  | Order_stale ->
      let color = Hashtbl.create 64 in
      let rev = ref [] in
      let cyclic = ref false in
      let rec visit n =
        match Hashtbl.find_opt color n with
        | Some `Gray -> cyclic := true
        | Some `Black -> ()
        | None ->
            Hashtbl.replace color n `Gray;
            latent_succ_iter t lt n visit;
            Hashtbl.replace color n `Black;
            rev := n :: !rev
      in
      List.iter (fun q -> visit (Process.pid q.proc)) (latent_sources t);
      if !cyclic then begin
        lt.lt_order <- Order_cyclic;
        None
      end
      else begin
        let pos = Hashtbl.create 64 in
        let i = ref 0 in
        List.iter
          (fun n ->
            Hashtbl.replace pos n !i;
            incr i)
          !rev;
        lt.lt_next_pos <- !i;
        lt.lt_order <- Order_valid pos;
        Some pos
      end

(* Is deps ∪ base ∪ extras cyclic?  Every extra edge is incident to the
   candidate [pid], so when the combined graph is acyclic a new cycle
   must pass through [pid]: all-forward extras in the maintained order is
   an O(extras) "no", otherwise one DFS from [pid]'s successors decides.
   A cycle the DFS finds is returned as the nodes on it besides [pid]:
   each of its edges is a stored dependency edge, a base latent edge or
   an extra, and each of those depends only on its endpoints' state, so
   the cycle persists while none of those nodes (nor [pid]) changes and
   no edge is removed — the parked waiter's witness. *)
type cycle_verdict =
  | Acyclic
  | Base_cyclic  (* deps ∪ base cyclic already: no candidate-specific witness *)
  | Cycle_through of int list

let latent_would_cycle t lt ~pid extras =
  match latent_resolve_order t lt with
  | None -> Base_cyclic
  | Some pos ->
      let posv n = Option.value ~default:max_int (Hashtbl.find_opt pos n) in
      if List.for_all (fun (i, j) -> posv i < posv j) extras then Acyclic
      else begin
        let into = Hashtbl.create 8 in
        List.iter (fun (i, j) -> if j = pid && i <> pid then Hashtbl.replace into i ()) extras;
        let seen = Hashtbl.create 32 in
        let path = ref [] in
        let exception Found of int list in
        let rec go n =
          if n = pid then raise (Found !path);
          if not (Hashtbl.mem seen n) then begin
            Hashtbl.replace seen n ();
            if Hashtbl.mem into n then raise (Found (n :: !path));
            path := n :: !path;
            latent_succ_iter t lt n go;
            path := List.tl !path
          end
        in
        try
          List.iter (fun (i, j) -> if i = pid then go j) extras;
          latent_succ_iter t lt pid go;
          Acyclic
        with Found nodes -> Cycle_through nodes
      end

type admission =
  | Admit_invoke
  | Admit_prepare
  | Delay of int list  (* the processes we wait for *)

(* the candidate occurrence appended to the history must leave the prefix
   reducible (its completed schedule serializable after cancellation);
   O(1) to build thanks to the incremental [hist] *)
let exact_ok t (a : Activity.t) =
  Criteria.red (Schedule.append t.hist (Schedule.Act (Activity.Forward a)))

(* Lemma 1 defers a non-compensatable activity only behind conflicting
   predecessors that have not committed yet.  A committed source of a new
   edge still orders the schedule (the edge is recorded), but there is no
   commit left to wait for. *)
let lemma1_preds t pid new_edges =
  List.sort_uniq compare
    (Deps.uncommitted_preds t.deps pid
    @ List.filter_map
        (fun (i, _) -> if Deps.committed t.deps i then None else Some i)
        new_edges)

(* Admission is split into pure decision functions returning the decision
   plus the dependency edges to record, applied by [admission] below only
   when the activity is admitted — so the incremental engine and the
   reference oracle can be run side by side on identical state.  The
   incremental engine additionally returns the {!Obs.reason} code of its
   decision (the explain payload) and, for a delay, its witness: pids
   whose unchanged state proves the delay still holds ([None] when no
   such set is known — the waiter is then re-asked on every wake pass).
   A delay carries {!witness_payload} as its blockers where it has a
   witness; [~full:true] (the stall check, the [Checked] engine) asks for
   the full wait-for blockers, which a witnessless delay always carries.
   The reference oracle is kept verbatim, full-history, and the [Checked]
   engine compares decisions and edges only, under the retirement
   contract: delay blockers as live pids, edges from unretired sources. *)

let admission_decision ?(full = false) t pid act =
  let ps = Hashtbl.find t.procs pid in
  let a = Process.find ps.proc act in
  let sidc = Hashtbl.find ps.svc_ids act in
  let group = Compose.group_of ps.groups act in
  let member_admitted =
    match group with
    | Some g -> Hashtbl.mem ps.admitted_groups g.Compose.gname
    | None -> false
  in
  (* The admission footprint: the activity's own conflict row — or, for
     the first member of a not-yet-admitted subprocess group, the union
     of every member's row (Section 3.6: the subprocess admits as ONE
     activity at the parent level).  Members of an already-admitted group
     skip the busy / cycle checks entirely: the group's footprint was
     claimed atomically at admission, so its serialization position is
     fixed and the inner engine schedules the children freely. *)
  let gsids =
    match group with
    | Some g when not member_admitted ->
        List.map (fun s -> sid t s) (Compose.services ps.proc g)
    | Some _ | None -> [ sidc ]
  in
  let crow =
    match gsids with
    | [ k ] -> Conflict.Compiled.row t.cspec k
    | ks ->
        let b = Bitset.create () in
        List.iter (fun k -> Bitset.union ~into:b (Conflict.Compiled.row t.cspec k)) ks;
        b
  in
  let busy q = Process.pid q.proc <> pid && live q && busy_conflicts_bits t q ~row:crow in
  (* Busy is checked first: while the first blocker is unchanged it still
     busy-conflicts, so the delay holds whatever else moves *)
  match if member_admitted then None else List.find_opt busy (index t) with
  | Some b ->
      let blockers = if full then List.filter busy (index t) else [ b ] in
      let pids = List.map (fun q -> Process.pid q.proc) in
      (Delay (pids blockers), [], Obs.Busy, Some (pids [ b ]))
  | None ->
    let new_edges =
      if member_admitted then []
      else
        List.filter_map
          (fun q ->
            let qid = Process.pid q.proc in
            (* committed processes still constrain the serialization order;
               aborted ones left no effects *)
            if
              qid <> pid
              && ((not_aborted q && Bitset.inter_nonempty crow q.occ_bits)
                 || (t.cfg.order = Weak && live q && placed_conflicts_bits q ~row:crow))
            then Some (qid, pid)
            else None)
          (index t)
    in
    let admit_reason () = if new_edges = [] then Obs.Clear else Obs.Ordered in
    (* Latent edges (Section 3.5): an occurrence of [q] conflicting with a
       service [r] may still execute (remaining activities of any branch,
       which include the forward completion activities) will order [q]
       before [r] in the completed schedule.  Admission must keep the
       graph acyclic including these inevitable-future edges — no
       SOT-like criterion exists, the completed schedule must be
       considered.  The candidate-independent bulk comes from the cached
       [latent_base]; only the edges the candidate itself induces (its
       conflict row against other futures, its service against other
       closures) are computed here, O(n) bitset probes per admission. *)
    let would, all_latent =
      if member_admitted then (Acyclic, lazy [])
      else if t.cfg.mode = Naive_sr then
        ((if Deps.would_cycle t.deps new_edges then Base_cyclic else Acyclic), lazy [])
      else begin
        let c = latent_base t in
        (* the candidate's row widens its process's closure: extra edges
           pid -> r wherever crow meets r's future or pending services *)
        let extra_out =
          List.filter_map
            (fun r ->
              let rid = Process.pid r.proc in
              if rid = pid || not (live r) then None
              else if
                Bitset.inter_nonempty crow (future_of t r).f_bits
                || Bitset.inter_nonempty crow r.pending_bits
              then Some (pid, rid)
              else None)
            (index t)
        in
        (* the candidate's service joins its process's future: extra edges
           q -> pid wherever q's closure contains it *)
        let extra_in =
          Hashtbl.fold
            (fun qid qconf acc ->
              if qid <> pid && List.exists (fun k -> Bitset.mem qconf k) gsids then
                (qid, pid) :: acc
              else acc)
            c.lt_qconf []
        in
        ( latent_would_cycle t c ~pid (new_edges @ extra_out @ extra_in),
          (* endpoint set only, materialized for blocker reporting on the
             full-blockers Delay paths *)
          lazy
            (latent_endpoints c
            @ List.concat_map (fun (i, j) -> [ i; j ]) (extra_out @ extra_in)
            @ retired_hits t) )
      end
    in
    match would with
    | Cycle_through nodes when not full ->
        (Delay (witness_payload t pid nodes), [], Obs.Would_cycle, Some nodes)
    | Base_cyclic | Cycle_through _ ->
        (* wait for the live processes involved in the would-be cycle *)
        let blockers =
          List.concat_map (fun (i, j) -> [ i; j ]) new_edges @ Lazy.force all_latent
          |> List.filter (fun q -> q <> pid)
          |> List.sort_uniq compare |> live_pids t
        in
        let witness =
          match would with Cycle_through nodes -> Some nodes | Base_cyclic | Acyclic -> None
        in
        (Delay blockers, [], Obs.Would_cycle, witness)
    | Acyclic ->
        if t.cfg.mode = Naive_sr then
          (* serializability-only: admit immediately, never gate on recovery *)
          (Admit_invoke, new_edges, admit_reason (), None)
        else if t.cfg.exact_admission && not (exact_ok t a) then
          ( Delay (live_pids t (List.sort_uniq compare (List.map fst new_edges))),
            [],
            Obs.Exact_reject,
            None )
        else if Activity.non_compensatable a && not t.no_lemma1 then begin
          let preds = lemma1_preds t pid new_edges in
          if preds = [] then (Admit_invoke, new_edges, admit_reason (), None)
          else
            match t.cfg.mode with
            | Conservative ->
                (* an unchanged predecessor stays a live predecessor: a
                   stored edge leaves only by removal, and its source's
                   commit or abort stamps it *)
                (Delay preds, [], Obs.Conservative_wait, Some preds)
            | Deferred -> (Admit_prepare, new_edges, Obs.Deferred_prepare, None)
            | Quasi ->
                if quasi_ok_bits t preds ~row:crow ps then
                  (Admit_invoke, new_edges, Obs.Quasi_commit, None)
                else (Admit_prepare, new_edges, Obs.Deferred_prepare, None)
            | Naive_sr -> assert false (* admitted before the Lemma-1 gate *)
        end
        else (Admit_invoke, new_edges, admit_reason (), None)

(* The pre-incremental admission path, kept verbatim (string-keyed
   conflict tests over the raw spec, per-pair future recomputation,
   full-graph cycle detection) as the differential-testing oracle and the
   "old" arm of bench P11.  Pure like [admission_decision]. *)
module Reference = struct
  let services_conflict t s s' = Conflict.services_conflict t.spec s s'
  let claimed_services ps = Hashtbl.fold (fun _ svcs acc -> svcs @ acc) ps.admitted_groups []

  let occurrence_conflicts t ps service =
    List.exists (fun inst -> services_conflict t service (instance_service inst)) ps.occurrences
    || List.exists (fun cs -> services_conflict t service cs) (claimed_services ps)

  let inflight_conflict t ps service =
    match ps.inflight with
    | None -> false
    | Some act -> services_conflict t service (Process.find ps.proc act).Activity.service

  let prepared_conflict t ps service =
    match ps.phase with
    | Blocked_2pc { act; _ } | Deciding_2pc { act; _ } ->
        services_conflict t service (Process.find ps.proc act).Activity.service
    | Running | Recovering _ | Awaiting_commit | Done _ -> false

  let placed_conflict t ps service =
    inflight_conflict t ps service || prepared_conflict t ps service

  let busy_conflicts t ps service =
    List.exists
      (fun inst -> services_conflict t service (instance_service inst))
      ps.pending_completion
    || (t.cfg.order = Strong && placed_conflict t ps service)

  let remaining_services ps =
    let executed = Execution.executed ps.exec in
    let placed n =
      ps.inflight = Some n
      ||
      match ps.phase with
      | Blocked_2pc { act; _ } | Deciding_2pc { act; _ } -> act = n
      | _ -> false
    in
    Process.activity_ids ps.proc
    |> List.filter (fun n -> (not (List.mem n executed)) && not (placed n))
    |> List.map (fun n -> (Process.find ps.proc n).Activity.service)

  let completion_services ps =
    List.map snd (potential_completion ps) @ List.map instance_service ps.pending_completion

  let quasi_ok t preds pid service =
    let my_future =
      match Hashtbl.find_opt t.procs pid with
      | None -> [ service ]
      | Some ps -> service :: remaining_services ps
    in
    List.for_all
      (fun i ->
        match Hashtbl.find_opt t.procs i with
        | None -> false
        | Some qs ->
            Execution.recovery_state qs.exec = Execution.F_rec
            && (not
                  (List.exists
                     (fun cs -> List.exists (fun ms -> services_conflict t cs ms) my_future)
                     (completion_services qs)))
            && not
                 (t.cfg.order = Weak
                 && List.exists (fun ms -> placed_conflict t qs ms) my_future))
      preds

  let exact_ok t (a : Activity.t) =
    let hypothetical =
      Schedule.make ~spec:t.spec
        ~procs:(List.map (fun ps -> ps.proc) (pstates t))
        (Schedule.events t.hist @ [ Schedule.Act (Activity.Forward a) ])
    in
    Criteria.red hypothetical

  let admission_decision t pid act =
    let ps = Hashtbl.find t.procs pid in
    let a = Process.find ps.proc act in
    let service = a.Activity.service in
    let group = Compose.group_of ps.groups act in
    let member_admitted =
      match group with
      | Some g -> Hashtbl.mem ps.admitted_groups g.Compose.gname
      | None -> false
    in
    (* string-level mirror of the incremental engine's group handling:
       an un-admitted group's candidate footprint is every member service *)
    let gservices =
      match group with
      | Some g when not member_admitted -> Compose.services ps.proc g
      | Some _ | None -> [ service ]
    in
    let others = List.filter (fun q -> Process.pid q.proc <> pid) (pstates t) in
    let busy_blockers =
      if member_admitted then []
      else
        List.filter_map
          (fun q ->
            if live q && List.exists (fun s -> busy_conflicts t q s) gservices then
              Some (Process.pid q.proc)
            else None)
          others
    in
    if busy_blockers <> [] then (Delay busy_blockers, [])
    else begin
      let new_edges =
        if member_admitted then []
        else
          List.filter_map
            (fun q ->
              let qid = Process.pid q.proc in
              if
                List.exists
                  (fun s ->
                    (not_aborted q && occurrence_conflicts t q s)
                    || (t.cfg.order = Weak && live q && placed_conflict t q s))
                  gservices
              then Some (qid, pid)
              else None)
            others
      in
      let latent_edges =
        if member_admitted || t.cfg.mode = Naive_sr then []
        else begin
          let lives = List.filter live (pstates t) in
          List.concat_map
            (fun q ->
              let qid = Process.pid q.proc in
              let q_occurrences =
                let base =
                  List.map instance_service q.occurrences @ claimed_services q
                in
                let base =
                  match q.inflight with
                  | Some act -> (Process.find q.proc act).Activity.service :: base
                  | None -> base
                in
                let base =
                  match q.phase with
                  | Blocked_2pc { act; _ } | Deciding_2pc { act; _ } ->
                      (Process.find q.proc act).Activity.service :: base
                  | Running | Recovering _ | Awaiting_commit | Done _ -> base
                in
                if qid = pid then gservices @ base else base
              in
              List.filter_map
                (fun r ->
                  let rid = Process.pid r.proc in
                  if rid = qid then None
                  else
                    let future =
                      remaining_services r
                      @ List.map instance_service r.pending_completion
                    in
                    let future = if rid = pid then gservices @ future else future in
                    if
                      List.exists
                        (fun x -> List.exists (fun f -> services_conflict t x f) future)
                        q_occurrences
                    then Some (qid, rid)
                    else None)
                lives)
            (List.filter not_aborted (pstates t))
        end
      in
      if Deps.would_cycle t.deps (new_edges @ latent_edges) then begin
        let blockers =
          List.concat_map (fun (i, j) -> [ i; j ]) (new_edges @ latent_edges)
          |> List.filter (fun q -> q <> pid)
          |> List.sort_uniq compare
        in
        (Delay blockers, [])
      end
      else if t.cfg.mode = Naive_sr then (Admit_invoke, new_edges)
      else if t.cfg.exact_admission && not (exact_ok t a) then
        (Delay (List.sort_uniq compare (List.map fst new_edges)), [])
      else if Activity.non_compensatable a && not t.no_lemma1 then begin
        let preds =
          List.sort_uniq compare
            (Deps.uncommitted_preds_reference t.deps pid
            @ List.filter_map
                (fun (i, _) ->
                  if status t i = Schedule.Committed then None else Some i)
                new_edges)
        in
        if preds = [] then (Admit_invoke, new_edges)
        else
          match t.cfg.mode with
          | Conservative -> (Delay preds, [])
          | Deferred -> (Admit_prepare, new_edges)
          | Quasi ->
              ( (if quasi_ok t preds pid service then Admit_invoke else Admit_prepare),
                new_edges )
          | Naive_sr -> assert false (* admitted before the Lemma-1 gate *)
      end
      else (Admit_invoke, new_edges)
    end
end

let admission_to_string = function
  | Admit_invoke -> "invoke"
  | Admit_prepare -> "prepare"
  | Delay l -> Printf.sprintf "delay[%s]" (String.concat "," (List.map string_of_int l))

let same_admission a b =
  match (a, b) with
  | Admit_invoke, Admit_invoke | Admit_prepare, Admit_prepare -> true
  | Delay xs, Delay ys -> xs = ys
  | (Admit_invoke | Admit_prepare | Delay _), _ -> false

(* benchmarking hook: compute and discard the pure decision with a chosen
   engine — no state is mutated, no edges applied (bench P11 probes both
   engines on identical mid-run states) *)
let probe_admission t engine ~pid ~act =
  match engine with
  | Incremental | Checked -> ignore (admission_decision t pid act)
  | Reference -> ignore (Reference.admission_decision t pid act)

(* A subprocess group is admitted the moment its first member is: the
   whole union footprint is claimed atomically (occurrence bits AND the
   reference engine's string mirror), so every conflicting outside
   activity is ordered entirely before or entirely after the subprocess
   — it admits as one unit, the inner engine schedules the children. *)
let claim_group_footprint t ps g =
  let svcs = Compose.services ps.proc g in
  Hashtbl.replace ps.admitted_groups g.Compose.gname svcs;
  List.iter
    (fun s ->
      let k = sid t s in
      Bitset.set ps.occ_bits k;
      Bitset.union ~into:ps.occ_conf (Conflict.Compiled.row t.cspec k))
    svcs;
  bump_pid t (Process.pid ps.proc)

(* The retirement oracle of the [Checked] engine: the retired set
   re-derived from scratch ({!Deps.check_retirement}), and the index
   holding exactly the unretired processes — every retired one
   terminated, with nothing in flight. *)
let retirement_check t =
  Deps.check_retirement t.deps;
  let retired, unretired =
    List.partition (fun ps -> Deps.retired t.deps (Process.pid ps.proc)) (pstates t)
  in
  List.iter
    (fun ps ->
      if live ps || ps.inflight <> None then
        failwith
          (Printf.sprintf "Scheduler: P%d retired while live or in flight" (Process.pid ps.proc)))
    retired;
  let pids l = String.concat "," (List.map (fun ps -> string_of_int (Process.pid ps.proc)) l) in
  if pids (index t) <> pids unretired then
    failwith
      (Printf.sprintf "Scheduler: index [%s] is not the unretired set [%s]" (pids (index t))
         (pids unretired))

let admission t pid act =
  let t0 = match t.cfg.admission_clock with Some f -> f () | None -> 0.0 in
  let decision, edges, reason, witness =
    match t.cfg.admission_engine with
    | Incremental -> admission_decision t pid act
    | Reference ->
        (* the oracle computes no reason code; classify its decision.  It
           computes no witness either: under it no waiter ever parks. *)
        let d, e = Reference.admission_decision t pid act in
        ( d,
          e,
          (match d with
          | Admit_invoke -> if e = [] then Obs.Clear else Obs.Ordered
          | Admit_prepare -> Obs.Deferred_prepare
          | Delay _ -> Obs.Busy),
          None )
    | Checked ->
        retirement_check t;
        let d_inc, e_inc, r_inc, w_inc = admission_decision ~full:true t pid act in
        let d_ref, e_ref = Reference.admission_decision t pid act in
        (* the retirement contract (DESIGN §8): the full-history oracle's
           blockers compare as live pids, its edges as those whose source
           has not retired *)
        let d_ref = match d_ref with Delay bs -> Delay (live_pids t bs) | d -> d in
        let e_ref = List.filter (fun (i, _) -> not (Deps.retired t.deps i)) e_ref in
        if not (same_admission d_inc d_ref && e_inc = e_ref) then
          failwith
            (Printf.sprintf
               "Scheduler.admission: engine mismatch on P%d a%d: incremental %s \
                edges=[%s] vs reference %s edges=[%s]"
               pid act (admission_to_string d_inc)
               (String.concat ";"
                  (List.map (fun (i, j) -> Printf.sprintf "%d->%d" i j) e_inc))
               (admission_to_string d_ref)
               (String.concat ";"
                  (List.map (fun (i, j) -> Printf.sprintf "%d->%d" i j) e_ref)));
        (* a witness explains its delay: a non-empty part of the full blockers *)
        match (d_inc, w_inc) with
        | Delay full, Some w ->
            let p = witness_payload t pid w in
            if p = [] || List.exists (fun q -> not (List.mem q full)) p then
              failwith
                (Printf.sprintf "Scheduler.admission: P%d a%d witness outside %s" pid act
                   (admission_to_string d_inc));
            (Delay p, e_inc, r_inc, w_inc)
        | d, _ -> (d, e_inc, r_inc, w_inc)
  in
  (match t.cfg.admission_clock with
  | Some f -> Metrics.observe t.metrics "admission_time" (f () -. t0)
  | None -> ());
  Metrics.incr t.metrics "admissions";
  (* the explain payload: decision, blocking edges and reason code of this
     admission, straight from the pure decision function *)
  if Obs.Tracer.active t.obs then begin
    let ps = Hashtbl.find t.procs pid in
    Obs.Tracer.emit t.obs
      (Obs.Admission
         {
           pid;
           act;
           service = (Process.find ps.proc act).Activity.service;
           decision =
             (match decision with
             | Admit_invoke -> Obs.Invoke
             | Admit_prepare -> Obs.Prepare
             | Delay blockers -> Obs.Delay blockers);
           reason;
           edges;
         })
  end;
  (match decision with
  | Admit_invoke | Admit_prepare -> (
      let ps = Hashtbl.find t.procs pid in
      match Compose.group_of ps.groups act with
      | Some g when not (Hashtbl.mem ps.admitted_groups g.Compose.gname) ->
          Metrics.incr t.metrics "subprocess_admissions";
          tracef t "subprocess %s of P%d admitted as one unit" g.Compose.gname pid;
          claim_group_footprint t ps g
      | Some _ | None -> ())
  | Delay _ -> ());
  List.iter (fun (i, j) -> add_dep_edge t i j) edges;
  (decision, witness)

(* Queue a rollback group's completions: each entry's instances become
   its process's pending completion, and the queue runs the group's in
   the order Definition 8 gives S̃ (Lemmas 2-3). *)
let queue_completions t entries =
  let ordered = Completed.completion_order (history t) entries in
  List.iter
    (fun (qid, insts) ->
      match Hashtbl.find_opt t.procs qid with Some q -> set_pending t q insts | None -> ())
    entries;
  t.rollback_queue <-
    t.rollback_queue @ List.map (fun inst -> (Activity.instance_proc inst, inst)) ordered

(* ------------------------------------------------------------------ *)
(* Forward progress *)

(* A process terminating with an invocation still in flight (an abort or
   a forward recovery overtook it) stays unretired until the invocation
   returns: until then it still counts as busy, and its in-flight row
   still feeds the latent base. *)
let terminate_deps t ps mark =
  let pid = Process.pid ps.proc in
  if ps.inflight <> None then Deps.hold t.deps pid;
  mark t.deps pid

let clear_inflight t ps =
  let pid = Process.pid ps.proc in
  bump_pid t pid;
  ps.inflight <- None;
  if not (live ps) then Deps.release t.deps pid

let rec wake t =
  if not !(t.crashed) then begin
    let changed = ref false in
    (* reverse pass order; [None]: delayed, blockers built by the stall check *)
    let waiting = ref [] in
    let delays = ref 0 and parked = ref 0 in
    List.iter
      (fun ps ->
        (* the crash trigger may fire mid-iteration: once crashed, no
           further subsystem mutation or dispatch is allowed *)
        if !(t.crashed) then ()
        else
        let pid = Process.pid ps.proc in
        match ps.phase with
        | Done _ | Recovering _ -> ()
        | Deciding_2pc _ -> ()  (* the coordinator instance drives it *)
        | Blocked_2pc { act; token } ->
            let preds = Deps.uncommitted_preds t.deps pid in
            if preds <> [] then waiting := (ps, Some preds) :: !waiting
            else begin
              (* every conflicting predecessor committed: hand the prepared
                 activity to the crash-tolerant coordinator.  The commit is
                 applied (and the history event emitted) in [on_twopc_done]
                 once the decision round-trips the message bus. *)
              let a = Process.find ps.proc act in
              tracef t "2pc-start P%d a%d" pid act;
              (* enter the deciding phase before starting the instance:
                 under synchronous (fault-free) delivery [on_done] fires
                 inside [start], and it must find the phase in place.  The
                 instance id is patched in afterwards if still deciding. *)
              bump_pid t pid;
              ps.phase <- Deciding_2pc { act; token; cid = 0 };
              let cid =
                Coordinator.start t.coord ~pid ~act
                  ~participants:[ (rm_of t a, token) ]
                  ~on_done:(fun ~commit -> on_twopc_done t pid act ~commit)
              in
              (match ps.phase with
              | Deciding_2pc { act = act'; token = token'; cid = 0 } when act' = act ->
                  ps.phase <- Deciding_2pc { act = act'; token = token'; cid }
              | _ -> ());
              changed := true
            end
        | Awaiting_commit ->
            if try_commit t ps then changed := true
            else waiting := (ps, Some (Deps.uncommitted_preds t.deps pid)) :: !waiting
        | Running ->
            if ps.inflight = None then begin
              if Wakeup.holds t.wakeup pid then begin
                (* parked and no witness moved: every enabled activity is
                   still delayed, exactly what re-asking would answer, and
                   [can_commit] is still false (DESIGN §8) *)
                incr delays;
                incr parked;
                if t.cfg.admission_engine = Checked then ignore (delay_blockers t ps);
                waiting := (ps, None) :: !waiting
              end
              else if Execution.can_commit ps.exec then begin
                if try_commit t ps then changed := true
              end
              else begin
                let enabled = Execution.enabled ps.exec in
                let witness = ref (Some [ pid ]) in
                let admitted =
                  List.find_map
                    (fun act ->
                      match admission t pid act with
                      | Admit_invoke, _ -> Some (act, `Invoke)
                      | Admit_prepare, _ -> Some (act, `Prepare)
                      | Delay _, w ->
                          witness :=
                            (match (!witness, w) with
                            | Some acc, Some w -> Some (w @ acc)
                            | Some _, None | None, _ -> None);
                          None)
                    enabled
                in
                match admitted with
                | Some (act, how) ->
                    (* no trace line here: the [Admission] event already
                       carries the decision plus its explain payload *)
                    dispatch t ps act how;
                    changed := true
                | None ->
                    if enabled <> [] then begin
                      incr delays;
                      waiting := (ps, None) :: !waiting;
                      match !witness with
                      | Some w -> Wakeup.park t.wakeup pid ~witness:(List.sort_uniq compare w)
                      | None -> ()
                    end
              end
            end)
      (index t);
    if !delays > 0 then Metrics.incr t.metrics "admission_delays" ~by:!delays;
    if !parked > 0 then Metrics.incr t.metrics "admission_parked" ~by:!parked;
    if !changed then wake t
    else if not !(t.crashed) then detect_stall t (List.rev !waiting)
  end

(* The full wait-for blockers of a delayed waiter, re-derived with the
   engine's pure decision function.  A delayed waiter must still be
   delayed on every enabled activity; an admissible one is a missed
   wakeup — a witness that failed to name a state change the delay
   depended on.  The [Checked] engine runs this at every parked skip; the
   stall check runs it for every waiter before choosing victims. *)
and delay_blockers t ps =
  let pid = Process.pid ps.proc in
  if Execution.can_commit ps.exec then
    failwith (Printf.sprintf "missed wakeup: delayed P%d can commit" pid);
  List.concat_map
    (fun act ->
      let d =
        match t.cfg.admission_engine with
        | Reference -> fst (Reference.admission_decision t pid act)
        | Incremental | Checked ->
            let d, _, _, _ = admission_decision ~full:true t pid act in
            d
      in
      match d with
      | Delay bs -> bs
      | Admit_invoke | Admit_prepare ->
          failwith (Printf.sprintf "missed wakeup: delayed P%d a%d admissible" pid act))
    (Execution.enabled ps.exec)
  |> List.sort_uniq compare

(* Decision callback of a coordinator instance: fires once every
   participant acknowledged.  On commit the activity's effects are already
   durable in its subsystem (the participant applied them before acking);
   on abort the token was rolled back everywhere and the activity counts
   as a failed attempt. *)
and on_twopc_done t pid act ~commit =
  if !(t.crashed) then ()
  else
    match Hashtbl.find_opt t.procs pid with
    | None -> ()
    | Some ps -> (
        match ps.phase with
        | Deciding_2pc { act = act'; _ } when act' = act ->
            let a = Process.find ps.proc act in
            if commit then begin
              tracef t "2pc-commit P%d a%d" pid act;
              emit t (Schedule.Act (Activity.Forward a));
              ps.exec <- Execution.exec ps.exec act;
              ps.phase <- Running;
              Metrics.incr t.metrics "twopc_commits";
              (match t.enforce with
              | Some e
                when Enforce.state e ~token:(activity_token ~pid ~act) = Some `Open ->
                  (* the 2PC commit decision is the prepared token's local
                     commit: release the dependents held behind it *)
                  Enforce.committed e ~token:(activity_token ~pid ~act)
              | Some _ | None -> ());
              wake t
            end
            else begin
              tracef t "2pc-abort P%d a%d" pid act;
              Metrics.incr t.metrics "twopc_aborts";
              bump_pid t pid;
              ps.phase <- Running;
              handle_failure t ps act
            end
        | Running | Blocked_2pc _ | Deciding_2pc _ | Recovering _ | Awaiting_commit
        | Done _ ->
            ()  (* stale decision for a process that moved on *))

(* A stall occurs when live processes remain but nothing is executing:
   every pending admission waits on a commit that can never happen (the
   serialization order already contradicts the required commit order).
   Resolution: abort the youngest stalled process; its completion restores
   progress (guaranteed termination). *)
and detect_stall t waiters =
  let ps_list = index t in
  let lives = List.filter live ps_list in
  let busy =
    t.rollback_running
    || List.exists (fun ps -> ps.inflight <> None) ps_list
    || List.exists (fun ps -> match ps.phase with Recovering None -> true | _ -> false) ps_list
    (* a 2PC decision in flight counts as progress: its messages and
       retransmission timers are pending DES events *)
    || List.exists
         (fun ps -> match ps.phase with Deciding_2pc _ -> true | _ -> false)
         ps_list
  in
  if lives <> [] && not busy then begin
    (* the delayed waiters get their full blockers now: nothing changed
       since the pass met them.  Pass order fixes the table's fold order,
       which [Digraph.find_cycle], and so the victims, depend on *)
    let waiting = Hashtbl.create 8 in
    List.iter
      (fun (ps, blockers) ->
        Hashtbl.replace waiting (Process.pid ps.proc)
          (match blockers with Some bs -> bs | None -> delay_blockers t ps))
      waiters;
    (* build the wait-for graph and abort one cycle jointly, so that the
       Lemma 2/3 ordering of Completed.completion_order applies across the
       knot; waiters outside the cycle resume once it clears *)
    let edges =
      Hashtbl.fold
        (fun pid blockers acc -> List.map (fun b -> (pid, b)) blockers @ acc)
        waiting []
    in
    let g = Digraph.make ~nodes:[] ~edges in
    let victims =
      match Digraph.find_cycle g with
      | Some cycle ->
          List.filter_map (fun pid -> Hashtbl.find_opt t.procs pid) cycle
          |> List.filter live
      | None -> (
          (* no cycle: the knot is anchored on something that cannot move
             (e.g. a latent mutual conflict); abort the youngest waiter *)
          match
            List.filter (fun ps -> Hashtbl.mem waiting (Process.pid ps.proc)) lives
          with
          | [] -> lives
          | waiters ->
              [ List.fold_left
                  (fun best ps ->
                    if Process.pid ps.proc > Process.pid best.proc then ps else best)
                  (List.hd waiters) waiters ])
    in
    if victims <> [] then begin
      Metrics.incr t.metrics "stall_aborts" ~by:(List.length victims);
      tracef t "stall-abort group [%s]"
        (String.concat ","
           (List.map (fun ps -> string_of_int (Process.pid ps.proc)) victims));
      abort_group t victims
    end
  end

and try_commit t ps =
  let pid = Process.pid ps.proc in
  if Deps.uncommitted_preds t.deps pid = [] then begin
    log t (Wal.Commit_requested pid);
    if not (Execution.can_commit ps.exec) then
      invalid_arg (Printf.sprintf "Scheduler: commit of incomplete process %d" pid);
    ps.exec <- Execution.commit ps.exec;
    tracef t "commit P%d" pid;
    finish_terminal t ps;
    true
  end
  else begin
    ps.phase <- Awaiting_commit;
    false
  end

and dispatch t ps act how =
  let pid = Process.pid ps.proc in
  let a = Process.find ps.proc act in
  (match t.enforce with
  | Some e ->
      (* Section 3.6 enforcement: register the prescribed weak-order
         obligations against every conflicting in-flight or prepared
         activity of another live process — their local commits must
         precede ours.  Obligations are keyed by token and survive
         re-invocations on both sides. *)
      let token = activity_token ~pid ~act in
      Hashtbl.replace t.enf_how token how;
      List.iter
        (fun q ->
          if Process.pid q.proc <> pid && live q then begin
            let qid = Process.pid q.proc in
            let obligation qact =
              if
                services_conflict t a.Activity.service
                  (Process.find q.proc qact).Activity.service
              then Enforce.order e ~pred:(activity_token ~pid:qid ~act:qact) ~dep:token
            in
            (match q.inflight with Some qact -> obligation qact | None -> ());
            match placed_act q with Some qact -> obligation qact | None -> ()
          end)
        (index t)
  | None -> ());
  Metrics.incr t.metrics "dispatched";
  if Obs.Tracer.active t.obs then
    Obs.Tracer.emit t.obs
      (Obs.Dispatch
         { pid; act; service = a.Activity.service; prepare_only = how = `Prepare });
  redispatch t ps act how ~a ~delay:0.0

(* (Re-)submit an invocation after [delay] of backoff wait.  When the
   (possibly latency-spiked) service duration exceeds the client-side
   timeout, the invocation is abandoned at the timeout instead and counted
   as a failed attempt. *)
and redispatch t ps act how ~a ~delay =
  let pid = Process.pid ps.proc in
  bump_pid t pid;
  ps.inflight <- Some act;
  (match t.enforce with
  | Some e -> (
      (* open (or re-open after a weak-order restart) the token's local
         transaction: its footprint enters the subsystem's live history.
         A transient retry of the same attempt chain keeps the open
         transaction — failed attempts happen inside it. *)
      let token = activity_token ~pid ~act in
      match Enforce.state e ~token with
      | None ->
          Enforce.begin_tx e ~subsystem:a.Activity.subsystem ~token
            ~ops:(enf_ops t a.Activity.service)
      | Some `Aborted -> Enforce.rebegin e ~token
      | Some (`Open | `Committed) -> ())
  | None -> ());
  let d = duration t a in
  match t.cfg.invocation_timeout with
  | Some timeout when d > timeout ->
      Des.after t.sim (delay +. timeout) (fun _ -> on_activity_timeout t pid act how)
  | Some _ | None ->
      Des.after t.sim (delay +. d) (fun _ -> on_activity_done t pid act how)

and on_activity_timeout t pid act how =
  if !(t.crashed) then ()
  else
    match Hashtbl.find_opt t.procs pid with
    | None -> ()
    | Some ps -> (
        if ps.inflight = Some act then clear_inflight t ps;
        match ps.phase with
        | Recovering _ | Done _ | Deciding_2pc _ ->
            Metrics.incr t.metrics "cancelled_inflight";
            enf_fail t (activity_token ~pid ~act)
        | Running | Awaiting_commit | Blocked_2pc _ ->
            let a = Process.find ps.proc act in
            let rm = rm_of t a in
            let attempt = next_attempt t pid act in
            tracef t "timeout P%d a%d" pid act;
            Metrics.incr t.metrics "timeouts";
            notify_subsys t rm ~ok:false;
            retry_or_degrade t ps act how ~rm ~a ~attempt)

(* A transient failure (injected failure or timeout): retriables always
   retry with backoff; non-retriables retry up to the transient-attempt
   bound, then degrade to the next alternative branch. *)
and retry_or_degrade t ps act how ~rm ~a ~attempt =
  let pid = Process.pid ps.proc in
  if Activity.retriable a || attempt < max_transient_attempts t rm then begin
    Metrics.incr t.metrics "retries";
    redispatch t ps act how ~a ~delay:(backoff_delay t ~pid ~act ~attempt)
  end
  else begin
    (* transient attempts exhausted: degrade to the next alternative branch *)
    if Obs.Tracer.active t.obs then
      Obs.Tracer.emit t.obs
        (Obs.Deflect { pid; act; service = a.Activity.service; outage = false });
    handle_failure t ps act
  end

and on_activity_done t pid act how =
  if !(t.crashed) then ()
  else
  match Hashtbl.find_opt t.procs pid with
  | None -> ()
  | Some ps -> (
      (* Section 3.6 enforcement: the subsystem call below IS the local
         commit of the token's open transaction, so it must wait until
         every prescribed predecessor's local transaction committed.  On
         [`Held] the in-flight marker stays and the enforcer re-enters
         this function when the last predecessor commits (or withdraws us
         for re-invocation when one aborts). *)
      let enf_held =
        match t.enforce with
        | Some e
          when (match ps.phase with
               | Running | Awaiting_commit | Blocked_2pc _ -> true
               | Recovering _ | Deciding_2pc _ | Done _ -> false)
               && Enforce.state e ~token:(activity_token ~pid ~act) = Some `Open -> (
            match
              Enforce.request_commit e ~token:(activity_token ~pid ~act)
                ~ready:(fun () -> on_activity_done t pid act how)
            with
            | `Held ->
                Metrics.incr t.metrics "weak_commit_waits";
                tracef t "enforce-hold P%d a%d (weak order)" pid act;
                true
            | `Granted -> false)
        | Some _ | None -> false
      in
      if enf_held then ()
      else begin
      if ps.inflight = Some act then clear_inflight t ps;
      match ps.phase with
      | Recovering _ | Done _ | Deciding_2pc _ ->
          (* the process was aborted (or its fate handed to a 2PC
             coordinator) while this invocation was in flight: the
             invocation is considered never submitted *)
          Metrics.incr t.metrics "cancelled_inflight";
          enf_fail t (activity_token ~pid ~act)
      | Running | Awaiting_commit | Blocked_2pc _ -> (
          let a = Process.find ps.proc act in
          let rm = rm_of t a in
          let token = activity_token ~pid ~act in
          let attempt = next_attempt t pid act in
          let args = ps.args_of a in
          let outcome =
            match how with
            | `Invoke ->
                Rm.invoke rm ~token ~service:a.Activity.service ~args ~attempt
                  ~now:(now t) ()
            | `Prepare ->
                Rm.prepare rm ~token ~service:a.Activity.service ~args ~attempt
                  ~now:(now t) ()
          in
          match outcome with
          | Rm.Committed _ ->
              notify_subsys t rm ~ok:true;
              log t (Wal.Invoked { pid; act });
              emit t (Schedule.Act (Activity.Forward a));
              ps.exec <- Execution.exec ps.exec act;
              Metrics.incr t.metrics "activities";
              (match t.enforce with
              | Some e ->
                  (* the local commit is recorded and every held dependent
                     whose obligations are now satisfied re-enters *)
                  Enforce.committed e ~token
              | None -> ());
              wake t
          | Rm.Prepared _ ->
              notify_subsys t rm ~ok:true;
              log t (Wal.Prepared { pid; act });
              bump_pid t pid;
              ps.phase <- Blocked_2pc { act; token };
              Metrics.incr t.metrics "prepared";
              if Obs.Tracer.active t.obs then
                Obs.Tracer.emit t.obs (Obs.Prepared { pid; act });
              wake t
          | Rm.Failed ->
              tracef t "failed P%d a%d" pid act;
              Metrics.incr t.metrics "invocation_failures";
              retry_or_degrade t ps act how ~rm ~a ~attempt
          | Rm.Unavailable ->
              tracef t "unavailable P%d a%d" pid act;
              Metrics.incr t.metrics "unavailable";
              notify_subsys t rm ~ok:false;
              if Activity.retriable a || not t.cfg.outage_degrade then begin
                (* a retriable activity is guaranteed to succeed
                   eventually (Definition 3): ride out the outage with
                   capped backoff *)
                Metrics.incr t.metrics "retries";
                redispatch t ps act how ~a ~delay:(backoff_delay t ~pid ~act ~attempt)
              end
              else begin
                (* non-retriable during a declared outage: deflect to the
                   next alternative branch of the flex process instead of
                   gambling on the window closing *)
                Metrics.incr t.metrics "outage_deflections";
                if Obs.Tracer.active t.obs then
                  Obs.Tracer.emit t.obs
                    (Obs.Deflect
                       { pid; act; service = a.Activity.service; outage = true });
                handle_failure t ps act
              end
          | Rm.Blocked owners ->
              Metrics.incr t.metrics "lock_blocked";
              (* after repeated blocks, break the tie by aborting the
                 holders of the prepared locks *)
              if attempt > 20 then abort_lock_holders t ~blocked:pid owners;
              redispatch t ps act how ~a ~delay:(backoff_delay t ~pid ~act ~attempt))
      end)

(* Weakly-ordered local abort (Section 3.6): withdraw the token's open
   local transaction and restart the dependent local transactions that
   were prescribed to commit after it — the retriable re-invocation
   restarts the locals, never their processes.  Restarting a dependent
   re-emits its footprint, so ITS open dependents must restart too: the
   cascade runs breadth-first (each transaction is re-opened before its
   dependents re-emit), deduplicated on first sight — the first abort to
   list a dependent saw the authoritative held/pending distinction.
   Dependents whose process is no longer running collapse into plain
   withdrawals (and cascade further). *)
and enf_fail t token =
  match t.enforce with
  | None -> ()
  | Some e ->
      let queue = Queue.create () in
      let seen = Hashtbl.create 8 in
      let enqueue l =
        List.iter
          (fun (dtok, was_held) ->
            if not (Hashtbl.mem seen dtok) then begin
              Hashtbl.replace seen dtok ();
              Queue.add (dtok, was_held) queue
            end)
          l
      in
      enqueue (Enforce.abort_tx e ~token);
      while not (Queue.is_empty queue) do
        let dtok, was_held = Queue.pop queue in
        let dpid = dtok / 1_000_000 and dact = dtok mod 1_000_000 in
        let sub = Enforce.abort_tx e ~token:dtok in
        (match Hashtbl.find_opt t.procs dpid with
        | Some dps
          when dps.inflight = Some dact
               && (match dps.phase with
                  | Running | Awaiting_commit | Blocked_2pc _ -> true
                  | Recovering _ | Deciding_2pc _ | Done _ -> false) ->
            Metrics.incr t.metrics "local_restarts";
            Enforce.rebegin e ~token:dtok;
            tracef t "weak-order restart P%d a%d (predecessor P%d aborted locally)"
              dpid dact (token / 1_000_000);
            if was_held then begin
              (* its completion event already fired (the commit grant was
                 held): re-invoke after a fresh service time *)
              let da = Process.find dps.proc dact in
              let how =
                Option.value ~default:`Invoke (Hashtbl.find_opt t.enf_how dtok)
              in
              Des.after t.sim (duration t da) (fun _ -> on_activity_done t dpid dact how)
            end
            (* not held: its own completion event is still pending and will
               request the commit of the restarted transaction *)
        | Some _ | None -> ());
        enqueue sub
      done

and handle_failure t ps act =
  let pid = Process.pid ps.proc in
  (* the activity is abandoned on this branch: a weakly-ordered local
     abort — withdraw its local transaction and re-invoke the dependents
     prescribed to commit after it (Section 3.6) *)
  enf_fail t (activity_token ~pid ~act);
  let before_len = List.length (Execution.trace ps.exec) in
  match Execution.fail ps.exec act with
  | exception Execution.Stuck msg ->
      failwith (Printf.sprintf "Scheduler: process %d stuck: %s" pid msg)
  | new_exec ->
      let added = List.filteri (fun i _ -> i >= before_len) (Execution.trace new_exec) in
      let compensations =
        List.filter_map
          (function
            | Execution.Compensated a -> Some (Activity.Inverse a)
            | Execution.Invoked _ | Execution.Attempt_failed _ -> None)
          added
      in
      Metrics.incr t.metrics "branch_failures";
      if compensations = [] then begin
        bump_pid t pid;
        ps.exec <- new_exec;
        (match Execution.status new_exec with
        | Execution.Finished Execution.Aborted -> finish_terminal t ps
        | Execution.Finished Execution.Committed | Execution.Running -> ());
        wake t
      end
      else begin
        let resume =
          match Execution.status new_exec with
          | Execution.Running -> Some new_exec
          | Execution.Finished _ -> None
        in
        start_group_rollback t ~initiators:[ (ps, compensations, resume) ]
      end

and cascade_victims t ~exclude ~seed_instances =
  (* A live process must abort as well iff one of its occurrences conflicts
     with a compensation about to run AND lies after the compensated
     original: compensating across it would create an inter-process cycle.
     Occurrences before the original are harmless (the pair cancels around
     them).  The victims' own compensations cascade further. *)
  let indexed =
    List.mapi (fun i ev -> (i, ev)) (Schedule.events t.hist)
    |> List.filter_map (function
         | i, Schedule.Act inst -> Some (i, inst)
         | _, (Schedule.Commit _ | Schedule.Abort _ | Schedule.Group_abort _) -> None)
  in
  let forward_pos id =
    List.fold_left
      (fun acc (i, inst) ->
        match inst with
        | Activity.Forward a when Activity.id_equal a.Activity.id id -> Some i
        | Activity.Forward _ | Activity.Inverse _ -> acc)
      None indexed
  in
  let threat_of inst =
    match inst with
    | Activity.Inverse a ->
        Some (a.Activity.service, forward_pos a.Activity.id)
    | Activity.Forward _ -> None
  in
  let victims = ref [] in
  let frontier = ref (List.filter_map threat_of seed_instances) in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    List.iter
      (fun q ->
        let qid = Process.pid q.proc in
        let threatened =
          List.exists
            (fun (service, fpos) ->
              List.exists
                (fun (i, inst) ->
                  Activity.instance_proc inst = qid
                  && services_conflict t service (instance_service inst)
                  && match fpos with Some f -> i > f | None -> true)
                indexed
              ||
              (* a conflicting in-flight invocation may commit between the
                 original and its compensation: pessimistically cascade
                 (its outcome is then discarded as never-submitted) *)
              match q.inflight with
              | Some act ->
                  services_conflict t service (Process.find q.proc act).Activity.service
              | None -> false)
            !frontier
        in
        if
          (not (List.mem qid exclude))
          && (match q.phase with
             | Running | Blocked_2pc _ | Awaiting_commit -> true
             | Done _ -> false
             | Recovering _ -> false  (* already completing, do not re-plan *)
             (* a process whose activity is mid-decision cannot be a
                cascade victim: any conflicting earlier occurrence of a
                live process would have created a dependency edge at
                admission, so the process would still have uncommitted
                predecessors and never have entered 2PC.  Excluded
                defensively — its locks clear the moment the decision
                lands. *)
             | Deciding_2pc _ -> false)
          && (not (List.mem_assoc qid !victims))
          && threatened
        then begin
          let completion = Execution.completion q.exec in
          victims := (qid, completion) :: !victims;
          frontier := List.filter_map threat_of completion @ !frontier;
          continue_ := true
        end)
      (index t)
  done;
  !victims

and start_group_rollback t ~initiators =
  (* initiators: (pstate, instances to execute, resume state).  A [Some]
     resume state means the process survives (branch switch); [None] means
     the process terminates through these completion activities. *)
  let initiator_pids = List.map (fun (ps, _, _) -> Process.pid ps.proc) initiators in
  let seed_instances = List.concat_map (fun (_, insts, _) -> insts) initiators in
  let victims = cascade_victims t ~exclude:initiator_pids ~seed_instances in
  tracef t "group-rollback initiators=[%s] victims=[%s]"
    (String.concat "," (List.map string_of_int initiator_pids))
    (String.concat "," (List.map (fun (q, _) -> string_of_int q) victims));
  List.iter
    (fun (qid, _) ->
      let q = Hashtbl.find t.procs qid in
      Metrics.incr t.metrics "cascaded_aborts";
      log t (Wal.Abort_requested qid);
      abort_prepared_of t q;
      bump_pid t qid;
      q.phase <- Recovering None)
    victims;
  List.iter
    (fun (ps, _, resume) ->
      bump_pid t (Process.pid ps.proc);
      ps.phase <- Recovering resume)
    initiators;
  queue_completions t
    (victims @ List.map (fun (ps, insts, _) -> (Process.pid ps.proc, insts)) initiators);
  if not t.rollback_running then run_rollback_queue t

and abort_prepared_of t q =
  match q.phase with
  | Blocked_2pc { act; token } ->
      let a = Process.find q.proc act in
      Rm.abort_prepared (rm_of t a) ~token;
      log t (Wal.Prepared_decided { pid = Process.pid q.proc; act; commit = false });
      Metrics.incr t.metrics "twopc_aborts";
      enf_fail t token
  | Deciding_2pc _ ->
      (* unreachable: abort paths exclude deciding processes (the commit
         decision may already be durable at the coordinator).  Never touch
         the token behind the protocol's back. *)
      ()
  | Running | Recovering _ | Awaiting_commit | Done _ -> ()

and run_rollback_queue t =
  if !(t.crashed) then ()
  else
  (* Pick the next executable completion instance.  Per-process order is
     preserved (an item is eligible only if no earlier queue item belongs
     to the same process), but across processes items may be reordered:
     a forward (retriable) completion activity must not execute while a
     live process still holds a conflicting compensatable occurrence — its
     possible compensation would be sandwiched (Lemma 3).  Such items wait
     for the holder to commit or abort. *)
  let holder_blocks inst pid =
    let service = (Activity.instance_base inst).Activity.service in
    List.filter_map
      (fun q ->
        let qid = Process.pid q.proc in
        if
          qid <> pid
          && (match q.phase with Recovering _ | Done _ -> false | _ -> true)
          && List.exists
               (fun n ->
                 let a = Process.find q.proc n in
                 Activity.compensatable a
                 && services_conflict t service a.Activity.service)
               (Execution.executed q.exec)
        then Some q
        else None)
      (index t)
  in
  (* Lemma 3 inside the queue: a forward completion activity yields to any
     conflicting compensation queued for another process *)
  let inverse_in_queue_conflicts inst pid =
    let service = (Activity.instance_base inst).Activity.service in
    List.exists
      (fun (qid, qinst) ->
        qid <> pid && Activity.is_inverse qinst
        && services_conflict t service ((Activity.instance_base qinst).Activity.service))
      t.rollback_queue
  in
  let rec select seen_pids acc = function
    | [] -> None
    | ((pid, inst) as item) :: rest ->
        if List.mem pid seen_pids then select seen_pids (item :: acc) rest
        else if
          Activity.is_inverse inst
          || (holder_blocks inst pid = [] && not (inverse_in_queue_conflicts inst pid))
        then Some (item, List.rev_append acc rest)
        else select (pid :: seen_pids) (item :: acc) rest
  in
  match t.rollback_queue with
  | [] ->
      t.rollback_running <- false;
      (* finalize every process whose pending completion drained, in
         dependency order so that terminal events respect [C_i << C_j]
         (Definition 11.1) *)
      let ready =
        List.filter
          (fun ps ->
            match ps.phase with Recovering _ -> ps.pending_completion = [] | _ -> false)
          (index t)
      in
      let ready_pids = List.map (fun ps -> Process.pid ps.proc) ready in
      let order =
        let g =
          Digraph.make ~nodes:ready_pids
            ~edges:
              (List.filter
                 (fun (i, j) -> List.mem i ready_pids && List.mem j ready_pids)
                 (Deps.edges t.deps))
        in
        match Digraph.topo_sort g with
        | Some order -> order
        | None -> ready_pids
      in
      List.iter
        (fun pid ->
          match Hashtbl.find_opt t.procs pid with
          | Some ({ phase = Recovering resume; _ } as ps) -> finalize_rollback t ps resume
          | Some _ | None -> ())
        order;
      wake t
  | queue -> (
      t.rollback_running <- true;
      match select [] [] queue with
      | None ->
          (* every eligible item waits on a live compensatable holder: let
             the system run (holders may commit); if nothing at all is in
             flight, cascade the holders of the first item *)
          Metrics.incr t.metrics "rollback_waits";
          let idle =
            List.for_all (fun ps -> ps.inflight = None) (index t)
          in
          (if idle then
             match queue with
             | (pid, inst) :: _ ->
                 List.iter
                   (fun q ->
                     tracef t "completion of P%d blocked by P%d: cascading" pid
                       (Process.pid q.proc);
                     abort_now t q)
                   (holder_blocks inst pid)
             | [] -> ());
          Des.after t.sim t.cfg.backoff.base (fun _ -> run_rollback_queue t)
      | Some ((_, inst), _) ->
          let a = Activity.instance_base inst in
          let d = duration t a in
          Des.after t.sim d (fun _ ->
              (* re-select at execution time: the queue may have grown and
                 eligibility may have changed *)
              if !(t.crashed) then ()
              else
                match select [] [] t.rollback_queue with
                | None ->
                    Des.after t.sim t.cfg.backoff.base (fun _ -> run_rollback_queue t)
                | Some ((pid, inst), rest) -> apply_rollback_item t pid inst rest))

and apply_rollback_item t pid inst rest =
  let a = Activity.instance_base inst in
  let rm = rm_of t a in
  let token = activity_token ~pid ~act:a.Activity.id.Activity.act in
  let outcome =
    if Activity.is_inverse inst then Rm.compensate rm ~token ~now:(now t) ()
    else
      Rm.invoke rm ~token ~service:a.Activity.service
        ~args:
          (match Hashtbl.find_opt t.procs pid with
          | Some ps -> ps.args_of a
          | None -> Value.Nil)
        ~attempt:max_int ~now:(now t) ()
  in
  match outcome with
  | Rm.Committed _ ->
      t.rollback_queue <- rest;
      (* completion activities introduce new conflicts (paper,
         Section 3.5): record the resulting dependency edges *)
      List.iter
        (fun q ->
          let qid = Process.pid q.proc in
          if
            qid <> pid && not_aborted q
            && occurrence_conflicts t q (Activity.instance_base inst).Activity.service
          then add_dep_edge t qid pid)
        (index t);
      (if Activity.is_inverse inst then begin
         log t (Wal.Compensated { pid; act = a.Activity.id.Activity.act });
         Metrics.incr t.metrics "compensations"
       end
       else begin
         log t (Wal.Invoked { pid; act = a.Activity.id.Activity.act });
         Metrics.incr t.metrics "completion_activities"
       end);
      emit t (Schedule.Act inst);
      (match Hashtbl.find_opt t.procs pid with
      | Some ps ->
          set_pending t ps
            (match ps.pending_completion with [] -> [] | _ :: tl -> tl)
      | None -> ());
      run_rollback_queue t
  | Rm.Blocked owners ->
      (* the blocking prepared invocation belongs to a process that
         transitively waits for this rollback: abort it (2PC gives
         the scheduler this option, cf. Section 3.5) *)
      Metrics.incr t.metrics "rollback_retries";
      abort_lock_holders t ~blocked:pid owners;
      Des.after t.sim t.cfg.backoff.base (fun _ -> run_rollback_queue t)
  | Rm.Failed ->
      Metrics.incr t.metrics "rollback_retries";
      Des.after t.sim t.cfg.backoff.base (fun _ -> run_rollback_queue t)
  | Rm.Unavailable ->
      (* completion activities are retriable by definition: wait out the
         outage window and try again *)
      Metrics.incr t.metrics "unavailable";
      Metrics.incr t.metrics "rollback_retries";
      Des.after t.sim t.cfg.backoff.cap (fun _ -> run_rollback_queue t)
  | Rm.Prepared _ -> assert false

and finalize_rollback t ps resume =
  bump_pid t (Process.pid ps.proc);
  match resume with
  | Some exec ->
      ps.exec <- exec;
      ps.phase <- Running
  | None ->
      (* terminal completion: apply it to the engine state to learn the
         terminal status *)
      (match Execution.status ps.exec with
      | Execution.Finished _ -> ()
      | Execution.Running -> ps.exec <- Execution.abort ps.exec);
      finish_terminal t ps

(* A prepared lock held by [owners] blocks [blocked]'s invocation or
   completion: abort every holder that is not already terminating
   through its completion. *)
and abort_lock_holders t ~blocked owners =
  List.iter
    (fun owner ->
      let qid = owner / 1_000_000 in
      match Hashtbl.find_opt t.procs qid with
      | Some q when live q && not (aborting q) ->
          tracef t "P%d blocked on P%d's prepared lock: aborting holder" blocked qid;
          abort_now t q
      | Some _ | None -> ())
    owners

and abort_now t ps = abort_group t [ ps ]

(* Abort several processes jointly (the group abort of Definition 8): all
   their completions are ordered together, compensations in reverse order
   and before conflicting retriable completion activities (Lemmas 2-3). *)
and abort_group t group =
  let to_abort =
    List.filter
      (fun ps ->
        match ps.phase with
        | Done _ | Recovering _ -> false
        (* mid-decision: the coordinator owns the token's fate and the
           commit may already be durably logged, so the process cannot be
           aborted here.  Callers that must make progress (blocked waiters,
           the rollback queue) retry with backoff; the window closes as
           soon as the decision lands. *)
        | Deciding_2pc _ -> false
        | Running | Awaiting_commit | Blocked_2pc _ -> true)
      group
  in
  if to_abort <> [] then begin
    let initiators =
      List.map
        (fun ps ->
          let pid = Process.pid ps.proc in
          log t (Wal.Abort_requested pid);
          Metrics.incr t.metrics "abort_requests";
          abort_prepared_of t ps;
          (ps, Execution.completion ps.exec, None))
        to_abort
    in
    start_group_rollback t ~initiators
  end

(* The one way a live process ends.  Its outcome is the engine state's;
   it ended through a rollback iff it leaves [Recovering None]. *)
and finish_terminal t ps =
  let pid = Process.pid ps.proc in
  let outcome =
    match Execution.status ps.exec with
    | Execution.Finished outcome -> outcome
    | Execution.Running -> invalid_arg (Printf.sprintf "Scheduler: P%d ends unfinished" pid)
  in
  let rolled_back = match ps.phase with Recovering None -> true | _ -> false in
  (match outcome with
  | Execution.Aborted ->
      emit t (Schedule.Abort pid);
      log t (Wal.Process_aborted pid);
      terminate_deps t ps Deps.mark_aborted;
      (* the abort dropped dependency edges *)
      latent_dep_removed t;
      Metrics.incr t.metrics "aborted"
  | Execution.Committed ->
      emit t (Schedule.Commit pid);
      log t (Wal.Process_committed pid);
      terminate_deps t ps Deps.mark_committed;
      Metrics.incr t.metrics (if rolled_back then "committed_via_completion" else "committed"));
  (* set last: the explorer fingerprints the state at the crash choice
     inside [log], and a crash there finds the process not yet done *)
  ps.phase <- Done { outcome; rolled_back };
  ps.future_cache <- None;
  ps.completion_cache <- None;
  Metrics.observe t.metrics "latency" (now t -. ps.arrived)

(* ------------------------------------------------------------------ *)

(* Every check of a submitted process, in one place: [submit] raises on
   the first failure before it schedules the arrival (and [recover] on
   every process it re-registers), and the serving layer turns it into a
   typed reject.  A duplicate pid is caught here once the first arrival
   has fired; a pending duplicate is only visible to [register]. *)
type invalid =
  | Id_out_of_range
  | Duplicate_pid
  | Bad_groups of string
  | Unknown_subsystem of string
  | Unknown_service of string

let invalid_label = function
  | Id_out_of_range -> "id-out-of-range"
  | Duplicate_pid -> "duplicate-pid"
  | Bad_groups msg -> "bad-groups:" ^ msg
  | Unknown_subsystem ss -> "unknown-subsystem:" ^ ss
  | Unknown_service svc -> "unknown-service:" ^ svc

let check_submission t ~groups proc =
  if not (ids_in_range proc) then Some Id_out_of_range
  else if Hashtbl.mem t.procs (Process.pid proc) then Some Duplicate_pid
  else
    match Compose.validate proc groups with
    | Error msg -> Some (Bad_groups msg)
    | Ok () ->
        List.find_map
          (fun (a : Activity.t) ->
            match Hashtbl.find_opt t.rms a.subsystem with
            | None -> Some (Unknown_subsystem a.subsystem)
            | Some rm -> (
                match Tpm_subsys.Service.Registry.find_opt (Rm.registry rm) a.service with
                | None -> Some (Unknown_service a.service)
                | Some _ -> None))
          (Process.activities proc)

let validate_exn t ~groups proc =
  match check_submission t ~groups proc with
  | None -> ()
  | Some e ->
      invalid_arg
        (Printf.sprintf "Scheduler.submit: process %d: %s" (Process.pid proc) (invalid_label e))

let register t ?(args_of = fun _ -> Value.Nil) ?(groups = []) proc =
  let pid = Process.pid proc in
  if Hashtbl.mem t.procs pid then
    invalid_arg (Printf.sprintf "Scheduler.submit: duplicate process %d" pid);
  (* intern every service of the process once, so the hot admission path
     never touches a string again *)
  let svc_ids = Hashtbl.create 16 in
  List.iter
    (fun (a : Activity.t) ->
      Hashtbl.replace svc_ids a.Activity.id.Activity.act
        (Conflict.Compiled.intern t.cspec a.Activity.service))
    (Process.activities proc);
  let ps =
    {
      proc;
      args_of;
      groups;
      admitted_groups = Hashtbl.create 4;
      exec = Execution.start proc;
      phase = Running;
      inflight = None;
      occurrences = [];
      pending_completion = [];
      completion_cache = None;
      arrived = now t;
      svc_ids;
      occ_bits = Bitset.create ();
      occ_conf = Bitset.create ();
      pending_bits = Bitset.create ();
      future_cache = None;
    }
  in
  Hashtbl.replace t.procs pid ps;
  (* The newcomer only contributes its own source/target side (dirty) —
     a service it interns is in no conflict pair, so no cached closure
     changes — and takes the last topological position (it has no edges
     yet, so appending keeps a valid order valid). *)
  bump_pid t pid;
  (match t.latent.lt_order with
  | Order_valid pos ->
      Hashtbl.replace pos pid t.latent.lt_next_pos;
      t.latent.lt_next_pos <- t.latent.lt_next_pos + 1
  | Order_stale | Order_cyclic -> ());
  (* O(1): both views are rebuilt, sorted, at their next read *)
  t.all_asc <- None;
  t.idx <- ps :: t.idx;
  t.idx_asc <- None;
  t.hist <- Schedule.add_proc t.hist proc;
  Deps.add_process t.deps pid;
  log t (Wal.Process_registered pid);
  ps

let submit t ?at ?args_of ?(groups = []) proc =
  validate_exn t ~groups proc;
  let when_ = Option.value ~default:(now t) at in
  Des.at t.sim when_ (fun _ ->
      if not !(t.crashed) then begin
        let ps = register t ?args_of ~groups proc in
        ps.arrived <- now t;
        Metrics.incr t.metrics "submitted";
        wake t
      end)

let rec request_abort t ?at pid =
  let when_ = Option.value ~default:(now t) at in
  Des.at t.sim when_ (fun _ ->
      if not !(t.crashed) then
        match Hashtbl.find_opt t.procs pid with
        | None -> ()
        | Some ps -> (
            match ps.phase with
            | Deciding_2pc _ | Recovering (Some _) ->
                (* a 2PC decision closes when its round completes, a
                   branch switch when its completions ran: retry the abort
                   after it *)
                request_abort t ~at:(now t +. t.cfg.backoff.base) pid
            | _ -> abort_now t ps))

let run ?until t = Des.run ?until t.sim

let closed_pids t outcome =
  List.filter_map
    (fun ps ->
      match ps.phase with
      | Done d when d.outcome = outcome -> Some (Process.pid ps.proc)
      | _ -> None)
    (pstates t)

(* Checkpoint-time page bookkeeping: write back every dirty page the
   durable marker covers (after forcing a sync), then log what is still
   dirty as a [Dirty_pages] snapshot per paged store.  Page redo after a
   crash starts at the snapshot's minimum rec_lsn instead of the whole
   log.  Under a lying-fsync window pages can stay dirty — the snapshot
   is taken after the flush, so the bound remains honest. *)
let log_dirty_pages t =
  Hashtbl.iter
    (fun name rm ->
      let store = Rm.store rm in
      match Store.bufpool store with
      | None -> ()
      | Some pool ->
          Store.flush store;
          t.logf (Wal.Dirty_pages { rm = name; pages = Tpm_kv.Bufpool.dirty_page_table pool }))
    t.rms

(* Checkpoint: log [Ckpt_begin] now and seal the span [window] later
   with the paged stores' [Dirty_pages] snapshots and a [Ckpt_end]
   naming the processes closed at {e end} time.  Compaction cuts at the
   begin of the last complete span, so records appended inside a
   positive window survive.  A zero window seals in the same
   synchronous block: a caller that syncs next finds the whole span
   durable. *)
let checkpoint ?(window = 0.0) t =
  if window < 0.0 then invalid_arg "Scheduler.checkpoint: negative window";
  t.ckpt_seq <- t.ckpt_seq + 1;
  let ckpt = t.ckpt_seq in
  log t (Wal.Ckpt_begin { ckpt });
  let seal () =
    log_dirty_pages t;
    log t
      (Wal.Ckpt_end
         {
           ckpt;
           committed = closed_pids t Execution.Committed;
           aborted = closed_pids t Execution.Aborted;
         })
  in
  if window = 0.0 then seal ()
  else Des.at t.sim (now t +. window) (fun _ -> if not !(t.crashed) then seal ())

let wal t = t.wal

let crash t =
  t.crashed := true;
  Bus.halt t.bus;
  (* paged stores share the host's fate: their page files stop changing
     at this instant (no-op for in-memory stores, which model subsystems
     on machines that survive the scheduler crash) *)
  Hashtbl.iter (fun _ rm -> Store.freeze (Rm.store rm)) t.rms;
  (* power loss at the disk too: the mirrored segments are truncated to
     the honest durable point (a no-op for in-memory logs), so a harness
     reloading from disk sees exactly what a real restart would *)
  Wal.crash_image t.wal;
  Wal.records t.wal

let recover ?(config = default_config) ?(amnesia = false) ?tracer ?(groups = []) ~spec
    ~rms ~procs records =
  let obs = match tracer with Some tr -> tr | None -> tracer_from_env () in
  (* subprocess declarations per pid, re-attached to the rebuilt pstates
     (interrupted processes only roll back and never admit again, so no
     admitted-group state needs re-deriving — the declaration is kept for
     validation and API symmetry) *)
  let groups_of pid =
    match List.assoc_opt pid groups with Some gs -> gs | None -> []
  in
  (* Coordinator amnesia: the coordinator's side of the log is declared
     lost.  Strip its records and fall back to cooperative termination —
     an in-doubt participant's instance commits iff some sibling resource
     manager remembers the commit decision; only then is abort presumed.
     A remembered commit is synthesized into the log as the participant's
     own decided record so analysis treats it like a delivered decision. *)
  let records, termination_commits =
    if not amnesia then (records, [])
    else
      let commits =
        List.concat_map
          (fun rm ->
            List.filter_map
              (fun (token, cid) ->
                if Coordinator.cooperative_decision ~rms ~cid then
                  Some (token / 1_000_000, token mod 1_000_000)
                else None)
              (Rm.in_doubt rm))
          rms
        |> List.sort_uniq compare
      in
      ( List.filter
          (function
            | Wal.Coord_begin _ | Wal.Coord_committed _ | Wal.Coord_forgotten _ -> false
            | _ -> true)
          records
        @ List.map (fun (pid, act) -> Wal.Prepared_decided { pid; act; commit = true }) commits,
        commits )
  in
  let on_step step =
    if Obs.Tracer.active obs then Obs.Tracer.emit obs (Obs.Recovery_step step)
  in
  if amnesia then on_step "coordinator amnesia: cooperative termination";
  match Recovery.analyze ~on_step ~procs records with
  | Error e -> Error e
  | Ok plan ->
      let t = create ~config ~tracer:obs ~spec ~rms () in
      let find_proc pid = List.find_opt (fun pr -> Process.pid pr = pid) procs in
      (* decide a token still prepared at its resource manager *)
      let settle proc act ~commit =
        let rm = rm_of t (Process.find proc act) in
        let token = activity_token ~pid:(Process.pid proc) ~act in
        if Rm.is_prepared rm ~token then
          if commit then begin
            Rm.commit_prepared rm ~token;
            Metrics.incr t.metrics "indoubt_resolved";
            Metrics.incr t.metrics "twopc_commits"
          end
          else begin
            Rm.abort_prepared rm ~token;
            Metrics.incr t.metrics "twopc_aborts"
          end
      in
      (* the cooperatively recovered commit decisions: already in the
         analyzed log as the participant's decided records *)
      List.iter
        (fun (pid, act) -> Option.iter (fun proc -> settle proc act ~commit:true) (find_proc pid))
        termination_commits;
      (* Resolve in-doubt prepared invocations.  Durably committed ones
         (the coordinator logged [Coord_committed] but the DECISION message
         was lost in the crash) are re-delivered: committed at their
         subsystems, never aborted.  All others are presumed aborted. *)
      List.iter
        (fun (p : Recovery.process_plan) ->
          let resolve ~commit act =
            settle (Execution.proc p.exec) act ~commit;
            log t (Wal.Prepared_decided { pid = p.pid; act; commit })
          in
          List.iter (resolve ~commit:true) p.in_doubt_commit;
          List.iter (resolve ~commit:false) p.in_doubt)
        plan.interrupted;
      (* the pre-crash coordination state is now fully resolved: clear the
         in-doubt tags and remembered decisions so the fresh coordinator's
         instance ids cannot be confused with pre-crash ones *)
      List.iter Rm.reset_coordination rms;
      (* processes that already terminated keep their outcome *)
      List.iter
        (fun (pid, outcome) ->
          Option.iter
            (fun proc ->
              let groups = groups_of pid in
              validate_exn t ~groups proc;
              let ps = register t ~groups proc in
              ps.phase <- Done { outcome; rolled_back = false })
            (find_proc pid))
        (List.map (fun pid -> (pid, Execution.Committed)) plan.committed
        @ List.map (fun pid -> (pid, Execution.Aborted)) plan.aborted);
      (* rebuild interrupted processes and queue their completions *)
      let entries =
        List.map
          (fun (p : Recovery.process_plan) ->
            let groups = groups_of p.pid and proc = Execution.proc p.exec in
            validate_exn t ~groups proc;
            let ps = register t ~groups proc in
            ps.exec <- p.exec;
            ps.phase <- Recovering None;
            bump_pid t p.pid;
            log t (Wal.Abort_requested p.pid);
            (p.pid, Execution.completion p.exec))
          plan.interrupted
      in
      (* replay the pre-crash events into the new history in their global
         (WAL) order, so that the recovered history is self-contained and
         the completion ordering below sees every pre-crash conflict.
         The re-appends also make the new log self-contained. *)
      List.iter
        (fun ev ->
          emit t ev;
          log t
            (match ev with
            | Schedule.Act inst -> (
                let { Activity.proc = pid; act } = (Activity.instance_base inst).Activity.id in
                match inst with
                | Activity.Forward _ -> Wal.Invoked { pid; act }
                | Activity.Inverse _ -> Wal.Compensated { pid; act })
            | Schedule.Commit pid -> Wal.Process_committed pid
            | Schedule.Abort pid -> Wal.Process_aborted pid
            | Schedule.Group_abort _ -> invalid_arg "Scheduler.recover: group abort in replay"))
        plan.replay;
      (* the replay completed the terminal processes' closures: they
         retire now *)
      List.iter
        (fun pid -> if Hashtbl.mem t.procs pid then Deps.mark_committed t.deps pid)
        plan.committed;
      List.iter
        (fun pid -> if Hashtbl.mem t.procs pid then Deps.mark_aborted t.deps pid)
        plan.aborted;
      if entries <> [] then begin
        emit t (Schedule.Group_abort (List.map fst entries));
        queue_completions t entries;
        Des.after t.sim 0.0 (fun _ -> run_rollback_queue t)
      end;
      Metrics.incr t.metrics "recovered_processes" ~by:(List.length entries);
      Ok t

let disable_lemma1 t = t.no_lemma1 <- true
let ignore_wakeup_witnesses t = Wakeup.ignore_witnesses t.wakeup

(* Self-check for the incremental latent base (tests only): derive the
   base over the unretired sources from scratch with the one-shot
   algorithm and compare edge sets, source sets, closures, the retired
   closure union, and the order state's cyclicity verdict against a
   fresh DFS.  Forward order is asserted between unretired endpoints
   only: retired processes have no position. *)
let latent_self_check t =
  let lt = latent_base t in
  let sources = latent_sources t in
  let targets = List.filter live (index t) in
  let scratch_edges =
    List.concat_map
      (fun q ->
        let qid = Process.pid q.proc in
        let qconf = Bitset.create () in
        latent_qconf_into t q ~into:qconf;
        List.filter_map
          (fun r ->
            let rid = Process.pid r.proc in
            if rid <> qid && latent_hits t qconf r then Some (qid, rid) else None)
          targets)
      sources
  in
  let inc =
    Hashtbl.fold (fun q out acc -> Hashtbl.fold (fun r () acc -> (q, r) :: acc) out acc) lt.lt_out []
    |> List.sort_uniq compare
  in
  let scratch = List.sort_uniq compare scratch_edges in
  let pp_edges l =
    String.concat ";" (List.map (fun (i, j) -> Printf.sprintf "%d->%d" i j) l)
  in
  if inc <> scratch then
    Error
      (Printf.sprintf "latent edges differ: incremental [%s] vs scratch [%s]"
         (pp_edges inc) (pp_edges scratch))
  else begin
    let inc_sources =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) lt.lt_qconf [])
    in
    let ref_sources =
      List.sort compare (List.map (fun q -> Process.pid q.proc) sources)
    in
    if inc_sources <> ref_sources then
      Error
        (Printf.sprintf "source sets differ: incremental [%s] vs scratch [%s]"
           (String.concat "," (List.map string_of_int inc_sources))
           (String.concat "," (List.map string_of_int ref_sources)))
    else
      match
        List.find_opt
          (fun q ->
            let qid = Process.pid q.proc in
            let b = Bitset.create () in
            latent_qconf_into t q ~into:b;
            Bitset.elements b <> Bitset.elements (Hashtbl.find lt.lt_qconf qid))
          sources
      with
      | Some q ->
          Error (Printf.sprintf "stale closure for P%d" (Process.pid q.proc))
      | None -> (
          let union = Bitset.create () in
          List.iter
            (fun ps ->
              let pid = Process.pid ps.proc in
              if Deps.retired t.deps pid && Deps.committed t.deps pid then
                Bitset.union ~into:union ps.occ_conf)
            (pstates t);
          if Bitset.elements union <> Bitset.elements t.retired_conf then
            Error "retired closure union differs from a fresh fold"
          else
          let unretired n = not (Deps.retired t.deps n) in
          let combined =
            List.filter (fun (i, j) -> unretired i && unretired j) (Deps.edges t.deps) @ inc
          in
          let scratch_cyclic =
            let succ = Hashtbl.create 64 in
            List.iter
              (fun (i, j) ->
                Hashtbl.replace succ i
                  (j :: Option.value ~default:[] (Hashtbl.find_opt succ i)))
              combined;
            let color = Hashtbl.create 64 in
            let cyc = ref false in
            let rec visit n =
              match Hashtbl.find_opt color n with
              | Some `Gray -> cyc := true
              | Some `Black -> ()
              | None ->
                  Hashtbl.replace color n `Gray;
                  List.iter visit (Option.value ~default:[] (Hashtbl.find_opt succ n));
                  Hashtbl.replace color n `Black
            in
            List.iter (fun q -> visit (Process.pid q.proc)) sources;
            !cyc
          in
          match latent_resolve_order t lt with
          | None ->
              if scratch_cyclic then Ok ()
              else Error "order state says cyclic; scratch DFS finds no cycle"
          | Some pos -> (
              if scratch_cyclic then
                Error "order state valid; scratch DFS finds a cycle"
              else
                match
                  List.find_opt
                    (fun (i, j) ->
                      match (Hashtbl.find_opt pos i, Hashtbl.find_opt pos j) with
                      | Some pi, Some pj -> pi >= pj
                      | _ -> true)
                    combined
                with
                | Some (i, j) ->
                    Error
                      (Printf.sprintf "edge %d->%d not forward in maintained order" i j)
                | None -> Ok ()))
  end

let index_pids t = List.map (fun ps -> Process.pid ps.proc) (index t)
let retired t pid = Deps.retired t.deps pid
let dependency_edges t = Deps.edges t.deps

(* Failure forensics: the last [n] ring-buffer events plus the metrics
   snapshot, in one block a CI log can be diagnosed from.  With an
   inactive tracer the event section records that tracing was off. *)
let forensics ?(n = 40) fmt t =
  Format.fprintf fmt "=== forensics: last trace events (t=%.2f) ===@." (now t);
  if Obs.Tracer.active t.obs then begin
    let events = Obs.Tracer.recent ~n t.obs in
    if events = [] then Format.fprintf fmt "(no events recorded)@."
    else
      List.iter
        (fun (ts, ev) -> Format.fprintf fmt "[%8.2f] %a@." ts Obs.pp_event ev)
        events
  end
  else Format.fprintf fmt "(tracing disabled; enable the ring sink for event history)@.";
  Format.fprintf fmt "=== forensics: metrics snapshot ===@.%a@." Metrics.pp_summary
    t.metrics
