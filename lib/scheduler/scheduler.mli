(** The transactional process scheduler: an online protocol guaranteeing
    prefix-reducible (PRED) schedules (paper, Sections 3.4–3.5).

    Processes are submitted and executed over simulated transactional
    subsystems ({!Tpm_subsys.Rm}) under a discrete-event clock.  The
    scheduler enforces, per the paper:

    - {b serializability}: a conflicting activity is only admitted if the
      process dependency graph stays acyclic;
    - {b Lemma 1}: a non-compensatable activity of [P_j] does not commit
      while a process [P_i] with a conflicting earlier activity is still
      uncommitted.  Depending on {!mode}, the activity is delayed entirely
      ([Conservative]), or executed with its subsystem commit {e deferred}
      and decided by two-phase commit once the predecessors commit
      ([Deferred]), or additionally admitted immediately when the paper's
      quasi-commit condition of figure 9 holds ([Quasi]);
    - {b Lemmas 2–3}: recovery executes compensations in reverse order of
      their originals and before conflicting retriable completion
      activities (via {!Tpm_core.Completed.completion_order});
    - {b guaranteed termination}: failed activities trigger alternative
      branches; aborts of processes in [F-REC] terminate through the
      retriable forward path; aborts of dependents cascade when a
      compensation would otherwise conflict (the CIM scenario of
      Section 2.2).

    Every effect is written ahead to the {!Tpm_wal.Wal}; {!recover} replays
    the log after a crash and finishes every interrupted process. *)

(** Handling of non-compensatable activities with uncommitted conflicting
    predecessors (Lemma 1) — or no recovery-aware admission at all
    ([Naive_sr]). *)
type mode =
  | Conservative  (** delay the activity until all predecessors committed *)
  | Deferred
      (** execute it, defer its subsystem commit, decide by 2PC when the
          predecessors commit (the paper's protocol) *)
  | Quasi
      (** [Deferred], plus immediate commit when the quasi-commit condition
          of figure 9 holds (predecessors forward-recoverable with
          conflict-free completions) *)
  | Naive_sr
      (** baseline comparator: serializability-only scheduling that ignores
          recovery (no Lemma-1 gating, no completion anticipation) — it
          reproduces the figure-1 anomaly and its histories may violate
          PRED *)

(** Retry policy for transient invocation failures (injected failures,
    timeouts, outage polls): capped exponential backoff with optional
    jitter.  Attempt [n] waits [min cap (base * multiplier^(n-1))],
    multiplied by a factor drawn uniformly from [1 - jitter, 1 + jitter]
    (the draw is skipped at [jitter = 0], keeping default runs
    bit-identical to jitter-free ones). *)
type backoff = {
  base : float;
  multiplier : float;
  cap : float;
  jitter : float;  (** in [0, 1); 0 disables jitter *)
  max_attempts : int option;
      (** transient-failure attempts granted to a {e non-retriable}
          activity before the scheduler degrades to the next alternative
          branch; [None] derives [max_failures - 1] from the activity's
          resource manager — strictly below the finite retry bound of
          Definition 3, so a persistently failing pivot is decided by
          degradation rather than by the bound's forced success.
          Retriables are unaffected: they retry until they succeed. *)
}

val default_backoff : backoff
(** [base 0.5, multiplier 2, cap 8, no jitter, derived max_attempts] —
    the first retry waits exactly the historical fixed backoff. *)

(** Which implementation decides admissions.  Both compute identical
    decisions; they differ only in cost. *)
type admission_engine =
  | Incremental
      (** interned services, conflict bitmatrix, cached future/occurrence
          bitsets, Pearce–Kelly incremental cycle detection (default) *)
  | Reference
      (** the pre-optimization path: string conflict tests over the raw
          spec and full-graph cycle checks — the oracle and the "old" arm
          of bench P11 *)
  | Checked
      (** run both on every admission and [failwith] on any divergence in
          the decision or the recorded dependency edges (differential
          testing; also cross-checks every [Deps.would_cycle] verdict) *)

(** How conflicting activities of different processes are ordered in
    their subsystems (Section 3.6). *)
type order =
  | Strong  (** sequential execution: a conflicting activity waits (default) *)
  | Weak
      (** overlapping execution: a conflicting activity may run while its
          predecessor is in flight or prepared, and the subsystem enforces
          the commit order (see {!config.order}) *)

type config = {
  mode : mode;
  exact_admission : bool;
      (** ablation: additionally verify, per admission, that the extended
          history remains reducible — the literal "consider the completed
          schedule" rule of Section 3.5.  Exact but expensive. *)
  order : order;
      (** Section 3.6.  [Strong] (default): a conflicting in-flight or
          prepared activity of another process blocks admission.  [Weak]:
          it does not; the admission records a dependency edge instead and
          per-subsystem local executors ({!Tpm_composite.Enforce}) realize
          that order — each activity opens a local transaction at
          dispatch, its local commit (the subsystem call) is {e held}
          until every prescribed predecessor's local transaction
          committed, and a predecessor's local abort restarts the
          dependent local transactions (not their processes).  Transient
          retries happen inside the open local transaction.  Under
          [Quasi], a predecessor whose conflicting activity is still in
          flight or prepared does not qualify for the quasi-commit.  The
          live local schedules are exposed via {!local_histories}. *)
  seed : int;
  service_time : string -> float;  (** mean duration of a service invocation *)
  stochastic_times : bool;  (** exponential durations instead of deterministic *)
  backoff : backoff;  (** retry policy for transient failures *)
  invocation_timeout : float option;
      (** client-side timeout: an invocation whose (latency-spiked)
          duration exceeds it is abandoned at the timeout and counted as a
          failed attempt.  [None] (default) waits invocations out. *)
  outage_degrade : bool;
      (** degrade a non-retriable activity to its next alternative branch
          as soon as its subsystem reports an outage ([true], default);
          [false] waits the outage out retrying — the ablation arm of the
          robustness experiments. *)
  twopc_retransmit : float;
      (** retransmission period of the 2PC coordinator: unanswered PREPARE
          and DECISION messages are re-sent this often (default 1.0).  Only
          observable under message faults — a fault-free exchange completes
          instantly in virtual time. *)
  twopc_inquiry : float option;
      (** the participant-side termination protocol: a resource manager
          left in doubt this long re-inquires the coordinator until the
          decision arrives (default [Some 3.0]).  [None] disables
          inquiries; the participant then waits passively for coordinator
          retransmission — the ablation arm of the message-fault
          experiments. *)
  admission_engine : admission_engine;
      (** which admission implementation runs (default [Incremental]) *)
  admission_clock : (unit -> float) option;
      (** wall-clock source for the ["admission_time"] metric (e.g.
          [Unix.gettimeofday]); [None] (default) skips the measurement *)
  wal_sync : Tpm_wal.Wal.sync_policy;
      (** durability of the mirrored log ([wal_path]): [Sync_each]
          (default) fsyncs every append that witnesses an effect or
          decides an outcome, and lets the rest ride on the next such
          fsync ({!Tpm_wal.Wal.Sync_each}); [Group w] coalesces concurrent
          durable appends — 2PC commit decisions, process commits — into
          one fsync per [w]-long batch window, with DECISION messages
          held until their record's fsync; [No_sync] never fsyncs.
          Irrelevant without [wal_path]. *)
  wal_segment_bytes : int;
      (** segment roll size of the mirrored log (default 1 MiB) *)
}

val default_config : config
(** [Deferred] mode, [Strong] order, seed 1, unit service times,
    deterministic, {!default_backoff}, no timeout, outage degradation on,
    2PC retransmission every 1.0, in-doubt inquiry after 3.0. *)

type t

val create : ?config:config -> ?faults:Tpm_sim.Faults.t ->
  ?choice:Tpm_sim.Choice.t ->
  ?tracer:Tpm_obs.Obs.Tracer.t -> ?wal_path:string ->
  spec:Tpm_core.Conflict.t -> rms:Tpm_subsys.Rm.t list -> unit -> t
(** [faults] (default {!Tpm_sim.Faults.none}) is installed into every
    registered resource manager and consulted by the scheduler for latency
    spikes and the WAL crash trigger.

    [choice] (default {!Tpm_sim.Choice.passive}) is the controlled-
    nondeterminism strategy, installed into every resource manager and
    the message bus: under the passive strategy all randomness comes from
    the PRNGs exactly as before (bit-identical streams); under a driven
    strategy failure injection, message delivery order and — with
    {!Tpm_sim.Faults.t} [crash_explore] — crash placement become recorded
    choice points the explorer enumerates.

    [tracer] is this scheduler's private observability plane: admissions
    (with explain payloads), dispatches, occurrences, backoff waits,
    deflections, 2PC bus traffic, WAL appends and recovery steps are
    emitted as typed {!Tpm_obs.Obs.event}s on the simulation's virtual
    clock.  Defaults to {!Tpm_obs.Obs.Tracer.disabled} — unless the
    [TPM_TRACE] environment variable is set non-empty (and not ["0"]),
    which enables a stderr pretty-printing tracer (the compat form of
    the removed global [trace] flag).
    @raise Invalid_argument if two resource managers share a name. *)

val submit :
  t ->
  ?at:float ->
  ?args_of:(Tpm_core.Activity.t -> Tpm_kv.Value.t) ->
  ?groups:Tpm_core.Compose.group list ->
  Tpm_core.Process.t ->
  unit
(** Registers a process for execution at virtual time [at] (default: now).

    [groups] declares subprocesses (Section 3.6, multi-level
    composition): each group is a prec-convex set of the process's
    activities that admits as ONE activity at the parent level — the
    union of its members' conflict rows is checked (and its footprint
    claimed) atomically at the first member's admission; the remaining
    members then dispatch without further parent-level admission, driven
    by the process's own precedence order (the inner engine).
    @raise Invalid_argument on duplicate pids, activities whose
    subsystem is unknown, or an ill-formed grouping
    ({!Tpm_core.Compose.validate}). *)

val request_abort : t -> ?at:float -> int -> unit
(** External abort [A_i]: the process terminates through its completion. *)

val run : ?until:float -> t -> unit
(** Drives the simulation until quiescence (or the time horizon). *)

val now : t -> float

val sim : t -> Tpm_sim.Des.t
(** The scheduler's discrete-event simulation.  The serving layer
    ({!Tpm_server.Server}) schedules its own arrival, shed-scan and
    drain events on the same virtual clock, so server runs stay
    deterministic and explorable. *)

val live_count : t -> int
(** Processes submitted but not yet terminal — the server's in-flight
    window occupancy. *)

val service_pressure : t -> string -> int
(** How many live processes hold state conflicting with the service: a
    committed occurrence (tested against the cached conflict closure) or
    a conflicting in-flight invocation.  The serving layer's saturation
    probe for the [Degrade] overload policy. *)

val subsystems : t -> string list
(** Names of the registered resource managers, sorted — the server
    validates untrusted submissions against it before admission. *)

val rms : t -> Tpm_subsys.Rm.t list
(** The registered resource managers, sorted by name. *)

val set_subsystem_observer : t -> (subsystem:string -> ok:bool -> unit) -> unit
(** Installs an availability observer: called with [ok:false] on every
    [Rm.Unavailable] answer and client-side invocation timeout, and
    [ok:true] on every successful (committed or prepared) answer.  The
    server's per-subsystem circuit breakers feed on it. *)

val history : t -> Tpm_core.Schedule.t
(** The schedule emitted so far: committed occurrences, compensations,
    completion activities, and terminal events. *)

val serialization_order : t -> int list
(** A valid serialization order at any instant (aborted processes
    excluded): retired processes in retirement order, then the
    maintained Pearce–Kelly order of the rest, read off without a graph
    traversal. *)

val status : t -> int -> Tpm_core.Schedule.status
val finished : t -> bool
(** All submitted processes reached a terminal state. *)

val local_histories : t -> (string * Tpm_composite.Local.t) list
(** The enforcement layer's live per-subsystem local schedules, sorted
    by subsystem name — what the {!Tpm_composite.Fork} and
    {!Tpm_composite.Local} checkers consume.  They record the {e
    forward} weak-order transactions only (one per activity attempt
    chain: footprint at dispatch, commit at the subsystem call,
    restarts as abort + re-emission); compensations and completion
    activities are deliberately outside them.  Empty under the [Strong]
    order. *)

val enforcement_held : t -> int
(** Local commits the enforcement layer delayed at least once. *)

val metrics : t -> Tpm_sim.Metrics.t
(** The scheduler's counters and series.  Three count admission work:
    - ["admissions"]: admission decisions computed (one per enabled
      activity asked, whatever the engine);
    - ["admission_parked"]: processes the wake loop skipped because
      their park held — every enabled activity was delayed and no pid of
      the delay's witness, and no structural invalidation or
      dependency-edge removal, changed since.  Always [0] under the
      [Reference] engine, which computes no witnesses;
    - ["admission_delays"]: delayed processes per wake pass, parked ones
      included — the count a full rescan would give, so it is identical
      across engines.
    Under the [Checked] engine every skip re-derives the parked process's
    decisions and fails with ["missed wakeup: ..."] if one admits. *)

val wal_records : t -> Tpm_wal.Wal.record list

val tracer : t -> Tpm_obs.Obs.Tracer.t
(** The scheduler's tracer (possibly {!Tpm_obs.Obs.Tracer.disabled}).
    Close it after the run to flush file sinks. *)

val forensics : ?n:int -> Format.formatter -> t -> unit
(** Failure forensics: the last [n] (default 40) ring-buffer trace
    events plus the metrics snapshot — dumped by the stress and
    crash-sweep harnesses on any invariant failure so CI logs alone
    suffice to diagnose it. *)

val msg_deliveries : t -> int
(** 2PC messages delivered so far on the scheduler's bus — the axis along
    which the crash sweep places delivery-point crashes. *)

val state_fingerprint : t -> string
(** Canonical rendering of the explorable state: per-process phase,
    in-flight and pending work, execution position, the rollback queue,
    attempt counters, every subsystem's {!Tpm_subsys.Rm.fingerprint}, the
    2PC coordinator's protocol state ({!Tpm_twopc.Coordinator.fingerprint})
    and the bus's undelivered message pool.  Equal fingerprints mean the
    two states behave identically under identical future decisions — the
    explorer's state-deduplication key.  Virtual time is deliberately
    excluded (states differing only in clock value are merged; sound for
    the time-independent oracles the explorer checks). *)

val checkpoint : ?window:float -> t -> unit
(** Appends a checkpoint span: [Ckpt_begin] now, and after [window]
    (default 0.0) of virtual time a [Ckpt_end] naming every process
    terminated by then; {!Tpm_wal.Wal.compact} can then drop their
    records from the log.  Just before [Ckpt_end], every paged
    resource-manager store flushes what the durable marker covers and
    logs a [Dirty_pages] snapshot, bounding page redo after a crash to
    the snapshot's minimum rec_lsn.  A zero window seals the span before
    returning.  A positive window lets appends flow inside the span; a
    crash before [Ckpt_end] leaves it incomplete, and compaction falls
    back to the previous complete checkpoint. *)

val wal : t -> Tpm_wal.Wal.t
(** The scheduler's write-ahead log (for stats, sync and crash imaging
    by test/sweep harnesses). *)

val crash : t -> Tpm_wal.Wal.record list
(** Simulates a scheduler failure: drops all volatile state and returns
    the persistent log.  Paged stores share the host's fate — their page
    files are frozen at the crash instant and must be rebuilt with
    {!Tpm_kv.Store.open_paged} plus {!Tpm_wal.Recovery.kv_redo}.
    In-memory subsystems survive (they are independent
    transactional systems); in-doubt prepared invocations stay pending
    until recovery decides them. *)

val is_crashed : t -> bool
(** True once {!crash} was called or the fault plan's
    [crash_after_appends] trigger fired.  A crashed scheduler stops
    logging and dispatching; drive {!run} to quiescence, then feed
    {!wal_records} to {!recover}. *)

val recover :
  ?config:config ->
  ?amnesia:bool ->
  ?tracer:Tpm_obs.Obs.Tracer.t ->
  ?groups:(int * Tpm_core.Compose.group list) list ->
  spec:Tpm_core.Conflict.t ->
  rms:Tpm_subsys.Rm.t list ->
  procs:Tpm_core.Process.t list ->
  Tpm_wal.Wal.record list ->
  (t, string) result
(** Builds a new scheduler from the log by applying the plan of
    {!Tpm_wal.Recovery.analyze}, the only reader of the log's process
    records: decides the plan's in-doubt prepared invocations at the
    subsystems (presumed abort — except tokens whose coordinator durably
    logged [Coord_committed], whose lost DECISION is re-delivered as a
    commit), installs each interrupted process's execution state,
    re-appends the plan's replay to the new history and log (which are
    therefore self-contained), and schedules the completion of every
    interrupted process (the group abort of Definition 8).  Run it with
    {!run} to finish recovery.

    [amnesia] declares the coordinator's log records lost: recovery then
    ignores them and resolves in-doubt tokens by cooperative termination —
    commit iff a sibling resource manager remembers the commit decision,
    presumed abort otherwise. *)

val activity_token : pid:int -> act:int -> int
(** The deterministic subsystem token of an activity occurrence (stable
    across crashes, so recovery can address prepared invocations). *)

(**/**)

val probe_admission : t -> admission_engine -> pid:int -> act:int -> unit
(** Computes and discards the pure admission decision of the given engine
    on the current state — nothing is mutated, no dependency edges are
    recorded.  Benchmarking hook: bench P11 times both engines on
    identical mid-run states this way (running the reference engine live
    at large scales is exactly what the optimization removed).
    @raise Not_found if [pid] is unknown, [Invalid_argument] if [act] is
    not an activity of the process. *)

val latent_self_check : t -> (unit, string) result
(** Testing hook for the incrementally maintained latent base: rebuilds
    the candidate-independent base (edges, per-source conflict closures)
    from scratch with the one-shot algorithm and compares it against the
    maintained state, including the combined-graph order's cyclicity
    verdict.  [Error msg] names the first divergence. *)

val disable_lemma1 : t -> unit
(** Mutation hook, tests only: from now on the scheduler skips the
    Lemma-1 gating of non-compensatable activities entirely, committing
    them immediately even while conflicting predecessors are uncommitted.
    Exists so the explorer's self-test can prove it detects the resulting
    PRED violation. *)

val ignore_wakeup_witnesses : t -> unit
(** Mutation hook, tests only: from now on a parked admission waiter
    stays parked whatever its witness pids do, so the wake loop keeps
    skipping processes whose delay no longer holds.  Exists so a test can
    prove the missed-wakeup detector of the [Checked] engine fires. *)

val gc_deps : t -> int
(** Drop parked cycle-closing dependency edges both of whose endpoints
    terminated (see {!Deps.compact}); returns the number dropped.  Safe
    at any point; intended for long-lived serving loops. *)

val index_pids : t -> int list
(** The pids the per-event scans walk: live processes plus terminated
    ones that have not retired, ascending (testing hook). *)

val retired : t -> int -> bool
(** Whether the process has retired from the dependency graph (testing
    hook; see {!Deps.retired}). *)

val dependency_edges : t -> (int * int) list
(** The dependency edges currently stored, sorted (testing hook). *)

val dump : Format.formatter -> t -> unit
(** One line of internal state per process (debugging aid). *)
