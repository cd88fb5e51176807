(** Baseline comparators for the evaluation:

    - {!serial_makespan} — strictly serial execution: every process runs
      alone; the makespan is the sum of the individual makespans.  The
      lower bound on safety, the upper bound on time.
    - {!run} — real classical activity schedulers (strict 2PL with
      deadlock detection and victim abort; timestamp ordering with
      wts/rts validation aborts) over the same {!Tpm_subsys.Rm}
      substrate, treating a whole process as one transaction.  Both
      record per-subsystem local schedules for differential checking
      against {!Tpm_composite.Local.commit_order_serializable}.

    The scheduler's own comparators (serializability-only scheduling,
    conservative Lemma-1 delays) are plain {!Tpm_scheduler.Scheduler.mode}
    settings: [Naive_sr] and [Conservative]. *)

val serial_makespan :
  make_rms:(unit -> Tpm_subsys.Rm.t list) ->
  spec:Tpm_core.Conflict.t ->
  ?config:Tpm_scheduler.Scheduler.config ->
  ?args_of:(Tpm_core.Activity.t -> Tpm_kv.Value.t) ->
  Tpm_core.Process.t list ->
  float
(** Runs every process in its own scheduler over fresh resource managers
    and sums the makespans. *)

(** Which classical protocol {!run} schedules with. *)
type kind =
  | Two_pl  (** strict two-phase locking, conflict-relation granularity *)
  | Tso  (** timestamp ordering with wts/rts validation *)

type result = {
  makespan : float;
  finished : bool;  (** all processes reached a terminal state *)
  committed : int;
  aborted : int;  (** permanently aborted (restart budget exhausted) *)
  restarts : int;  (** whole-process rollback + restart events *)
  deadlocks : int;  (** 2PL: waits-for cycles broken *)
  validation_aborts : int;  (** TSO: wts/rts validation failures *)
  compensations : int;
  invocations : int;  (** committed forward invocations *)
  locals : (string * Tpm_composite.Local.t) list;
      (** per-subsystem local schedules, for the differential oracle *)
}

val run :
  kind ->
  spec:Tpm_core.Conflict.t ->
  rms:Tpm_subsys.Rm.t list ->
  ?service_time:float ->
  ?backoff:float ->
  ?retry_delay:float ->
  ?max_restarts:int ->
  ?horizon:float ->
  ?submit_at:(int -> float) ->
  Tpm_core.Process.t list ->
  result
(** Runs the given processes to termination under the chosen classical
    protocol.  A process is one transaction: under 2PL every activity
    locks its service (at the granularity of the conflict relation) until
    the whole process finishes, waits-for cycles abort the youngest
    rollbackable member; under TSO processes are timestamped at
    (re)submission and every activity validates against per-service
    wts/rts tables, aborting the process on out-of-order access.  Aborted
    processes roll back through the engine's completion (compensations
    run via {!Tpm_subsys.Rm.compensate}; a committed pivot forces forward
    completion instead) and restart after [backoff] (growing linearly
    with the restart count) with a fresh timestamp, up to [max_restarts].
    Injected invocation failures are retried in place after
    [retry_delay]. *)

val run_2pl :
  spec:Tpm_core.Conflict.t ->
  rms:Tpm_subsys.Rm.t list ->
  ?service_time:float ->
  ?backoff:float ->
  ?retry_delay:float ->
  ?max_restarts:int ->
  ?horizon:float ->
  ?submit_at:(int -> float) ->
  Tpm_core.Process.t list ->
  result

val run_tso :
  spec:Tpm_core.Conflict.t ->
  rms:Tpm_subsys.Rm.t list ->
  ?service_time:float ->
  ?backoff:float ->
  ?retry_delay:float ->
  ?max_restarts:int ->
  ?horizon:float ->
  ?submit_at:(int -> float) ->
  Tpm_core.Process.t list ->
  result
