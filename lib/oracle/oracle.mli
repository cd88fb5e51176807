(** The process-level judgement of a finished or recovered run — the
    properties the paper proves of a completed schedule (§3–§4) plus the
    storage and 2PC obligations the harnesses add.  Test/bench-only: the
    stress harness, the crash-point sweep and the interleaving explorer
    all judge through this module and print its violations behind their
    own repro prefix.

    Every check returns the names of the properties it found violated,
    [[]] when all hold.  The names:
    - ["did not finish"]: a process is not terminal;
    - ["illegal history"]: {!Tpm_core.Schedule.legal} fails;
    - ["PRED violated"]: {!Tpm_core.Criteria.pred} fails;
    - ["not commit-order serializable"]:
      {!Tpm_core.Criteria.committed_serializable} fails;
    - ["Proc-REC violated"]: {!Tpm_core.Criteria.process_recoverable}
      fails;
    - ["leaked prepared token"]: a resource manager still holds a
      prepared (in-doubt) invocation;
    - ["locals not commit-order serializable"]: a subsystem-local schedule
      is not commit-order serializable (vacuous unless the order is
      [Weak]);
    - ["stores not explained by history replay"];
    - ["durably committed a_{p,a} aborted by recovery"] and
      ["durably committed a_{p,a} missing from history"]: presumed-abort
      soundness;
    - ["stores differ from twin"]. *)

val history : Tpm_core.Schedule.t -> string list
(** Legality, then PRED, commit-order serializability and Proc-REC of a
    history.  The criteria replay the history, so an illegal one reports
    ["illegal history"] alone. *)

val tokens : Tpm_subsys.Rm.t list -> string list
(** No resource manager holds a prepared token. *)

val locals : (string * Tpm_composite.Local.t) list -> string list
(** Every subsystem-local schedule is commit-order serializable. *)

val presumed_abort :
  before:Tpm_wal.Wal.record list ->
  after:Tpm_wal.Wal.record list ->
  Tpm_core.Schedule.t ->
  string list
(** Presumed-abort soundness across a crash.  [before] is the log the
    crash left; each activity whose coordinator logged [Coord_begin] and
    then [Coord_committed] in it was durably committed.  Recovery must
    not abort it (no [Prepared_decided { commit = false }] for it in
    [after], the recovered scheduler's log) and the recovered history
    must hold its forward occurrence. *)

val run :
  ?fresh:(unit -> Tpm_subsys.Rm.t list) ->
  ?before:Tpm_wal.Wal.record list ->
  Tpm_scheduler.Scheduler.t ->
  string list
(** The run suite over a scheduler driven to quiescence: termination,
    {!history}, {!tokens} over its resource managers, and {!locals}.

    [before] marks a recovered scheduler and adds {!presumed_abort}
    against that pre-crash log, reported first.

    [fresh] builds new resource managers with the same names and
    registries.  It adds store explainability: replaying every occurrence
    of the history in order into them, compensations through the
    declared inverse service, must reproduce the surviving stores.  The
    replay assumes argument-free invocations.
    @raise Failure if a compensated service has no inverse service. *)

val same_stores : Tpm_subsys.Rm.t list -> Tpm_subsys.Rm.t list -> string list
(** The two sets of resource managers hold the same names with equal
    store states (twin runs). *)
