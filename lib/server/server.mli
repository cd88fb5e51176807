(** Open-world process serving: a front door over the scheduler.

    The closed-batch harnesses submit a fixed process set and run to
    quiescence.  [Server] instead accepts submissions continuously — over
    an in-process offer call, an arrival script, or the Lang textual
    format on a file descriptor — and decides {e whether} each submission
    enters the system at all, under an explicit overload policy:

    - {!Reject}: any overload condition fast-fails the submission with a
      typed reason;
    - {!Queue}: overloaded submissions wait in a bounded, deadline-aware
      admission queue and are shed on expiry;
    - {!Degrade}: when the preferred branch's conflict set is saturated,
      the submission is admitted via its alternative/compensable branch
      (the preferred alternatives pruned away), falling back to a typed
      reject when no well-formed degraded variant exists.

    Per-subsystem circuit breakers (open on consecutive
    [Rm.Unavailable]/timeout answers, half-open probe, close on success)
    keep a dying subsystem from eating the admission window, and
    {!drain} implements graceful shutdown: stop intake, settle in-flight
    work, seal the WAL.

    Everything runs on the scheduler's discrete-event clock, so a server
    run is exactly as deterministic and explorable as a batch run: the
    same seed and the same arrival script yield a bit-identical decision
    sequence ({!decision_log}). *)

(** What to do with a submission the fast path cannot admit. *)
type overload_policy =
  | Reject
  | Queue
  | Degrade

val policy_label : overload_policy -> string
val policy_of_string : string -> overload_policy option

(** Typed fast-fail reasons (the serving layer's analogue of the
    admission explain payload's {!Tpm_obs.Obs.reason}). *)
type reject_reason =
  | Window_full  (** in-flight window at [max_live] *)
  | Queue_full  (** bounded admission queue at capacity *)
  | Deadline_expired  (** shed from the queue past its submission deadline *)
  | Breaker_open of string  (** a required subsystem's circuit breaker is open *)
  | Saturated  (** [Degrade]: no admissible variant, conflict set saturated *)
  | Draining  (** intake stopped by {!drain} *)
  | Invalid of Tpm_scheduler.Scheduler.invalid
      (** the submission fails {!Tpm_scheduler.Scheduler.check_submission}
          (a pid seen before, an id the scheduler cannot pack, a subsystem
          or service nobody runs), or reuses a pid still queued here —
          caught at the front door so it can never detonate inside a
          simulation event *)

val reason_label : reject_reason -> string

type decision =
  | Admitted
  | Queued  (** waiting in the admission queue; the terminal decision follows *)
  | Degraded_admit of int  (** admitted via the fallback branch; [n] preferred activities pruned *)
  | Rejected of reject_reason

val decision_label : decision -> string

type config = {
  policy : overload_policy;
  max_live : int;  (** in-flight window: live processes admitted at once *)
  queue_capacity : int;
  default_deadline : float;
      (** virtual-time budget a queued submission may wait before it is
          shed ([Queue] policy) *)
  scan_period : float;
      (** period of the shed-scan/pump ticker (armed only while the
          queue is non-empty, so an idle server still quiesces) *)
  breaker_threshold : int;
      (** consecutive Unavailable/timeout answers that open a breaker *)
  breaker_cooldown : float;  (** open → half-open after this long *)
  saturation_limit : int;
      (** [Degrade]: a preferred branch is saturated when some service on
          it has at least this many live conflicting processes *)
}

val default_config : config
(** [Queue] policy, window 32, queue 64, deadline 10.0, scan 0.25,
    breaker threshold 3 / cooldown 5.0, saturation limit 8. *)

type counters = {
  offered : int;
  admitted : int;  (** via the preferred branch *)
  rejected : int;  (** typed fast-fails, including drain-time queue flush *)
  expired : int;  (** shed from the queue past their deadline *)
  degraded : int;  (** admitted via the fallback branch *)
}

type t

val create : ?config:config -> Tpm_scheduler.Scheduler.t -> t
(** Wraps a scheduler (installing its subsystem observer for the circuit
    breakers).  The server shares the scheduler's virtual clock, metrics
    and tracer. *)

val scheduler : t -> Tpm_scheduler.Scheduler.t
val config : t -> config

val offer : t -> ?deadline:float -> Tpm_core.Process.t -> decision
(** One submission at the current virtual time.  [deadline] overrides
    [default_deadline] ([Queue] policy).  [Queued] is not terminal: the
    entry is later admitted or shed by the ticker. *)

val submit_at : t -> at:float -> ?deadline:float -> Tpm_core.Process.t -> unit
(** Schedules [offer] at virtual time [at]. *)

val play : t -> (float * Tpm_core.Process.t) list -> unit
(** Schedules a whole arrival script ({!Tpm_workload.Generator.arrivals}). *)

val offer_text : t -> string -> ((int * decision) list, string) result
(** Parses a {!Tpm_core.Lang} document and offers every process in it,
    in order; returns the per-pid decisions or a parse error. *)

val run : ?until:float -> t -> unit
(** Drives the shared simulation (arrivals, queue scans, execution). *)

val drain : t -> unit
(** Graceful shutdown: stop intake (subsequent offers are rejected
    [Draining]), flush the admission queue as [Draining] rejects, run
    in-flight work to quiescence (finish or compensate), then seal the
    WAL with a final checkpoint and sync.  Idempotent. *)

val draining : t -> bool

val counters : t -> counters
val queue_depth : t -> int

val accounting_ok : t -> bool
(** The shed-accounting invariant:
    offered = admitted + rejected + expired + degraded + queue_depth —
    with equality and an empty queue once drained or quiescent. *)

val admitted_procs : t -> Tpm_core.Process.t list
(** The processes actually handed to the scheduler, in admission order —
    degraded variants included (under [Degrade] the admitted process is
    {e not} the offered one).  Recovery of a crashed server image must
    replay against exactly these definitions. *)

val decision_log : t -> string list
(** Chronological ["P<pid> <decision>"] lines, one per terminal decision
    plus one per enqueue — the determinism oracle: equal seeds and
    arrival scripts must yield equal logs. *)

val breaker_state : t -> string -> string
(** ["closed"], ["open"] or ["half-open"] for a subsystem (unknown
    subsystems are closed). *)

val steps : t -> int
(** Server-loop steps executed so far (arrival decisions, enqueues,
    sheds, pump admissions, drain stages) — the crash-sweep axis. *)

val set_step_hook : t -> (stage:string -> step:int -> unit) -> unit
(** Called after every server-loop step with its stage label
    ([arrival], [enqueue], [shed], [pump], [drain-start], [drain-queue],
    [drain-quiesce], [drain-seal]) and the step ordinal.  The crash sweep
    installs a hook that kills the scheduler at an exact step. *)

val handle_connection : t -> Unix.file_descr -> unit
(** Serves one connection of the line-oriented wire protocol: the client
    sends Lang documents terminated by a ["."] line; each document is
    answered with one [decision <pid> <label>] line per process, then the
    simulation runs to quiescence and a [status <pid> <committed|aborted>]
    line per admitted process plus one [counters ...] summary line are
    sent.  A document longer than 1 MiB is answered [error
    document-too-large] and skipped up to its ["."] line; the connection
    then serves the next one.  Returns at EOF.  The [tpm serve] loop and
    the socketpair tests drive this directly. *)
