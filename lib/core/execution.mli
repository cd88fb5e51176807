(** Operational semantics of a single transactional process.

    The engine drives one process instance step by step: activities are
    invoked (committing or failing in the underlying subsystem), failures
    trigger backtracking to the next alternative of the nearest viable
    choice point (compensating the abandoned branch), and aborts execute
    the completion [C(P)] of the paper — full backward recovery in
    [B-REC], local backward recovery plus the retriable-only
    lowest-priority alternative in [F-REC].

    The state is immutable: every step returns a new state, which makes
    exhaustive enumeration of executions and property testing cheap. *)

type step =
  | Invoked of Activity.t  (** invocation that committed in its subsystem *)
  | Attempt_failed of Activity.t  (** invocation that terminated aborting (effect-free) *)
  | Compensated of Activity.t  (** the inverse activity was executed *)

type outcome =
  | Committed  (** some valid execution path completed (incl. via completion) *)
  | Aborted  (** full backward recovery: the process left no effects *)

type status =
  | Running
  | Finished of outcome

(** Recovery state of the process (paper, Section 3.1). *)
type recovery_state =
  | B_rec  (** backward-recoverable: no non-compensatable activity committed *)
  | F_rec  (** forward-recoverable: a state-determining activity committed *)

type t

exception Stuck of string
(** Raised when recovery is impossible: a non-compensatable activity
    committed but no retriable-only alternative leads to termination.
    Never raised for processes with guaranteed termination. *)

val start : Process.t -> t
val proc : t -> Process.t
val status : t -> status
val recovery_state : t -> recovery_state

val enabled : t -> int list
(** Activities invocable now: on the current plan, not yet executed, all
    plan-predecessors committed.  Empty when finished.  The plan (the
    activities reachable under the current alternatives) is kept per
    {!choices}: computed on first use after a branch switch, shared by
    every later step until the next one, and dropped once finished. *)

val choices : t -> (int * int) list
(** The current alternative index of each choice point that ever
    switched, ascending by choice point; an absent one takes its first
    alternative. *)

val executed : t -> int list
(** Currently committed (and not compensated) activities, in execution
    order. *)

val exec : t -> int -> t
(** [exec s n]: invocation of activity [n] committed.
    @raise Invalid_argument if [n] is not enabled. *)

val fail : t -> int -> t
(** [fail s n]: invocation of activity [n] terminated aborting.  For a
    retriable activity this only records the attempt ([n] stays enabled).
    For others the engine backtracks: it compensates the abandoned branch
    and switches the nearest viable choice point to its next alternative,
    or performs full backward recovery when the process is in [B-REC]
    with no alternative left.
    @raise Invalid_argument if [n] is not enabled.
    @raise Stuck if the process has no guaranteed termination. *)

val can_commit : t -> bool
(** The current plan is fully executed. *)

val commit : t -> t
(** Finish with {!Committed}. @raise Invalid_argument if not {!can_commit}. *)

val abort : t -> t
(** Scheduler-initiated abort [A_i]: executes the completion.  In [B-REC]
    the process finishes {!Aborted}; in [F-REC] it finishes {!Committed}
    through the lowest-priority retriable path (paper, Section 3.1).
    @raise Invalid_argument if already finished.
    @raise Stuck if the process has no guaranteed termination. *)

val completion : t -> Activity.instance list
(** [C(P)] from the current state, without applying it: the activities an
    abort would execute, in order (paper, Section 3.1 and Example 2). *)

val replay_instance : t -> Activity.instance -> (t, string) result
(** Replays one observed schedule occurrence against the state.
    [Forward a] commits [a], switching an exhausted choice point to the
    alternative that makes [a] invocable when needed (this reconstructs
    branch switches, whose triggering failures are effect-free and hence
    absent from schedules).  [Inverse a] compensates [a], legal only if
    [a] is the process's most recently executed activity (compensation is
    applied in reverse order, cf. Lemma 2).  Errors on illegal
    occurrences. *)

val trace : t -> step list
(** All steps so far, chronological. *)

val effective_trace : t -> Activity.instance list
(** The trace restricted to effectful steps: committed invocations and
    compensations, chronological. *)

val state_determining_executed : t -> int option
(** The most recently committed non-compensatable activity, if any (the
    current local state-determining element [s_{i_k}]). *)

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> t -> unit

val valid_executions : ?max_states:int -> Process.t -> Activity.instance list list
(** All distinct non-empty effective traces of terminal executions,
    obtained by exhaustively branching every enabled activity into
    commit/fail (failures only for non-retriable activities, cf.
    Definitions 3–4).  Sorted; deduplicated.  Exploration stops after
    [max_states] (default [100_000]) states.
    @raise Stuck if the process has no guaranteed termination. *)
