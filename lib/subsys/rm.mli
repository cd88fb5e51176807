(** Resource managers: the simulated transactional subsystems of the paper
    (Section 2.3).

    Each invocation runs as a local transaction over the subsystem's
    store.  Invocations either commit immediately ({!invoke}) or are
    {e prepared} ({!prepare}): executed with their effects buffered and
    their key locks held, to be committed or rolled back later by the
    two-phase-commit protocol — the deferred commit of non-compensatable
    activities required by Lemma 1.

    The manager logs, per invocation token, the service, its arguments and
    the pre-images of written keys, enabling both semantic compensation
    (re-invoking the declared inverse service) and agent-style snapshot
    undo.  Failures are injected per service with configurable
    probability; an invocation is guaranteed to succeed once its attempt
    number reaches [max_failures] (Definition 3's finite retry bound).

    A {!Tpm_sim.Faults} plan models dynamic failure regimes: during a
    declared outage window the whole subsystem answers {!Unavailable}
    (effect-free, before any locking), and active failure bursts raise the
    per-service transient failure probability.  Invocations carry the
    virtual time [now] so the manager can consult the plan. *)

type outcome =
  | Committed of Tpm_kv.Value.t
  | Prepared of Tpm_kv.Value.t
  | Failed  (** local transaction aborted (effect-free) *)
  | Blocked of int list  (** lock conflict with the given prepared tokens *)
  | Unavailable
      (** the subsystem is inside an outage window: the invocation was
          never submitted (effect-free, no locks taken) *)

type t

val create :
  name:string ->
  registry:Service.Registry.t ->
  ?fail_prob:(string -> float) ->
  ?max_failures:int ->
  ?faults:Tpm_sim.Faults.t ->
  ?seed:int ->
  ?store:Tpm_kv.Store.t ->
  unit ->
  t
(** [store] (default: a fresh in-memory store) lets a harness back the
    subsystem with a paged store ({!Tpm_kv.Store.create_paged}); the
    scheduler then wires its WAL to it at construction. *)

val name : t -> string
val store : t -> Tpm_kv.Store.t
val registry : t -> Service.Registry.t

val max_failures : t -> int
(** The finite retry bound of Definition 3. *)

val set_faults : t -> Tpm_sim.Faults.t -> unit
(** Installs (or clears, with {!Tpm_sim.Faults.none}) the fault plan. *)

val set_choice : t -> Tpm_sim.Choice.t -> unit
(** Installs the decision strategy for failure injection.  Under the
    default {!Tpm_sim.Choice.passive} strategy failures are drawn from
    the manager's PRNG exactly as before; a driven strategy turns each
    possible injection (probability > 0, attempt below the retry bound)
    into a binary choice point tagged ["fail:<rm>:<token>"]. *)

val invoke :
  t ->
  token:int ->
  service:string ->
  ?args:Tpm_kv.Value.t ->
  ?attempt:int ->
  ?now:float ->
  unit ->
  outcome
(** Executes the service as a local transaction and commits it.  [token]
    identifies the activity occurrence (used later for compensation).
    Returns {!Failed} on an injected failure ([attempt] counts from 1),
    {!Blocked} when a needed key is locked by a prepared invocation, and
    {!Unavailable} when the fault plan declares an outage at virtual time
    [now] (default 0). *)

val prepare :
  t ->
  token:int ->
  service:string ->
  ?args:Tpm_kv.Value.t ->
  ?attempt:int ->
  ?now:float ->
  unit ->
  outcome
(** Like {!invoke}, but holds the transaction open (deferred commit): its
    writes stay invisible and its locks held until {!commit_prepared} or
    {!abort_prepared}. *)

val commit_prepared : t -> token:int -> unit
(** @raise Invalid_argument if the token is not prepared. *)

val abort_prepared : t -> token:int -> unit
val prepared_tokens : t -> int list

val is_prepared : t -> token:int -> bool
(** Constant-time membership test on the prepared set (replaces scanning
    {!prepared_tokens}). *)

val mark_in_doubt : t -> token:int -> cid:int -> unit
(** Tags a prepared token with the 2PC coordinator instance it voted in:
    from the participant's yes-vote until the decision arrives, the token
    is {e in doubt} and its locks stay held.  No-op if the token is not
    prepared. *)

val in_doubt : t -> (int * int) list
(** All [(token, cid)] pairs currently in doubt, sorted. *)

val in_doubt_token : t -> cid:int -> int option

val record_decision : t -> cid:int -> commit:bool -> unit
(** Remembers the decision applied for a coordinator instance, making
    duplicate PREPARE and DECISION messages idempotent.  The instance's
    one participant is the only holder of this memory, so coordinator
    amnesia cannot consult it: in-doubt tokens are presumed aborted. *)

val known_decision : t -> cid:int -> bool option

val resolve_prepared : t -> token:int -> commit:bool -> bool
(** Idempotent decision application: commits or aborts the token if it is
    still prepared (returning [true]), records the decision for its
    in-doubt cid, and is a no-op returning [false] otherwise. *)

val reset_coordination : t -> unit
(** Clears in-doubt tags and remembered decisions — called once recovery
    has resolved every in-doubt token, so a recovered scheduler's fresh
    coordinator can reuse instance ids. *)

val compensate : t -> token:int -> ?now:float -> unit -> outcome
(** Undoes the committed invocation identified by [token], according to
    the service's compensation strategy.  Compensating activities are
    retriable by definition: this never injects failures, but it does
    answer {!Unavailable} during an outage window (retry once the window
    closes) and {!Blocked} when the undo footprint is locked by a
    concurrent prepared transaction — both compensation paths
    (inverse service and snapshot undo) share this lock/outage
    discipline.
    @raise Invalid_argument if the token is unknown or the service is not
    compensatable. *)

val invocations : t -> int
(** Number of committed invocations so far. *)

val fingerprint : t -> string
(** Canonical rendering of the manager's model-relevant state: store
    contents, prepared and in-doubt tokens, remembered decisions,
    compensation log keys and the commit counter.  Equal fingerprints
    mean observably equal managers — the explorer's state-deduplication
    key. *)
