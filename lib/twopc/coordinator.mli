(** Message-driven, durably-logged, presumed-abort two-phase commit.

    This is the crash-tolerant form of the protocol Lemma 1 relies on:
    the commit of a non-compensatable (prepared) activity is driven by an
    explicit coordinator exchanging [PREPARE] / [VOTE] / [DECISION] /
    [ACK] messages with the resource manager that holds the activity,
    over an unreliable {!Tpm_sim.Bus}, on the virtual clock.  An instance
    has exactly one participant: the activity's own subsystem.

    {b Presumed abort.}  The coordinator write-ahead-logs only three
    records: [Coord_begin] when an instance opens, [Coord_committed] when
    the participant votes yes — {e before} the DECISION message is sent —
    and [Coord_forgotten] once the participant acknowledged.  Abort
    decisions are never logged: recovery (and the coordinator answering
    an {!msg.Inquiry} for an unknown instance) presumes abort exactly
    when no commit record exists.

    {b Fault tolerance.}  Messages may be dropped, duplicated, delayed
    and reordered by the bus fault plan.  A per-instance retransmission
    timer re-sends PREPARE while the vote is missing and DECISION while
    the ack is; every handler is idempotent (duplicate votes, decisions
    and acks are absorbed), so the protocol terminates under any fault
    plan that eventually delivers.  A participant that stays in doubt too
    long re-inquires the coordinator (the termination protocol).  Under
    coordinator amnesia during recovery there is no sibling participant
    to ask: in-doubt tokens are presumed aborted. *)

type msg =
  | Prepare of {
      cid : int;
      token : int;
    }
  | Vote of {
      cid : int;
      rm : string;
      yes : bool;
    }
  | Decision of {
      cid : int;
      commit : bool;
    }
  | Ack of {
      cid : int;
      rm : string;
    }
  | Inquiry of {
      cid : int;
      rm : string;
    }  (** participant-initiated termination protocol probe *)

val pp_msg : Format.formatter -> msg -> unit

type t

val create :
  sim:Tpm_sim.Des.t ->
  bus:msg Tpm_sim.Bus.t ->
  log:(Tpm_wal.Wal.record -> unit) ->
  ?log_durable:(Tpm_wal.Wal.record -> (unit -> unit) -> unit) ->
  ?metrics:Tpm_sim.Metrics.t ->
  ?tracer:Tpm_obs.Obs.Tracer.t ->
  ?retransmit_after:float ->
  ?halted:(unit -> bool) ->
  unit ->
  t
(** Registers the coordinator endpoint (named ["coord"]) on the
    bus.  [log] must append durably (it is the scheduler's WAL append).
    [log_durable record k] appends [record] and runs [k] once the record
    is actually durable — the group-commit scheduler passes a batching
    implementation so DECISION messages only leave after the decision
    record's fsync; the default runs [k] synchronously (a plain [log] is
    durable on return).
    [retransmit_after] is the timer period for re-sending unanswered
    messages (default 1.0 virtual time units); [halted] silences the
    coordinator after a crash.  [tracer] (default disabled) records a
    retransmission event for every re-sent PREPARE/DECISION — ordinary
    traffic is traced by the bus itself ({!Tpm_sim.Bus.set_tracer}). *)

val start :
  t ->
  pid:int ->
  act:int ->
  rm:Tpm_subsys.Rm.t ->
  token:int ->
  on_done:(commit:bool -> unit) ->
  int
(** Opens an instance for the prepared activity [(pid, act)] whose token
    [token] is held by its one participant [rm], logs [Coord_begin],
    sends PREPARE and returns the instance id.  [on_done] fires (once)
    when the participant has acknowledged the decision — for a commit,
    after the activity's effects are durable at the participant. *)

val open_instances : t -> int

val fingerprint : t -> string
(** Canonical rendering of the coordinator's protocol state: every open
    instance with its phase (voting / deciding), its participant's vote
    and acknowledgement, plus the next instance id.  Part of the
    explorer's state-deduplication key. *)

module Participant : sig
  val attach :
    sim:Tpm_sim.Des.t ->
    bus:msg Tpm_sim.Bus.t ->
    rm:Tpm_subsys.Rm.t ->
    ?metrics:Tpm_sim.Metrics.t ->
    ?inquiry_after:float ->
    ?on_resolved:(token:int -> commit:bool -> unit) ->
    ?halted:(unit -> bool) ->
    unit ->
    unit
  (** Registers the resource manager's participant endpoint (named
      {!Tpm_subsys.Rm.name}).  On PREPARE it votes yes iff the token is
      still prepared, marking it in doubt; on DECISION it applies the
      outcome idempotently ({!Tpm_subsys.Rm.resolve_prepared}), invokes
      [on_resolved] in the same synchronous block (the scheduler logs the
      participant-side [Prepared_decided] record there), and
      acknowledges.  With [inquiry_after] set, a participant left in
      doubt that long sends INQUIRY probes to the coordinator until the
      decision arrives — the termination protocol. *)
end
