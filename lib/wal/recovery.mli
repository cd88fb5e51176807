(** Crash recovery of the process scheduler.

    From the write-ahead log and the (re-registered) process definitions,
    recovery reconstructs the execution state of every process that was
    interrupted, decides the fate of in-doubt prepared activities (abort:
    their subsystem transactions never committed), and derives the
    completion [C(P)] each interrupted process must execute — backward
    compensation for processes in [B-REC], local compensation plus the
    retriable forward path for processes in [F-REC].  This realizes the
    group abort [A(P_{n_1}, ..., P_{n_s})] of Definition 8 after a
    scheduler failure. *)

type process_plan = {
  pid : int;
  in_doubt : int list;
      (** prepared activity ids with no logged 2PC decision that recovery
          resolves to {e abort} (their subsystem transactions are rolled
          back) — the presumed-abort rule.  Every undecided prepare is
          resolved this way regardless of its position in the process's
          timeline: with two concurrent prepares an earlier one may still
          be undecided when a later activity logs, so "later effects
          exist" is no evidence of commit. *)
  in_doubt_commit : int list;
      (** prepared activity ids whose coordinator durably logged
          [Coord_committed] before the crash: the decision message must be
          re-delivered — recovery commits them at their subsystems, never
          aborts them.  Their effects survive in [exec]. *)
  exec : Tpm_core.Execution.t;
      (** the process's state at the crash, which the scheduler installs:
          its effective trace is the surviving effects, and its recovery
          state and completion are what recovery must execute *)
}

type t = {
  committed : int list;  (** processes already terminated (committed) *)
  aborted : int list;  (** processes already fully rolled back *)
  interrupted : process_plan list;  (** processes needing completion *)
  replay : Tpm_core.Schedule.event list;
      (** the surviving pre-crash schedule in WAL order, for the scheduler
          to re-append to its new history and log: occurrences, process
          commits and aborts.  An in-doubt prepare re-delivered as a
          commit sits at its [Coord_committed]; a presumed-aborted one is
          dropped.  Occurrences of processes absent from [procs] are
          skipped. *)
}

val analyze :
  ?on_step:(string -> unit) ->
  procs:Tpm_core.Process.t list ->
  Wal.record list ->
  (t, string) result
(** Rebuilds every process state by replaying the logged instances through
    the execution engine, and places the surviving pre-crash events
    ([replay]), in one pass over the log.  Fails if the log is
    inconsistent with the process definitions.  [on_step] (default:
    ignore) receives a human-readable line per analysis step — in-doubt
    resolutions and per-process plans — which the scheduler forwards to
    its tracer as [Recovery_step] events. *)

val pp : Format.formatter -> t -> unit

(** {2 Page-store redo} *)

type kv_redo_plan = {
  start_lsn : int;
      (** first LSN whose effect may be missing from the page file: the
          minimum [rec_lsn] of the last {!Wal.Dirty_pages} snapshot for
          the resource manager (its own position when the table was
          empty), or 1 with no snapshot at all *)
  ops : (int * string * string option) list;
      (** every [(lsn, key, value)] mutation of the resource manager at or
          past [start_lsn], in log order — feed to [Store.redo], whose
          page-LSN guard skips the ones already on disk *)
}

val kv_redo : rm:string -> Wal.record list -> kv_redo_plan
(** Bounded-redo plan for one resource manager's paged store.  Must run
    on the log {e as loaded from disk} — never a compacted copy, whose
    renumbered positions would break the LSN↔page_lsn correspondence. *)
