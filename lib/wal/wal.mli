(** Write-ahead log of the transactional process scheduler.

    Every state transition relevant for recovery is appended before it is
    applied: activity invocations (committed or prepared/deferred),
    compensations, 2PC decisions, and process terminations.  After a crash
    {!Recovery} rebuilds the state of every interrupted process from the
    log and derives the completions to execute.

    The log lives in memory and can optionally be mirrored to disk as a
    sequence of segment files [path.NNNN.seg], each a run of CRC-framed
    records: [len (4 bytes LE) ∥ crc32(payload) (4 bytes LE) ∥ payload].
    Record boundaries come from the explicit length prefix, and the
    checksum turns bit damage into a {e detected} corruption rather than
    a wrong-but-valid record.  {!load} classifies every anomaly: a torn
    tail (the crash cut the final append short) is tolerated; anything
    else is corruption, reported with segment and record index. *)

type record =
  | Process_registered of int
  | Invoked of {
      pid : int;
      act : int;
    }  (** forward activity committed in its subsystem *)
  | Prepared of {
      pid : int;
      act : int;
    }  (** deferred-commit activity executed, locks held *)
  | Prepared_decided of {
      pid : int;
      act : int;
      commit : bool;
    }  (** 2PC outcome for a prepared activity *)
  | Compensated of {
      pid : int;
      act : int;
    }
  | Commit_requested of int
  | Process_committed of int
  | Abort_requested of int
  | Process_aborted of int  (** backward recovery completed: no effects remain *)
  | Ckpt_begin of { ckpt : int }
      (** checkpoint [ckpt] opened: the workload keeps logging until
          the matching {!Ckpt_end} seals the span *)
  | Ckpt_end of {
      ckpt : int;
      committed : int list;
      aborted : int list;
    }
      (** checkpoint [ckpt] sealed with the processes closed by the
          time it completed; only a {e complete} span bounds replay *)
  | Coord_begin of {
      cid : int;
      pid : int;
      act : int;
      parts : string list;
    }
      (** presumed-abort 2PC coordinator opened instance [cid] for the
          prepared activity [(pid, act)] with the named participants *)
  | Coord_committed of {
      cid : int;
      pid : int;
    }
      (** the commit decision is durable; it must be (re)delivered to all
          participants, never reversed.  Aborts are presumed: no decision
          record means abort. *)
  | Coord_forgotten of {
      cid : int;
      pid : int;
    }
      (** every participant acknowledged the decision; the instance needs
          no recovery attention *)
  | Kv_write of {
      rm : string;
      key : string;
      value : string option;
    }
      (** physical store mutation of resource manager [rm]: [value] is a
          marshaled {!Tpm_kv.Value.t} ([None] = delete), kept opaque here
          so the log stays independent of the kv layer.  The record's
          1-based position in the log is the LSN that stamps the page it
          lands on; paged stores replay these on recovery
          ({!Recovery.kv_redo}).  Ignored by {!Recovery.analyze}. *)
  | Dirty_pages of {
      rm : string;
      pages : (int * int) list;
    }
      (** checkpoint-time snapshot of [rm]'s dirty-page table as
          [(page id, rec_lsn)] pairs: every page not listed was clean
          (on disk) when this record was appended, so page redo may start
          at the minimum [rec_lsn] — or at this record's own position
          when the table was empty.  Ignored by {!Recovery.analyze}. *)

type sync_policy =
  | No_sync  (** never fsync: fast and explicitly unsafe *)
  | Sync_each
      (** the default: flush + fsync on every append whose record
          witnesses an effect or decides an outcome — every kind except
          [Process_registered], [Commit_requested], [Abort_requested],
          [Ckpt_begin], [Coord_forgotten], [Kv_write] and [Dirty_pages].
          The first five are read by no recovery path; a [Kv_write] is
          always followed, in the same synchronous block, by the forcing
          record that witnesses its local commit, and the buffer pool
          forces the log before a page carrying it reaches disk; a
          [Dirty_pages] snapshot is followed, in the checkpoint's
          synchronous seal, by the next paged store's forcing flush or by
          the forcing [Ckpt_end], and losing it only starts page redo
          earlier.  Lazy records
          stay buffered until the next forcing append's fsync (or an
          explicit {!sync}) covers them, so the durable log is always a
          prefix of the appended one. *)
  | Group of float
      (** group commit: appends buffer in the OS, one fsync per batch
          window (virtual-time seconds); a record is durable only once a
          {!sync} covers it *)

type t

val create :
  ?path:string -> ?sync:sync_policy -> ?segment_bytes:int -> ?fresh:bool -> unit -> t
(** With [path], every record is also framed to segment files.  Refuses
    a [path] that already holds records — reopening would destroy the
    only durable copy — unless [fresh:true] discards them explicitly.
    [segment_bytes] (default 1 MiB) bounds each segment; a record never
    spans two segments. *)

val append : t -> record -> unit
(** Durability first: the framed record reaches the log — and, under
    [Sync_each], an fsync if the record forces one (see {!Sync_each}) —
    before it is applied in memory.  A record that does not force, and
    every record under [No_sync]/[Group _], is written but not yet
    synced. *)

val sync : t -> int
(** Force an fsync covering every buffered append; returns the batch
    size (0 if nothing was pending).  The group-commit scheduler calls
    this once per window. *)

val pending : t -> int
(** Appends buffered since the last fsync. *)

val set_on_sync : t -> (int -> unit) -> unit
(** Callback invoked after each fsync with the size of the batch it
    covered — the hook group commit uses to release durability waiters. *)

val set_lie_probe : t -> (unit -> bool) -> unit
(** Fault injection: when the probe returns [true], the next fsync
    acknowledges its batch without making it durable (a lying disk);
    {!crash_image} exposes the loss. *)

type stats = {
  fsyncs : int;
  acked_records : int;  (** records some fsync acknowledged *)
  durable_records : int;  (** records an honest disk actually holds *)
  max_batch : int;  (** largest batch a single fsync covered *)
  segments : int;
}

val stats : t -> stats
val records : t -> record list
val size : t -> int
val close : t -> unit

val crash_image : t -> unit
(** Simulate power loss: truncate the on-disk segments back to the
    honest durable point, erasing buffered appends and any batches a
    lying fsync acknowledged.  The log is closed. *)

val segment_files : string -> string list
(** Existing segment files of a log base path, in order. *)

(** {2 Loading and anomaly classification} *)

type anomaly =
  | Torn_tail of {
      segment : int;
      offset : int;
    }
      (** incomplete final record of the final segment: the crash cut
          the append short; the intact prefix is the log *)
  | Corrupt_record of {
      segment : int;
      index : int;
      offset : int;
      reason : string;
    }  (** CRC mismatch, implausible length, or undecodable payload *)
  | Missing_segment of { segment : int }  (** a gap in the segment sequence *)
  | Short_segment of {
      segment : int;
      offset : int;
    }  (** a non-final segment ends mid-record: damage, not a torn write *)

val pp_anomaly : Format.formatter -> anomaly -> unit

type load_policy =
  | Fail_stop  (** raise {!Corrupt} on any corrupt-class anomaly *)
  | Salvage
      (** quarantine from the damage to the end of that segment and
          resume at the next segment boundary — the only place frame
          re-synchronization is sound *)

type load_report = {
  records : record list;  (** every intact record, in order *)
  anomalies : anomaly list;
  quarantined_bytes : int;  (** bytes skipped by salvage *)
  extents : (int * int * int) list;
      (** per returned record: (segment, byte offset, frame length) —
          the injection map for byte-level fault sweeps *)
}

exception Corrupt of {
  segment : int;  (** segment file holding the damage *)
  index : int;  (** zero-based index of the unreadable record *)
  reason : string;
}
(** Raised by {!load} under [Fail_stop] on corruption strictly inside
    the log — bytes that are present but not a well-formed record.
    Distinct from a torn tail, which is expected after a crash and
    tolerated: truncating at mid-log corruption would discard
    arbitrarily many valid records after it and unsoundly shrink the
    recovery plan. *)

val load : ?policy:load_policy -> string -> load_report
(** Reads a mirrored log back from its segment files.  A torn tail is
    tolerated under both policies; any other anomaly raises {!Corrupt}
    under [Fail_stop] (the default) and is quarantined under
    [Salvage]. *)

val load_records : string -> record list
(** [Fail_stop] load returning just the records. *)

(** Byte-level disk-fault primitives for test and sweep harnesses. *)
module Chaos : sig
  val flip_bit : path:string -> byte:int -> bit:int -> unit
  val truncate : path:string -> bytes:int -> unit
  val copy : src:string -> dst:string -> unit
end

val pp_record : Format.formatter -> record -> unit

val record_pids : record -> int list
(** Processes a record mentions (empty for checkpoint and page-store
    records). *)

val compact : record list -> record list
(** Drops every record that the last [Ckpt_end] makes redundant: the
    records before it of the processes it names as closed, and every
    checkpoint and [Dirty_pages] record before it (the span's
    [Ckpt_begin] included).  Records of processes the checkpoint did not
    close are kept wherever they appear, inside the span's window too.
    {!Recovery.analyze} yields the same plan on the compacted log.

    Page-store records: [Kv_write] records are always kept.
    Note that compaction renumbers positions, while page LSNs name
    positions in the {e uncompacted} log — {!Recovery.kv_redo} must run
    against the log as loaded from disk, never a compacted copy. *)
