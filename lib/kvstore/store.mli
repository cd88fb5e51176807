(** A versioned key-value store, the state each simulated subsystem acts
    on.  Every {e effective} write bumps a global version; snapshots allow
    observational comparisons (used to validate effect-freeness and
    commutativity of services, Definitions 1 and 6).

    Two backends share the exact same interface: the default in-memory
    hash table, and a paged store ({!create_paged}/{!open_paged}) whose
    cells live on slotted pages cached by a bounded {!Bufpool} over a
    {!Pager} file — datasets larger than the frame budget spill to disk,
    with writeback coordinated against the WAL's honest durable marker
    once {!connect_wal} wires the store to a log. *)

type t

val create : unit -> t
(** In-memory store. *)

val get : t -> string -> Value.t
(** [Nil] for absent keys. *)

val set : t -> string -> Value.t -> unit
(** No-op (no version bump, no log record, no page dirtied) when the key
    already holds an equal value: a genuinely effect-free service must
    not be misclassified as effectful by the version counter. *)

val delete : t -> string -> unit
(** No-op on an absent key, for the same reason. *)

val mem : t -> string -> bool
val keys : t -> string list

val version : t -> int
(** Monotone counter of effective writes. *)

val snapshot : t -> (string * Value.t) list
(** Sorted key-value pairs. *)

val restore : t -> (string * Value.t) list -> unit
(** Replaces the whole content.  Contract: duplicate keys in the list
    resolve to the last occurrence; the version counter advances by
    {e exactly one} for the whole replacement — and not at all when the
    effective content equals what the store already holds. *)

val copy : t -> t
(** Version-faithful value copy: same content {e and} same version, so
    version-based comparisons hold across a copy.  Always an in-memory
    store, whatever the source's backend. *)

val equal_state : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Paged backend} *)

val create_paged : ?frames:int -> ?page_size:int -> string -> t
(** Fresh paged store whose page file lives at the path.  [frames]
    bounds the buffer pool (default 64, min 1 — a 1-frame pool works,
    over-committing when it must); [page_size] as in {!Pager.create}. *)

val open_paged :
  ?policy:[ `Fail_stop | `Salvage ] ->
  ?frames:int ->
  string ->
  t * (int * string) list
(** Reopens a page file after a crash: scans every page, rebuilds the
    key directory and free-space map, and scrubs stale duplicates (a
    crash between two flushes can leave a moved key on both its old and
    new page; the cell on the page with the higher [page_lsn] wins).
    Under [`Fail_stop] (default) a damaged page raises
    {!Pager.Corrupt_page}; under [`Salvage] damaged pages are
    quarantined and reported as [(page, reason)] — their keys must come
    back through {!redo} against the full log.  The result holds only
    what the crash left on disk; drive {!Recovery.kv_redo} output
    through {!redo} to catch up to the durable log. *)

val is_paged : t -> bool

val connect_wal :
  t ->
  log:(string -> string option -> int) ->
  durable_lsn:(unit -> int) ->
  force_durable:(unit -> unit) ->
  unit
(** Wires a paged store to a write-ahead log. [log key value] must
    append a {!Wal.Kv_write} and return its LSN (the record's 1-based
    position); [durable_lsn]/[force_durable] feed the buffer pool's
    flush rule ({!Bufpool.set_wal}).  Every mutation is logged {e before}
    it touches a page, so the page's [page_lsn] is always covered by the
    log.  Under [Sync_each] the [Kv_write] does not force the log: a
    direct {!set} or {!delete} is durable at the next forcing append, the
    next WAL-rule flush (the pool forces the log before the page may
    reach disk) or the next [Wal.sync], whichever comes first.
    @raise Invalid_argument on an in-memory store. *)

val bufpool : t -> Bufpool.t option
(** The paged backend's pool ([None] for in-memory stores): stats,
    dirty-page table, flush hooks. *)

val flush : t -> unit
(** {!Bufpool.flush_all} on a paged store; no-op on in-memory. *)

val freeze : t -> unit
(** Crash semantics for the paged backend: no further page writes
    ({!Bufpool.freeze}); no-op on in-memory. *)

val redo : t -> lsn:int -> string -> string option -> unit
(** Replays one logged mutation ([None] = delete, [Some v] = marshaled
    value) during recovery.  On a paged store the page-LSN guard skips
    operations whose effect already reached disk; ops must be fed in log
    order.  Never logs — the operation is already in the log. *)
