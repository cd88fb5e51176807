(** Bounded buffer pool over a {!Pager} page file.

    Pages are cached in a fixed budget of frames with pin counts and
    clock (second-chance) eviction.  Dirty frames carry two LSNs: the
    [rec_lsn] of the mutation that first dirtied the page since it was
    last clean, and the [page_lsn] of the latest mutation applied — the
    dirty-page table of ARIES-style recovery.

    The one invariant the pool enforces unconditionally is the WAL rule:
    {b no dirty page reaches disk while its [page_lsn] exceeds the WAL's
    honest durable marker} ({!Flush_ahead_of_durable} would be raised at
    the write, and the page-crash sweep asserts it never is).  When
    eviction finds only unflushable victims it first forces a WAL sync
    (under [Sync_each] a page write does not force the log itself, so
    this sync is how a page dirtied ahead of its witness record gets
    out); if the marker still does not cover them — a lying-fsync window — the
    pool over-commits an extra frame rather than violate the rule or
    deadlock, so a 1-frame pool stays live under any workload.

    The pool is WAL-agnostic: the durable marker and the sync force are
    injected as closures ({!set_wal}), keeping [tpm_kv] free of a
    dependency on the log library.  Without them every page is
    considered flushable (a standalone store without a log). *)

type t

exception Flush_ahead_of_durable of {
  page : int;
  page_lsn : int;
  durable : int;
}

val create : ?frames:int -> Pager.t -> t
(** [frames] (default 64, min 1) is the cache budget; pinned or
    unflushable pages can push residency above it (counted in
    [stats.overflows]). *)

val pager : t -> Pager.t
val frames : t -> int

val set_wal :
  t -> durable_lsn:(unit -> int) -> force_durable:(unit -> unit) -> unit
(** [durable_lsn ()] must return the WAL's {e honest} durable record
    count (lying fsyncs do not advance it); [force_durable ()] requests
    a sync.  The pool calls the latter at most once per eviction pass. *)

val set_on_flush : t -> (int -> unit) -> unit
(** Called after every page write with the cumulative flush count — the
    crash sweep's page-level trigger. *)

val with_page : t -> int -> (Bytes.t -> 'a) -> 'a
(** Read access under a pin: the frame cannot be evicted while [f]
    runs.  Loads (and possibly evicts) on a miss. *)

val with_page_w : t -> int -> lsn:int -> (Bytes.t -> 'a) -> 'a
(** Write access under a pin.  Marks the frame dirty before [f] runs
    (recording [rec_lsn] if it was clean) and stamps
    [page_lsn := max page_lsn lsn]. *)

val alloc : t -> int
(** Fresh page from the pager, cached as a clean empty frame. *)

val flush : t -> unit
(** Writes back every dirty page the durable marker already covers;
    leaves the rest dirty.  Never syncs the WAL. *)

val flush_all : t -> unit
(** [force_durable] once, then {!flush}.  Pages a lying fsync left
    uncovered remain dirty — the rule is never traded for completeness. *)

val freeze : t -> unit
(** Crash semantics: no further page write will happen (flushes become
    no-ops, eviction stops considering dirty victims and over-commits
    instead).  The page file is frozen at its current bytes. *)

val frozen : t -> bool

val dirty_page_table : t -> (int * int) list
(** [(page id, rec_lsn)] of every dirty frame, sorted by page id — what
    a fuzzy checkpoint logs as {!Wal.Dirty_pages}. *)

val min_rec_lsn : t -> int option

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  flushes : int;
  overflows : int;  (** frames admitted beyond the budget *)
  wal_syncs : int;  (** [force_durable] calls issued by eviction *)
  resident : int;
  dirty : int;
  pinned : int;
}

val stats : t -> stats
