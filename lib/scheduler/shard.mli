(** Domain-sharded admission: partition processes by conflict-connected
    components of the compiled bitmatrix and run one admission engine per
    shard (DESIGN.md §13).

    Soundness of the partition: every dependency edge the scheduler
    records — admission order, weak order, latent (Section 3.5) —
    requires a service conflict, and the component relation closes over
    both declared conflicts and co-occurrence of services in one process.
    Processes of different components therefore never share an edge; each
    shard's graph is the full graph restricted to its component, and
    per-shard acyclicity (PRED) implies global acyclicity (PRED). *)

val partition :
  shards:int ->
  spec:Tpm_core.Conflict.t ->
  (float * Tpm_core.Process.t) list ->
  (float * Tpm_core.Process.t) list list
(** Deterministic closed-batch partition: one union-find over the batch's
    services, closed over declared conflicts and each process's service
    bundle; components are assigned round-robin to [shards] buckets in
    order of first appearance (processes with no activities count as one
    component).  Empty buckets are dropped, submission order is preserved
    within each bucket.  Depends only on [(spec, procs)], never on domain
    scheduling. *)

val run_parallel :
  ?domains:int ->
  ?shards:int ->
  ?wal_path:string ->
  config:Scheduler.config ->
  spec:Tpm_core.Conflict.t ->
  make_rms:(unit -> Tpm_subsys.Rm.t list) ->
  (float * Tpm_core.Process.t) list ->
  Scheduler.t list
(** Partition the batch into at most [shards] buckets and run one
    scheduler per bucket, [domains] workers pulling buckets from a shared
    queue.  [make_rms] must build fresh resource managers on every call
    (each scheduler owns its instances; they are not domain-safe).
    [wal_path] mirrors each shard's log to ["<path>.shard<i>"].  Returns
    the per-shard schedulers in bucket order, after all domains joined.

    [domains = 1] spawns no domain and runs the buckets inline in order;
    with [shards = 1] that is exactly the historical create/submit/run
    loop — bit-identical histories, decisions and stores. *)
