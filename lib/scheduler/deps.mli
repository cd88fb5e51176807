(** Process dependency tracking for the online scheduler.

    An edge [i -> j] records that some activity of [P_i] preceded a
    conflicting activity of [P_j] in the emerging schedule.  The scheduler
    admits no activity whose edges would close a cycle (serializability;
    see {!add_edge} for the one unchecked insert), delays commits so that
    [C_i] precedes [C_j] along edges, and uses the uncommitted
    predecessors of a process to decide when its non-compensatable
    activities may commit (Lemma 1).

    The graph keeps no topological order of its own: the scheduler's
    admission maintains the only one, over its combined graph (these
    edges ∪ the latent edges of the completed schedule, DESIGN §8).

    A terminated process whose predecessors have all retired {e retires}
    (DESIGN §8): its in-edges are dropped, and no edge from it is stored
    again.  The stored graph therefore tracks the unretired processes,
    not the history. *)

type t

val create : unit -> t
val add_process : t -> int -> unit

val add_edge : t -> int -> int -> unit
(** Stores the edge (a hash probe).  Only rollback completions insert
    unchecked, and their edge may close a cycle: the stored graph is then
    cyclic, and {!would_cycle} answers [true], until an abort removes an
    edge of the cycle — a cycle among processes that all committed stays.
    An edge from a retired or aborted source, or into an aborted target,
    is not stored; an edge into a retired target un-retires it (the
    scheduler never adds one). *)

val edges : t -> (int * int) list
(** Sorted view, memoized until the next mutation. *)

val would_cycle : t -> (int * int) list -> bool
(** Would adding all the given edges create a cycle among unaborted
    processes?  Rebuilds a {!Tpm_core.Digraph} from the stored edges plus
    the given ones and runs full-graph cycle detection.  Asked
    by the [Naive_sr] baseline and the Reference admission engine; the
    incremental admission decides on the scheduler's combined graph
    instead. *)

val set_check : t -> bool -> unit
(** Cross-check every {!uncommitted_preds} result against
    {!uncommitted_preds_reference}, failing loudly on divergence. *)

val mark_committed : t -> int -> unit
val mark_aborted : t -> int -> unit
(** Aborted processes left no effects: their edges are dropped.  Both
    retire the process if it qualifies and cascade to its terminated
    successors. *)

val retired : t -> int -> bool
(** Terminated, not held, and every predecessor retired. *)

val set_on_retire : t -> (int -> unit) -> unit
(** Called once per retirement, in retirement order. *)

val hold : t -> int -> unit
val release : t -> int -> unit
(** [hold] keeps a process unretired until [release] (which retires it
    if it then qualifies). *)

val retired_reference : t -> int list
(** The retired set re-derived from scratch (least fixpoint of the rule
    over the stored graph), sorted. *)

val check_retirement : t -> unit
(** Fails unless the maintained retired set equals
    {!retired_reference}. *)

val committed : t -> int -> bool

val uncommitted_preds : t -> int -> int list
(** Live predecessors of a process: direct ones, and those reaching it
    along live chains, possibly through one terminated direct
    predecessor.  Retired predecessors are skipped (they have nothing
    left to relay), so a call costs O(direct predecessors) plus the
    unretired region, not O(history). *)

val uncommitted_preds_reference : t -> int -> int list
(** The walk without the retired skip, rescanning every terminated
    direct predecessor's predecessors — the oracle {!set_check} compares
    against. *)

val succs : t -> int -> int list
(** Every direct successor — the adjacency the scheduler's
    combined-graph (deps ∪ latent base) DFS walks.  No status filter. *)

val iter_succs : t -> int -> (int -> unit) -> unit
(** Allocation-free {!succs} — the admission DFS walks adjacency once per
    visited node, so it must not build a list per visit. *)
