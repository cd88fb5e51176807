(** Disjoint-set forest over the dense ints [0 .. n-1] (union by rank,
    path halving).  The shard partition unions conflict rows and
    per-process service bundles with it. *)

type t

val create : int -> t
(** [n] singletons. *)

val find : t -> int -> int
(** Canonical representative of [i]'s set; effectively O(α). *)

val union : t -> int -> int -> unit
