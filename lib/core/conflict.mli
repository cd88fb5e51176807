(** Commutativity / conflict specification (paper, Definition 6).

    Two activities commute if swapping them never changes any return value;
    they conflict otherwise.  Following the paper we assume {e perfect}
    commutativity: an activity conflicts with another iff their inverses do
    as well, in all combinations.  We therefore key conflicts on the
    {e service name} of the underlying forward activity, making the perfect
    closure hold by construction. *)

type t

val empty : t
(** No service conflicts with any other (everything commutes). *)

val add : string -> string -> t -> t
(** [add s s' spec] declares services [s] and [s'] to be in conflict.
    The relation is kept symmetric; [add s s] declares a self-conflict. *)

val of_pairs : (string * string) list -> t

val union : t -> t -> t
(** Pointwise union of two specs (conflict pairs and effect-free sets) —
    composing the specs of independent workload clusters into the one
    relation a sharded run partitions by connected component. *)

val services_conflict : t -> string -> string -> bool

val conflicts : t -> Activity.instance -> Activity.instance -> bool
(** Perfect-commutativity conflict test between two schedule occurrences.
    An activity never conflicts with its own occurrences (the pair
    [(a, a^{-1})] is handled by the compensation rule, not the conflict
    relation), but distinct activities of the {e same} process may conflict. *)

val activities_conflict : t -> Activity.t -> Activity.t -> bool
(** Conflict test on forward activities (used for process-internal
    reasoning); distinct ids with conflicting services. *)

val declare_effect_free : string -> t -> t
(** Marks a service as effect-free (Definition 1): its invocations never
    change the return values of surrounding activities.  Note that an
    effect-free service (e.g. a query) may still conflict with others,
    because commutativity (Definition 6) also protects the service's own
    return values. *)

val effect_free : t -> string -> bool
val instance_effect_free : t -> Activity.instance -> bool

val pairs : t -> (string * string) list
(** The declared conflict pairs, each returned once with sides ordered. *)

val effect_free_services : t -> string list
(** The services declared effect-free, sorted. *)

val pp : Format.formatter -> t -> unit

(** Interned, bit-compiled view of the relation: service names mapped to
    dense ints, conflict matrix materialized as one {!Bitset} row per
    service.  Compiled once per scheduler; services first seen later
    (dynamic workloads) are interned on demand, with their row computed
    against the string spec so both views always agree. *)
module Compiled : sig
  type spec := t
  type t

  val make : spec -> t
  (** Interns every service the spec mentions (conflict pairs and
      effect-free declarations), in sorted order. *)

  val intern : t -> string -> int
  (** The dense id of a service name, allocating (and filling the new
      matrix row/column) on first sight.  A service first seen after
      {!make} is in no conflict pair, so its row and column are empty and
      every existing row is left unchanged: a union of rows cached before
      the intern stays exact after it. *)

  val find_opt : t -> string -> int option
  val size : t -> int
  val name : t -> int -> string

  val conflict : t -> int -> int -> bool
  (** One bit probe; agrees with {!services_conflict} on the names. *)

  val row : t -> int -> Bitset.t
  (** The set of services conflicting with [i].  Shared, do not mutate;
      the union of rows over a service set is its "conflict closure",
      letting set-vs-set conflict tests run as one intersection. *)

  val effect_free : t -> int -> bool
end
