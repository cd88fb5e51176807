(** Subprocess composition — the future-work direction sketched in the
    paper's conclusion: "identify transactional execution guarantees of
    subprocesses".

    A whole process with guaranteed termination behaves, seen from a
    parent process, like a single activity with a derived termination
    guarantee: all-compensatable processes can be undone as a unit,
    all-retriable processes are guaranteed to commit, and everything else
    acts as a pivot (it terminates in a well-defined way but cannot be
    undone once its state-determining activity committed).  {!classify}
    derives that guarantee and {!inline} substitutes a subprocess for a
    placeholder activity of the parent, preserving well-formedness.
    A subprocess can also stay inside its process as a declared
    {!group} that the scheduler admits as one unit. *)

val classify : Process.t -> (Activity.kind, Flex.issue list) result
(** The termination guarantee of the process as a unit:
    [Compensatable] if every activity is compensatable, [Retriable] if
    every activity is retriable, [Pivot] otherwise.  Errors if the
    process is not structurally well-formed (a subprocess must have
    guaranteed termination to act as an activity at all). *)

type error =
  | Not_well_formed of Flex.issue list
  | Kind_mismatch of {
      placeholder : Activity.kind;
      derived : Activity.kind;
    }  (** the placeholder's declared guarantee differs from the child's *)
  | Unknown_placeholder of int
  | Join_would_form of int
      (** the child has several exit activities and the placeholder has
          successors: inlining would create a join, leaving the tree shape *)

val inline : parent:Process.t -> at:int -> child:Process.t -> (Process.t, error) result
(** [inline ~parent ~at ~child] replaces the placeholder activity [at] of
    [parent] by the whole graph of [child].  Child activities are
    renumbered (their ids are offset past the parent's maximum id) and
    adopt the parent's pid; predecessors of the placeholder precede the
    child's roots, the child's exits precede the placeholder's
    successors, and preference pairs that mention the placeholder are
    re-anchored.  The placeholder's declared kind must match
    [classify child]. *)

val pp_error : Format.formatter -> error -> unit

(** {2 Subprocess groups}

    Multi-level composition (Section 3.6; Börger et al.'s multi-level
    transaction control): a prec-convex sub-DAG of a process's activities
    declared a {e subprocess}.  The parent scheduler admits the whole
    group as one unit against the union of its members' conflict
    footprints; the inner engine (the process's own precedence order)
    schedules the children without further parent-level admission.
    Because the group claims its whole footprint at once, a conflicting
    outside activity is ordered entirely before or entirely after it. *)

type group = {
  gname : string;
  members : int list;  (** activity ids of the owning process *)
}

val validate : Process.t -> group list -> (unit, string) result
(** Names are unique (admission keys a group by its name); members exist
    and are pairwise disjoint across groups; no outside activity lies on a
    [≪]-path between two members (prec-convexity); no outside choice point
    branches into the group. *)

val services : Process.t -> group -> string list
(** The union admission footprint: the members' services, deduplicated. *)

val group_of : group list -> int -> group option
(** The group containing the activity, if any. *)
