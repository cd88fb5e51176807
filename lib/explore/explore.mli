(** Systematic interleaving exploration (DPOR-lite).

    Stateless replay-based depth-first search over the simulation's
    recorded choice points ({!Tpm_sim.Choice}): a branch is identified by
    its decision prefix (a script of option indices); running a branch
    replays the prefix deterministically and takes canonical defaults
    beyond it, recording every decision with its per-option descriptors
    and a state fingerprint.  Alternatives at each recorded decision
    spawn new branches; three prunings bound the tree:

    - {b sibling symmetry}: an option whose descriptor equals an
      already-scheduled sibling's is skipped (identical pending messages
      are interchangeable);
    - {b sleep-set / persistent-set heuristic}: a delivery-order option
      that commutes with every option it would jump over — different
      endpoint {e and} different 2PC instance, read off the
      ["dst:c<cid>:<kind>"] descriptors — is skipped, since some explored
      order already covers it.  Failure, crash, drop and duplication
      choices are always treated as dependent;
    - {b state-fingerprint deduplication}: a (fingerprint, option) pair
      already expanded elsewhere in the tree is not expanded again
      ({!Tpm_scheduler.Scheduler.state_fingerprint} excludes virtual
      time, deliberately — see its doc).

    Every branch is judged by {!Tpm_oracle.Oracle.run} with store
    explainability, and with presumed-abort soundness after a crash.  A
    branch that injects no fault and no crash must also leave the same
    stores as the canonical branch ({!Tpm_oracle.Oracle.same_stores}).
    A violating branch is greedily minimized and can be serialized to a
    trace file that [tpm explore --replay] reproduces.

    The prunings are heuristic (hence DPOR-{e lite}); [explore
    ~prune:false] enumerates the unpruned tree, and the self-test
    cross-validates the two on the small built-in scenarios. *)

type scenario = {
  name : string;
  descr : string;
  spec : Tpm_core.Conflict.t;
  make_rms : unit -> Tpm_subsys.Rm.t list;
  procs : Tpm_core.Process.t list;
  submit_at : int -> float;  (** submission time of the i-th process *)
  config : Tpm_scheduler.Scheduler.config;
      (** run with [admission_engine] forced to [Checked]: every branch
          cross-checks admissions against the reference oracle and
          re-derives every skipped parked waiter *)
  crash_explore : bool;
      (** offer a crash choice point after every WAL append *)
  instrument : Tpm_scheduler.Scheduler.t -> unit;
      (** applied to every scheduler the branch creates, recovered ones
          included, before it runs: the place for test-only hooks *)
}

val scenarios : scenario list
(** The built-in configurations:
    - ["lemma1"]: the figure-1 shape — a compensatable activity of one
      process conflicting with another process's pivot, the first
      process's own pivot failable.  Lemma 1 defers the second pivot's
      commit; every interleaving satisfies every oracle.
    - ["lemma1-mut"]: the same with the
      {!Tpm_scheduler.Scheduler.disable_lemma1} mutation: the
      pivot commits immediately and the explorer must find the branch
      where the first process aborts and compensates {e after} it — the
      PRED violation of figure 1 (the mutation self-test).
    - ["twopc3"]: three processes, two concurrent 2PC instances against
      a long-running conflicting predecessor — real delivery-order
      branching.
    - ["twopc3-crash"]: ["twopc3"] with systematic crash placement after
      every WAL append, each crash followed by recovery and the
      post-crash oracles.
    - ["weak-abort"], ["weak-indoubt"], ["weak-indoubt-crash"]: the
      [Weak] order racing a group abort and in-doubt 2PC pivots (the
      last with crash placement); every branch must also keep the
      subsystem-local schedules commit-order serializable. *)

val find_scenario : string -> scenario option

type outcome = {
  decisions : Tpm_sim.Choice.decision list;  (** the branch's full trace *)
  violations : string list;  (** empty iff every oracle passed *)
  crashed : bool;  (** a crash choice fired (recovery ran) *)
  forensics : string lazy_t;
      (** rendered {!Tpm_scheduler.Scheduler.forensics} of the final
          scheduler; forced only when a violation is reported *)
}

val run_branch : scenario -> script:int list -> outcome
(** Runs one branch: scripted decisions first, canonical defaults beyond
    (option 0: no failure, no crash, oldest pending message first).  If a
    crash choice fires, recovery runs passively to completion and the
    oracles judge the recovered execution. *)

type stats = {
  mutable explored : int;  (** branches actually run *)
  mutable pruned_symmetry : int;
  mutable pruned_sleep : int;
  mutable pruned_visited : int;
  mutable max_depth : int;  (** longest decision trace seen *)
  mutable truncated : bool;  (** the branch cap cut the search short *)
}

type found = {
  script : int list;  (** the violating branch as first discovered *)
  minimized : int list;  (** greedily minimized equivalent *)
  violations : string list;
}

type report = {
  stats : stats;
  found : found list;
}

val explore :
  ?prune:bool ->
  ?max_branches:int ->
  ?log:(string -> unit) ->
  scenario ->
  report
(** Exhausts the scenario's interleaving tree (depth first, pruned
    unless [prune:false]; default branch cap 20000).  Violating branches
    are minimized before being reported. *)

val minimize : scenario -> int list -> int list
(** Greedy trace minimization: each non-default decision is reset to the
    canonical option in turn and the reset kept whenever the re-run
    branch still violates some oracle; trailing defaults are dropped. *)

val save_trace : path:string -> scenario -> int list -> unit
(** Serializes a (minimized) script: re-runs it to recover the decision
    tags and writes one [choice <tag> <arity> <chosen>] line per
    decision, prefixed by the scenario name and the violations the run
    produced. *)

val load_trace : string -> (string * int list, string) result
(** Parses a {!save_trace} file back into (scenario name, script). *)
