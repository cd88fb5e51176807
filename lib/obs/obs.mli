(** Structured observability: typed trace events stamped with the
    simulation's virtual clock, recorded in a bounded ring buffer and
    fanned out to pluggable sinks.

    The tracer replaces the old global [Scheduler.trace] flag: each
    scheduler owns one, so tracing state cannot leak across instances.
    A {!Tracer.disabled} tracer costs one branch per call site; an
    active ring-only tracer costs two array stores per event (the ring
    is parallel stamp/event arrays, so nothing is allocated beyond the
    event itself). *)

(** The admission verdict recorded in an explain payload. *)
type decision =
  | Invoke  (** admitted for immediate invocation *)
  | Prepare  (** admitted, subsystem commit deferred behind 2PC (Lemma 1) *)
  | Delay of int list
      (** delayed behind its witness, the sorted live pids whose change can
          lift it (the first busy blocker, the would-be cycle's other
          members, the predecessors); without one, every blocking pid *)

(** Why the admission decision came out the way it did. *)
type reason =
  | Clear  (** no conflicting state anywhere: admit *)
  | Ordered  (** admit; the recorded dependency edges order it *)
  | Busy  (** a conflicting activity is still in flight *)
  | Would_cycle  (** admission would close a dependency cycle *)
  | Conservative_wait  (** Lemma 1, [Conservative] mode: wait for predecessors *)
  | Deferred_prepare  (** Lemma 1: execute now, defer the commit behind 2PC *)
  | Quasi_commit  (** figure 9's quasi-commit condition held: commit immediately *)
  | Exact_reject  (** [exact_admission] ablation: extension not reducible *)

type msg_dir = Send | Deliver | Drop | Duplicate | Retransmit

type event =
  | Admission of {
      pid : int;
      act : int;
      service : string;
      decision : decision;
      reason : reason;
      edges : (int * int) list;  (** dependency edges the admission records *)
    }  (** the explain payload of one admission decision *)
  | Dispatch of { pid : int; act : int; service : string; prepare_only : bool }
  | Occurrence of { pid : int; act : int; service : string; inverse : bool }
  | Prepared of { pid : int; act : int }
  | Commit of int
  | Abort of int
  | Group_abort of int list
  | Backoff of { pid : int; act : int; attempt : int; delay : float }
  | Deflect of { pid : int; act : int; service : string; outage : bool }
      (** a non-retriable activity degraded to its next alternative branch *)
  | Msg of { dir : msg_dir; src : string; dst : string; payload : string Lazy.t }
      (** 2PC bus traffic, including drops, duplicates and retransmissions.
          [payload] is lazy: the pretty-printed message is only rendered
          when a sink or forensics dump actually reads it, so ring-only
          tracing stays cheap. *)
  | Wal_append of { index : int; record : string Lazy.t }
      (** [record] lazy for the same reason as [Msg.payload] *)
  | Wal_fsync of { batch : int }
      (** the log fsynced; [batch] records became durable together (the
          group-commit coalescing observable) *)
  | Wal_salvage of { segment : int; bytes : int }
      (** a salvage load quarantined [bytes] of a damaged segment *)
  | Recovery_step of string
  | Note of string Lazy.t
      (** free-form protocol trace line; lazy for the same reason as
          [Msg.payload] *)
  | Choice of { tag : string; arity : int; chosen : int }
      (** a recorded controlled-nondeterminism decision
          ({!Tpm_sim.Choice} under a driven strategy): which of [arity]
          options the strategy selected at the named choice point *)
  | Arrival of { pid : int }
      (** an open-world submission reached the server front door *)
  | Shed of { pid : int; why : string }
      (** the server refused the submission ([why] is the typed reject /
          expiry reason label) *)
  | Degraded of { pid : int; pruned : int }
      (** the server admitted the submission via its alternative branch,
          pruning [pruned] preferred activities *)
  | Breaker of { subsystem : string; state : string }
      (** a per-subsystem circuit breaker changed state
          (closed / open / half-open) *)
  | Drain of { stage : string }
      (** graceful-drain progress (intake stopped, in-flight settled,
          WAL sealed) *)

val pp_event : Format.formatter -> event -> unit
val pid_of : event -> int option
val kind_label : event -> string
val reason_label : reason -> string

val event_json : float -> event -> string
(** One JSON object (no trailing newline) for a timestamped event. *)

val chrome_json : (float * event) list -> string
(** A Chrome [trace_event] / Perfetto JSON document: one timeline lane
    per process id ([tid] = pid), dispatch/occurrence pairs rendered as
    complete spans, everything else as instant events.  Virtual-clock
    seconds map to trace microseconds. *)

module Sink : sig
  type t

  val make : ?close:(unit -> unit) -> (float -> event -> unit) -> t
  val stderr_pretty : unit -> t
  val formatter : Format.formatter -> t
  val jsonl : string -> t
  (** Appends {!event_json} lines to [path]; the file closes with the
      tracer. *)

  val chrome : string -> t
  (** Buffers every event and writes {!chrome_json} to [path] on close. *)
end

module Tracer : sig
  type t

  val disabled : t
  (** Inert tracer: {!emit} is a single branch, nothing is recorded. *)

  val create : ?ring_capacity:int -> ?sinks:Sink.t list -> unit -> t
  (** An active tracer with a bounded ring of the last [ring_capacity]
      events (default 512; 0 disables the ring but keeps the sinks). *)

  val set_clock : t -> (unit -> float) -> unit
  (** Installs the virtual-clock source (the scheduler points it at its
      simulation's [Des.now]).  Defaults to a constant 0. *)

  val active : t -> bool
  val emit : t -> event -> unit
  val emitted : t -> int
  (** Events emitted so far (including those the ring already evicted). *)

  val recent : ?n:int -> t -> (float * event) list
  (** The last [n] (default: all) retained events, oldest first. *)

  val close : t -> unit
  (** Flushes and closes every sink (file sinks write out here). *)

  val pp_recent : ?n:int -> Format.formatter -> t -> unit
end
