(** Parked admission waiters.

    A [Running] process all of whose enabled activities came back [Delay]
    is {e parked} with a witness: a set of pids whose unchanged state
    proves every one of those delays still holds.  The scheduler stamps
    a pid at every mutation of its admission-relevant state ({!bump_pid})
    and stamps the world at every dependency-edge removal ({!bump_all}).  A park {!holds} while neither
    a witness pid nor the world was stamped since it was taken; the wake
    loop skips the process meanwhile instead of re-asking admission. *)

type t

val create : unit -> t

val bump_pid : t -> int -> unit
(** The pid's admission-relevant state changed. *)

val bump_all : t -> unit
(** Something no witness can name changed: every park breaks. *)

val park : t -> int -> witness:int list -> unit
(** Park the pid on the witness (which should include the pid itself),
    replacing any earlier park. *)

val holds : t -> int -> bool
(** Whether the pid is parked and no witness pid nor the world was
    stamped since.  A broken park is dropped, so the next call answers
    [false] too. *)

val ignore_witnesses : t -> unit
(** Mutation hook, tests only: parks hold forever. *)
