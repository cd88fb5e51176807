(* Parked admission waiters.

   A [Running] process all of whose enabled activities were delayed is
   parked with a witness: pids whose unchanged state proves every one of
   those delays still holds.  The scheduler stamps a per-pid sequence
   number at every admission-relevant mutation (the same sites that mark
   the latent base dirty) and a global one at every dependency-edge
   removal.  A park holds while neither
   any witness pid nor the global stamp moved since it was taken; the
   wake loop then skips the process instead of re-asking admission. *)

type parked = {
  since : int;  (* sequence number when the park was taken *)
  witness : int list;
}

type t = {
  mutable seq : int;
  mutable global : int;  (* [seq] at the last dependency-edge removal *)
  stamps : (int, int) Hashtbl.t;  (* pid -> [seq] at its last mutation *)
  parked : (int, parked) Hashtbl.t;
  mutable ignore_witnesses : bool;  (* mutation hook, tests only *)
}

let create () =
  {
    seq = 0;
    global = 0;
    stamps = Hashtbl.create 32;
    parked = Hashtbl.create 32;
    ignore_witnesses = false;
  }

(* A stamp only matters to a park taken before it.  With nothing parked
   a mutation predates every future park, so it is not recorded: runs
   that never wait pay one length check per mutation. *)
let bump_pid w pid =
  if Hashtbl.length w.parked > 0 then begin
    w.seq <- w.seq + 1;
    Hashtbl.replace w.stamps pid w.seq
  end

let bump_all w =
  if Hashtbl.length w.parked > 0 then begin
    w.seq <- w.seq + 1;
    w.global <- w.seq
  end

let park w pid ~witness = Hashtbl.replace w.parked pid { since = w.seq; witness }

let moved w since pid =
  match Hashtbl.find_opt w.stamps pid with Some s -> s > since | None -> false

(* A park that no longer holds is dropped: the caller re-asks admission
   and parks again on the fresh witness if the process is still delayed. *)
let holds w pid =
  match Hashtbl.find_opt w.parked pid with
  | None -> false
  | Some p ->
      w.ignore_witnesses
      || (w.global <= p.since && not (List.exists (moved w p.since) p.witness))
      || begin
           Hashtbl.remove w.parked pid;
           false
         end

let ignore_witnesses w = w.ignore_witnesses <- true
