open Tpm_core

type process_plan = {
  pid : int;
  in_doubt : int list;
  in_doubt_commit : int list;
  exec : Execution.t;
}

type t = {
  committed : int list;
  aborted : int list;
  interrupted : process_plan list;
  replay : Schedule.event list;
}

(* chronological per-process effect timeline *)
type effect =
  | Fwd of int
  | Inv of int
  | Pending of int  (* prepared, decision unknown so far *)

(* one pre-crash event of the replay, in WAL order.  Whether a prepare or
   a durable commit decision surfaces is only known once the whole log
   has been read. *)
type step =
  | Event of Schedule.event
  | Prepare of int * int * Schedule.event  (* kept iff never decided nor in doubt *)
  | Decision of int * int * Schedule.event  (* [Coord_committed]: kept iff re-delivered *)

let analyze ?(on_step = fun _ -> ()) ~procs records =
  on_step (Printf.sprintf "analyze: %d log records, %d process definitions"
       (List.length records) (List.length procs));
  let proc_table = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace proc_table (Process.pid p) p) (List.rev procs);
  let find_proc = Hashtbl.find_opt proc_table in
  let timelines : (int, effect list ref) Hashtbl.t = Hashtbl.create 16 in
  let terminal : (int, [ `Committed | `Aborted ]) Hashtbl.t = Hashtbl.create 16 in
  let registered = ref [] in
  (* presumed-abort coordinator state: cid -> (pid, act), plus the cids
     whose commit decision is durable *)
  let coord_acts : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let coord_committed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* every (pid, act) with a logged participant decision *)
  let decided : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let steps = ref [] in
  (* pushes the occurrence as the step [k] builds; none for a process
     absent from [procs] *)
  let occurrence pid act inverse k =
    Option.iter
      (fun proc ->
        let a = Process.find proc act in
        let inst = if inverse then Activity.Inverse a else Activity.Forward a in
        steps := k (Schedule.Act inst) :: !steps)
      (find_proc pid)
  in
  let event ev = Event ev in
  let timeline pid =
    match Hashtbl.find_opt timelines pid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace timelines pid r;
        r
  in
  let add pid e = timeline pid := e :: !(timeline pid) in
  (* resolves the pending prepares of [act]; false when there are none *)
  let decide pid act commit =
    let r = timeline pid in
    let found = ref false in
    r :=
      List.filter_map
        (function
          | Pending a when a = act ->
              found := true;
              if commit then Some (Fwd a) else None
          | e -> Some e)
        !r;
    !found
  in
  List.iter
    (fun record ->
      match record with
      | Wal.Process_registered pid -> registered := pid :: !registered
      | Wal.Invoked { pid; act } ->
          add pid (Fwd act);
          occurrence pid act false event
      | Wal.Prepared { pid; act } ->
          add pid (Pending act);
          occurrence pid act false (fun ev -> Prepare (pid, act, ev))
      | Wal.Prepared_decided { pid; act; commit } ->
          (* a committed decision is the occurrence of the prepare it
             decides.  One with no logged prepare is a resolution that
             recovery wrote ahead of its replay, whose [Invoked] is the
             occurrence. *)
          if decide pid act commit && commit then occurrence pid act false event;
          Hashtbl.replace decided (pid, act) ()
      | Wal.Compensated { pid; act } ->
          add pid (Inv act);
          occurrence pid act true event
      | Wal.Process_committed pid ->
          Hashtbl.replace terminal pid `Committed;
          steps := Event (Schedule.Commit pid) :: !steps
      | Wal.Process_aborted pid ->
          Hashtbl.replace terminal pid `Aborted;
          steps := Event (Schedule.Abort pid) :: !steps
      | Wal.Checkpoint { committed; aborted } | Wal.Ckpt_end { committed; aborted; _ } ->
          List.iter (fun pid -> Hashtbl.replace terminal pid `Committed) committed;
          List.iter (fun pid -> Hashtbl.replace terminal pid `Aborted) aborted
      | Wal.Coord_begin { cid; pid; act; _ } -> Hashtbl.replace coord_acts cid (pid, act)
      | Wal.Coord_committed { cid; _ } ->
          Hashtbl.replace coord_committed cid ();
          Option.iter
            (fun (pid, act) -> occurrence pid act false (fun ev -> Decision (pid, act, ev)))
            (Hashtbl.find_opt coord_acts cid)
      | Wal.Ckpt_begin _ | Wal.Coord_forgotten _ | Wal.Commit_requested _
      | Wal.Abort_requested _
      (* page-store records carry no process state: the process-level plan
         on a log with and without them is identical by construction *)
      | Wal.Kv_write _ | Wal.Dirty_pages _ -> ())
    records;
  (* the (pid, act) pairs whose coordinator durably logged the commit *)
  let durable : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun cid () ->
      Option.iter (fun pa -> Hashtbl.replace durable pa ()) (Hashtbl.find_opt coord_acts cid))
    coord_committed;
  (* in-doubt (pid, act) -> re-delivered as a commit (true) or presumed
     aborted (false) *)
  let doubt : (int * int, bool) Hashtbl.t = Hashtbl.create 16 in
  let committed = ref [] and aborted = ref [] and interrupted = ref [] in
  let error = ref None in
  List.iter
    (fun pid ->
      match Hashtbl.find_opt terminal pid with
      | Some `Committed -> committed := pid :: !committed
      | Some `Aborted -> aborted := pid :: !aborted
      | None -> (
          match find_proc pid with
          | None -> error := Some (Printf.sprintf "process %d not re-registered for recovery" pid)
          | Some proc ->
              let effects = List.rev !(timeline pid) in
              (* resolve in-doubt, presumed abort: a surviving [Pending]
                 commits iff its coordinator durably logged the commit
                 decision.  Every Pending is resolved this way regardless
                 of its timeline position — an earlier revision treated
                 any non-final Pending as committed merely because later
                 effects followed it, which is unsound: with two
                 concurrent prepares the first one's 2PC may still be
                 undecided when a later activity logs, and replaying it
                 forward would resurrect an effect the subsystem will
                 presume aborted. *)
              let in_doubt = ref [] in
              let in_doubt_commit = ref [] in
              let resolved =
                List.filter
                  (fun e ->
                    match e with
                    | Pending act ->
                        let commit = Hashtbl.mem durable (pid, act) in
                        Hashtbl.replace doubt (pid, act) commit;
                        on_step
                          (Printf.sprintf "P_%d a%d in doubt: %s" pid act
                             (if commit then "durable Coord_committed, re-deliver commit"
                              else "presume abort"));
                        if commit then in_doubt_commit := act :: !in_doubt_commit
                        else in_doubt := act :: !in_doubt;
                        commit
                    | Fwd _ | Inv _ -> true)
                  effects
              in
              let instances =
                List.map
                  (fun e ->
                    match e with
                    | Fwd act | Pending act -> Activity.Forward (Process.find proc act)
                    | Inv act -> Activity.Inverse (Process.find proc act))
                  resolved
              in
              let replayed =
                List.fold_left
                  (fun acc inst ->
                    Result.bind acc (fun st -> Execution.replay_instance st inst))
                  (Ok (Execution.start proc))
                  instances
              in
              (match replayed with
              | Error e ->
                  error := Some (Printf.sprintf "P_%d: log replay failed: %s" pid e)
              | Ok st ->
                  on_step
                    (Printf.sprintf "P_%d interrupted (%s): completion of %d activities"
                       pid
                       (match Execution.recovery_state st with
                       | Execution.B_rec -> "B-REC"
                       | Execution.F_rec -> "F-REC")
                       (List.length (Execution.completion st)));
                  interrupted :=
                    {
                      pid;
                      in_doubt = List.rev !in_doubt;
                      in_doubt_commit = List.rev !in_doubt_commit;
                      exec = st;
                    }
                    :: !interrupted)))
    (List.sort_uniq compare
       (!registered @ Hashtbl.fold (fun pid _ acc -> pid :: acc) terminal []));
  match !error with
  | Some e -> Error e
  | None ->
      on_step
        (Printf.sprintf "analyze done: %d committed, %d aborted, %d interrupted"
           (List.length !committed) (List.length !aborted)
           (List.length !interrupted));
      (* a prepare never decided surfaces where it was logged (its process
         terminated); an in-doubt one re-delivered as a commit surfaces at
         its [Coord_committed], where the commit happened — after the
         predecessors' process commits, never at prepare time *)
      let replay =
        List.filter_map
          (function
            | Event ev -> Some ev
            | Prepare (pid, act, ev) ->
                if Hashtbl.mem doubt (pid, act) || Hashtbl.mem decided (pid, act) then None
                else Some ev
            | Decision (pid, act, ev) ->
                if Hashtbl.find_opt doubt (pid, act) = Some true then Some ev else None)
          (List.rev !steps)
      in
      Ok
        {
          committed = List.rev !committed;
          aborted = List.rev !aborted;
          interrupted = List.rev !interrupted;
          replay;
        }

type kv_redo_plan = {
  start_lsn : int;
  ops : (int * string * string option) list;
}

let kv_redo ~rm records =
  (* The last Dirty_pages snapshot for [rm] bounds redo on its own,
     complete checkpoint or not: at the instant it was appended, every
     page absent from it was clean, so no mutation with an LSN below the
     minimum rec_lsn can be missing from disk.  An empty table says the
     whole store was clean as of the record's own position.  With no
     snapshot at all, redo starts at the beginning of the log. *)
  let start = ref 1 in
  List.iteri
    (fun i r ->
      match r with
      | Wal.Dirty_pages { rm = rm'; pages } when String.equal rm' rm ->
          start :=
            List.fold_left (fun acc (_, rec_lsn) -> min acc rec_lsn) (i + 1) pages
      | _ -> ())
    records;
  let ops = ref [] in
  List.iteri
    (fun i r ->
      match r with
      | Wal.Kv_write { rm = rm'; key; value } when String.equal rm' rm && i + 1 >= !start ->
          ops := (i + 1, key, value) :: !ops
      | _ -> ())
    records;
  { start_lsn = !start; ops = List.rev !ops }

let pp fmt t =
  let pp_ints fmt l =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
      Format.pp_print_int fmt l
  in
  Format.fprintf fmt "@[<v>committed: [%a]@ aborted: [%a]@ " pp_ints t.committed pp_ints t.aborted;
  List.iter
    (fun plan ->
      Format.fprintf fmt "P_%d (%s): completion = [%a]@ " plan.pid
        (match Execution.recovery_state plan.exec with
        | Execution.B_rec -> "B-REC"
        | Execution.F_rec -> "F-REC")
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
           Activity.pp_instance)
        (Execution.completion plan.exec))
    t.interrupted;
  Format.fprintf fmt "@]"
