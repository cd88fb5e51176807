open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Rm = Tpm_subsys.Rm
module Service = Tpm_subsys.Service
module Store = Tpm_kv.Store
module Wal = Tpm_wal.Wal
module Local = Tpm_composite.Local

let check name ok = if ok then [] else [ name ]

(* the criteria are defined on legal histories only (they replay them) *)
let history h =
  if not (Schedule.legal h) then [ "illegal history" ]
  else
    check "PRED violated" (Criteria.pred h)
    @ check "not commit-order serializable" (Criteria.committed_serializable h)
    @ check "Proc-REC violated" (Criteria.process_recoverable h)

let tokens rms =
  check "leaked prepared token" (List.for_all (fun rm -> Rm.prepared_tokens rm = []) rms)

let locals ls =
  check "locals not commit-order serializable"
    (List.for_all (fun (_, l) -> Local.commit_order_serializable l) ls)

(* (pid, act) pairs whose coordinator durably logged the commit decision:
   [Coord_begin] names the activity, [Coord_committed] seals its fate *)
let durable_commits records =
  let acts = Hashtbl.create 8 in
  List.iter
    (function
      | Wal.Coord_begin { cid; pid; act; _ } -> Hashtbl.replace acts cid (pid, act)
      | _ -> ())
    records;
  List.filter_map
    (function Wal.Coord_committed { cid; _ } -> Hashtbl.find_opt acts cid | _ -> None)
    records
  |> List.sort_uniq compare

let presumed_abort ~before ~after h =
  let aborted pid act =
    List.exists
      (function
        | Wal.Prepared_decided { pid = p; act = a; commit = false } -> p = pid && a = act
        | _ -> false)
      after
  in
  let forward pid act =
    List.exists
      (function
        | Schedule.Act inst ->
            (not (Activity.is_inverse inst))
            && Activity.instance_proc inst = pid
            && (Activity.instance_base inst).Activity.id.Activity.act = act
        | Schedule.Commit _ | Schedule.Abort _ | Schedule.Group_abort _ -> false)
      (Schedule.events h)
  in
  List.concat_map
    (fun (pid, act) ->
      check
        (Printf.sprintf "durably committed a_{%d,%d} aborted by recovery" pid act)
        (not (aborted pid act))
      @ check
          (Printf.sprintf "durably committed a_{%d,%d} missing from history" pid act)
          (forward pid act))
    (durable_commits before)

let find name rms = List.find (fun rm -> Rm.name rm = name) rms

(* Replay every occurrence of the history, in emission (= effect) order,
   into fresh subsystems; equal stores mean the surviving state is
   exactly explained by the history. *)
let explained ~fresh h rms =
  let fresh = fresh () in
  let token = ref 0 in
  let replayed =
    List.for_all
      (function
        | Schedule.Act inst -> (
            let a = Activity.instance_base inst in
            let rm = find a.Activity.subsystem fresh in
            let service =
              if Activity.is_inverse inst then
                match
                  (Service.Registry.find (Rm.registry rm) a.Activity.service)
                    .Service.compensation
                with
                | Service.Inverse_service inv -> inv
                | Service.No_compensation | Service.Snapshot_undo ->
                    failwith "Oracle: history replay needs inverse services"
              else a.Activity.service
            in
            incr token;
            match Rm.invoke rm ~token:!token ~service ~attempt:max_int () with
            | Rm.Committed _ -> true
            | Rm.Prepared _ | Rm.Failed | Rm.Blocked _ | Rm.Unavailable -> false)
        | Schedule.Commit _ | Schedule.Abort _ | Schedule.Group_abort _ -> true)
      (Schedule.events h)
  in
  check "stores not explained by history replay"
    (replayed
    && List.for_all
         (fun rm -> Store.equal_state (Rm.store rm) (Rm.store (find (Rm.name rm) fresh)))
         rms)

let run ?fresh ?before t =
  let h = Scheduler.history t and rms = Scheduler.rms t in
  (match before with
  | Some before -> presumed_abort ~before ~after:(Scheduler.wal_records t) h
  | None -> [])
  @ check "did not finish" (Scheduler.finished t)
  @ history h @ tokens rms
  @ locals (Scheduler.local_histories t)
  @ match fresh with Some fresh -> explained ~fresh h rms | None -> []

let same_stores rms rms0 =
  let by_name l = List.sort (fun a b -> compare (Rm.name a) (Rm.name b)) l in
  check "stores differ from twin"
    (List.length rms = List.length rms0
    && List.for_all2
         (fun rm rm0 ->
           Rm.name rm = Rm.name rm0 && Store.equal_state (Rm.store rm) (Rm.store rm0))
         (by_name rms) (by_name rms0))
