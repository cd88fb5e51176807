(* The correctness gate.  Every round is checked outside its timed region;
   a failed check fails the run.  The cheap history criteria (serializable,
   RED, SOT) run on every round; PRED and process-recoverability cost tens
   of seconds on a full-size history, so only the small-scale tests run
   them ([full]). *)

open Tpm_core

type outcome = {
  offered : int;
  committed : int;
  aborted : int;
  rejected : int;
  unfinished : int;
}

(* names of the checks that failed, empty when all hold *)
let failures checks = List.filter_map (fun (name, ok) -> if ok then None else Some name) checks

let outcome o =
  [
    ("every process terminal", o.unfinished = 0);
    ( "committed + aborted + rejected = offered",
      o.committed + o.aborted + o.rejected = o.offered );
  ]

let history ?(full = false) h =
  [
    ("serializable", Criteria.serializable h);
    ("red", Criteria.red h);
    ("sot", Criteria.sot h);
  ]
  @
  if full then
    [ ("pred", Criteria.pred h); ("process_recoverable", Criteria.process_recoverable h) ]
  else []

(* the restarted scheduler must finish and keep every pre-crash terminal
   status; [before]/[after] are (pid, status) lists *)
let restart ~finished ~before ~after =
  [
    ("restart reaches quiescence", finished);
    ("restart keeps terminal statuses", before = after);
  ]
