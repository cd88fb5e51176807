(* What every experiment shares: the modules they drive, table printing,
   the generated-workload runner of P1-P10, and the experiment record
   the table in main.ml lists. *)

include Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Shard = Tpm_scheduler.Shard
module Server = Tpm_server.Server
module Generator = Tpm_workload.Generator
module Cim = Tpm_workload.Cim
module Baseline = Tpm_baseline.Baseline
module Metrics = Tpm_sim.Metrics
module Faults = Tpm_sim.Faults
module Rm = Tpm_subsys.Rm
module Obs = Tpm_obs.Obs
module Wal = Tpm_wal.Wal
module Record = Tpm_record.Record

(* ------------------------------------------------------------------ *)
(* table printing *)

let rule = String.make 78 '-'

let section title =
  Format.printf "@.%s@.%s@.%s@." rule title rule

let print_table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Format.printf "%-*s  " (List.nth widths i) cell)
      cells;
    Format.printf "@."
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
(* ------------------------------------------------------------------ *)
(* shared runner for the P experiments *)

type run_result = {
  makespan : float;
  committed : int;
  aborted : int;
  pred_ok : bool;
  m : Metrics.t;
}

let run_workload ?(params = Generator.default_params) ?(n = 10) ?(fail = 0.0)
    ?(config = Scheduler.default_config) ?(check_pred = false) ~seed () =
  let rms = Generator.rms params ~fail_prob:(fun _ -> fail) ~seed () in
  let spec = Generator.spec params in
  let t = Scheduler.create ~config:{ config with seed } ~spec ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 131) params ~n);
  Scheduler.run ~until:1e6 t;
  let h = Scheduler.history t in
  let count status =
    List.length (List.filter (fun pid -> Scheduler.status t pid = status) (Schedule.proc_ids h))
  in
  {
    makespan = Scheduler.now t;
    committed = count Schedule.Committed;
    aborted = count Schedule.Aborted;
    pred_ok = (if check_pred then Criteria.pred h else true);
    m = Scheduler.metrics t;
  }

let seeds = [ 2; 3; 5; 7; 11 ]

let avg f l = List.fold_left (fun a x -> a +. f x) 0.0 l /. float_of_int (List.length l)

(* [f dir] in a fresh directory, removed afterwards with its files *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* the experiment record *)

(* What a run reports besides its tables: named readings the gates
   compare, and invariants that must hold whenever the experiment runs. *)
type outcome = {
  readings : (string * float) list;
  invariants : (string * bool) list;
}

let no_outcome = { readings = []; invariants = [] }

type bound =
  | Min
  | Max

(* A gate: a command-line flag whose value bounds a reading from below or
   above.  A switch gate takes no value: its bound is [fixed]. *)
type gate = {
  flag : string;
  bound : bound;
  reading : string;
  fixed : float option;
}

let gate ?fixed flag bound reading = { flag; bound; reading; fixed }

type experiment = {
  name : string;  (* on the command line: "e", "p1", ... *)
  record : bool;  (* the full run writes bench/BENCH_<NAME>.json *)
  gates : gate list;
  run : quick:bool -> json:string option -> outcome;
}

let experiment ?(record = false) ?(gates = []) name run = { name; record; gates; run }

(* the record's knobs: a generated workload's parameters, then [extra] *)
let knobs ?params extra =
  Record.Obj
    ((match params with
     | None -> []
     | Some (p : Generator.params) ->
         [
           ("services", Record.Int p.services);
           ("subsystems", Record.Int p.subsystems);
           ("conflict_density", Record.num ~digits:2 p.conflict_density);
           ("activities", Record.Str (Printf.sprintf "%d-%d" p.activities_min p.activities_max));
         ])
    @ extra)

let write_record json ~title ~experiment ~clock ~knobs fields =
  Option.iter
    (fun path ->
      Record.write path ~title ~experiment ~harness:"bench/main.exe" ~clock ~knobs fields;
      Format.printf "@.wrote %s@." path)
    json
