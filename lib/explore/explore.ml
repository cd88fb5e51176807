open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Choice = Tpm_sim.Choice
module Faults = Tpm_sim.Faults
module Rm = Tpm_subsys.Rm
module Service = Tpm_subsys.Service
module Tx = Tpm_kv.Tx
module Value = Tpm_kv.Value
module Obs = Tpm_obs.Obs
module Oracle = Tpm_oracle.Oracle

type scenario = {
  name : string;
  descr : string;
  spec : Conflict.t;
  make_rms : unit -> Rm.t list;
  procs : Process.t list;
  submit_at : int -> float;
  config : Scheduler.config;
  crash_explore : bool;
  instrument : Scheduler.t -> unit;
}

(* ------------------------------------------------------------------ *)
(* Built-in scenarios: tiny process configurations whose interleaving
   trees are exhaustible, each exercising a distinct slice of the
   protocol (Lemma-1 deferral, concurrent 2PC, crash recovery).  All
   service bodies are per-key counters with disjoint key footprints:
   conflicts are declared semantically in the spec, never through lock
   contention, and any committed-activity set explains the stores
   order-independently (the fault-free-twin oracle relies on this). *)

let inc key tx ~args:_ =
  let v = match Tx.get tx key with Value.Int n -> n | _ -> 0 in
  Tx.set tx key (Value.Int (v + 1));
  Value.Int (v + 1)

let dec key tx ~args:_ =
  let v = match Tx.get tx key with Value.Int n -> n | _ -> 0 in
  Tx.set tx key (Value.Int (v - 1));
  Value.Int (v - 1)

let act = Activity.make

let lemma1_registry () =
  let reg = Service.Registry.create () in
  List.iter
    (Service.Registry.register reg)
    [
      Service.make ~name:"resv"
        ~compensation:(Service.Inverse_service "resv_undo")
        ~writes:[ "a.r" ] (inc "a.r");
      Service.make ~name:"resv_undo" ~writes:[ "a.r" ] (dec "a.r");
      Service.make ~name:"bill" ~writes:[ "a.b" ] (inc "a.b");
      Service.make ~name:"ship" ~writes:[ "b.s" ] (inc "b.s");
    ];
  reg

let lemma1_rms () =
  let reg = lemma1_registry () in
  [
    Rm.create ~name:"A" ~registry:reg ();
    (* P1's pivot is the failable activity: one injected failure exhausts
       the transient-attempt budget (max_failures - 1 = 1) and degrades
       P1 to abort + compensation of its compensatable predecessor *)
    Rm.create ~name:"B" ~registry:reg
      ~fail_prob:(fun s -> if s = "ship" then 0.5 else 0.0)
      ~max_failures:2 ();
  ]

(* P1: resv (compensatable, A) << ship (pivot, B, failable);
   P2: bill (pivot, A), conflicting with resv in the spec only — the
   key footprints are disjoint, so nothing blocks at the lock level and
   the scheduler's admission decision alone orders the two.  The
   figure-1 shape: if bill commits while P1 is still alive and P1 then
   aborts, resv is compensated after the conflicting commit. *)
let lemma1_procs =
  [
    Process.make_exn ~pid:1
      ~activities:
        [
          act ~proc:1 ~act:1 ~service:"resv" ~kind:Activity.Compensatable
            ~subsystem:"A" ();
          act ~proc:1 ~act:2 ~service:"ship" ~kind:Activity.Pivot ~subsystem:"B" ();
        ]
      ~prec:[ (1, 2) ] ~pref:[];
    Process.make_exn ~pid:2
      ~activities:
        [ act ~proc:2 ~act:1 ~service:"bill" ~kind:Activity.Pivot ~subsystem:"A" () ]
      ~prec:[] ~pref:[];
  ]

let lemma1_spec = Conflict.of_pairs [ ("resv", "bill") ]

let lemma1 =
  {
    name = "lemma1";
    descr = "2 processes, conflicting pivot behind Lemma-1 deferral";
    spec = lemma1_spec;
    make_rms = lemma1_rms;
    procs = lemma1_procs;
    submit_at = (fun i -> 0.5 *. float_of_int i);
    (* bill is faster than ship, so in the failure branch P2 commits
       strictly before P1's pivot fails — without the Lemma-1 deferral
       (the mutation below) the commit is immediate and the subsequent
       compensation of resv violates PRED; with the deferral the commit
       waits for P1's fate and every branch stays clean *)
    config =
      {
        Scheduler.default_config with
        seed = 5;
        service_time = (fun s -> if s = "bill" then 0.4 else 1.0);
      };
    crash_explore = false;
    instrument = ignore;
  }

let lemma1_mut =
  {
    lemma1 with
    name = "lemma1-mut";
    descr = "lemma1 with the Lemma-1 gate disabled (must violate PRED)";
    instrument = Scheduler.disable_lemma1;
  }

let twopc3_registry () =
  let reg = Service.Registry.create () in
  List.iter
    (Service.Registry.register reg)
    [
      Service.make ~name:"hold"
        ~compensation:(Service.Inverse_service "hold_undo")
        ~writes:[ "a.h" ] (inc "a.h");
      Service.make ~name:"hold_undo" ~writes:[ "a.h" ] (dec "a.h");
      Service.make ~name:"chk" ~writes:[ "a.c" ] (inc "a.c");
      Service.make ~name:"pay2" ~writes:[ "b.p" ] (inc "b.p");
      Service.make ~name:"pay3" ~writes:[ "c.p" ] (inc "c.p");
    ];
  reg

let twopc3_rms () =
  let reg = twopc3_registry () in
  [
    Rm.create ~name:"A" ~registry:reg ();
    Rm.create ~name:"B" ~registry:reg ();
    Rm.create ~name:"C" ~registry:reg ();
  ]

(* P1 holds a compensatable and then a slow retriable, staying
   uncommitted long enough that P2's and P3's pivots — both conflicting
   with the hold, not with each other — are prepared behind two
   concurrent 2PC instances whose messages genuinely interleave. *)
let twopc3_procs =
  [
    Process.make_exn ~pid:1
      ~activities:
        [
          act ~proc:1 ~act:1 ~service:"hold" ~kind:Activity.Compensatable
            ~subsystem:"A" ();
          act ~proc:1 ~act:2 ~service:"chk" ~kind:Activity.Retriable ~subsystem:"A" ();
        ]
      ~prec:[ (1, 2) ] ~pref:[];
    Process.make_exn ~pid:2
      ~activities:
        [ act ~proc:2 ~act:1 ~service:"pay2" ~kind:Activity.Pivot ~subsystem:"B" () ]
      ~prec:[] ~pref:[];
    Process.make_exn ~pid:3
      ~activities:
        [ act ~proc:3 ~act:1 ~service:"pay3" ~kind:Activity.Pivot ~subsystem:"C" () ]
      ~prec:[] ~pref:[];
  ]

let twopc3_spec = Conflict.of_pairs [ ("hold", "pay2"); ("hold", "pay3") ]

let twopc3 =
  {
    name = "twopc3";
    descr = "3 processes, two concurrent 2PC instances";
    spec = twopc3_spec;
    make_rms = twopc3_rms;
    procs = twopc3_procs;
    submit_at = (fun i -> 0.3 *. float_of_int i);
    config =
      {
        Scheduler.default_config with
        seed = 9;
        service_time = (fun s -> if s = "chk" then 6.0 else 1.0);
      };
    crash_explore = false;
    instrument = ignore;
  }

let twopc3_crash =
  {
    twopc3 with
    name = "twopc3-crash";
    descr = "twopc3 with a crash choice after every WAL append";
    crash_explore = true;
  }

(* ------------------------------------------------------------------ *)
(* Section 3.6 scenarios: the enforced weak order racing a group abort
   and an in-doubt 2PC instance. *)

let weakabort_registry () =
  let reg = Service.Registry.create () in
  List.iter
    (Service.Registry.register reg)
    [
      Service.make ~name:"resv"
        ~compensation:(Service.Inverse_service "resv_undo")
        ~writes:[ "a.r" ] (inc "a.r");
      Service.make ~name:"resv_undo" ~writes:[ "a.r" ] (dec "a.r");
      Service.make ~name:"bill"
        ~compensation:(Service.Inverse_service "bill_undo")
        ~writes:[ "a.b" ] (inc "a.b");
      Service.make ~name:"bill_undo" ~writes:[ "a.b" ] (dec "a.b");
      Service.make ~name:"ship" ~writes:[ "b.s" ] (inc "b.s");
    ];
  reg

let weakabort_rms () =
  let reg = weakabort_registry () in
  [
    Rm.create ~name:"A" ~registry:reg ();
    Rm.create ~name:"B" ~registry:reg
      ~fail_prob:(fun s -> if s = "ship" then 0.5 else 0.0)
      ~max_failures:3 ();
  ]

(* P1: a slow compensatable resv (A) then a failable pivot ship (B);
   P2: a fast compensatable bill (A) conflicting with resv.  Under the
   enforced weak order bill executes overlapping resv and its local
   commit is held behind resv's; the failure branch group-aborts P1
   while P2 sits weakly ordered behind it — the re-invocation and the
   compensation of resv must still leave every branch PRED and the
   local schedule commit-order serializable. *)
let weakabort_procs =
  [
    Process.make_exn ~pid:1
      ~activities:
        [
          act ~proc:1 ~act:1 ~service:"resv" ~kind:Activity.Compensatable
            ~subsystem:"A" ();
          act ~proc:1 ~act:2 ~service:"ship" ~kind:Activity.Pivot ~subsystem:"B" ();
        ]
      ~prec:[ (1, 2) ] ~pref:[];
    Process.make_exn ~pid:2
      ~activities:
        [
          act ~proc:2 ~act:1 ~service:"bill" ~kind:Activity.Compensatable
            ~subsystem:"A" ();
        ]
      ~prec:[] ~pref:[];
  ]

let weakabort =
  {
    name = "weak-abort";
    descr = "enforced weak order racing a group abort";
    spec = Conflict.of_pairs [ ("resv", "bill") ];
    make_rms = weakabort_rms;
    procs = weakabort_procs;
    submit_at = (fun i -> 0.3 *. float_of_int i);
    config =
      {
        Scheduler.default_config with
        seed = 7;
        order = Scheduler.Weak;
        service_time = (fun s -> if s = "resv" then 2.0 else if s = "bill" then 0.4 else 1.0);
      };
    crash_explore = false;
    instrument = ignore;
  }

let weakindoubt_registry () =
  let reg = Service.Registry.create () in
  List.iter
    (Service.Registry.register reg)
    [
      Service.make ~name:"hold"
        ~compensation:(Service.Inverse_service "hold_undo")
        ~writes:[ "a.h" ] (inc "a.h");
      Service.make ~name:"hold_undo" ~writes:[ "a.h" ] (dec "a.h");
      Service.make ~name:"chk" ~writes:[ "a.c" ] (inc "a.c");
      Service.make ~name:"pay2" ~writes:[ "b.p" ] (inc "b.p");
      Service.make ~name:"pay3" ~writes:[ "c.p" ] (inc "c.p");
      Service.make ~name:"audit"
        ~compensation:(Service.Inverse_service "audit_undo")
        ~writes:[ "b.a" ] (inc "b.a");
      Service.make ~name:"audit_undo" ~writes:[ "b.a" ] (dec "b.a");
    ];
  reg

let weakindoubt_rms () =
  let reg = weakindoubt_registry () in
  [
    Rm.create ~name:"A" ~registry:reg ();
    Rm.create ~name:"B" ~registry:reg ();
    Rm.create ~name:"C" ~registry:reg ();
  ]

(* P1 holds a compensatable then a slow retriable, keeping P2's and
   P3's conflicting pivots prepared (in doubt) behind two concurrent
   2PC instances whose messages interleave; P4's compensatable audit
   conflicts with pay2 and — under the enforced weak order — executes
   overlapping the in-doubt pivot, its local commit held until the 2PC
   decision.  The message interleavings race the enforcement grants. *)
let weakindoubt_procs =
  [
    Process.make_exn ~pid:1
      ~activities:
        [
          act ~proc:1 ~act:1 ~service:"hold" ~kind:Activity.Compensatable
            ~subsystem:"A" ();
          act ~proc:1 ~act:2 ~service:"chk" ~kind:Activity.Retriable ~subsystem:"A" ();
        ]
      ~prec:[ (1, 2) ] ~pref:[];
    Process.make_exn ~pid:2
      ~activities:
        [ act ~proc:2 ~act:1 ~service:"pay2" ~kind:Activity.Pivot ~subsystem:"B" () ]
      ~prec:[] ~pref:[];
    Process.make_exn ~pid:3
      ~activities:
        [ act ~proc:3 ~act:1 ~service:"pay3" ~kind:Activity.Pivot ~subsystem:"C" () ]
      ~prec:[] ~pref:[];
    Process.make_exn ~pid:4
      ~activities:
        [
          act ~proc:4 ~act:1 ~service:"audit" ~kind:Activity.Compensatable
            ~subsystem:"B" ();
        ]
      ~prec:[] ~pref:[];
  ]

let weakindoubt =
  {
    name = "weak-indoubt";
    descr = "enforced weak order overlapping in-doubt 2PC pivots";
    spec =
      Conflict.of_pairs [ ("hold", "pay2"); ("hold", "pay3"); ("pay2", "audit") ];
    make_rms = weakindoubt_rms;
    procs = weakindoubt_procs;
    submit_at = (fun i -> 0.3 *. float_of_int i);
    config =
      {
        Scheduler.default_config with
        seed = 13;
        order = Scheduler.Weak;
        service_time = (fun s -> if s = "chk" then 6.0 else 1.0);
      };
    crash_explore = false;
    instrument = ignore;
  }

let weakindoubt_crash =
  {
    weakindoubt with
    name = "weak-indoubt-crash";
    descr = "weak-indoubt with a crash choice after every WAL append";
    crash_explore = true;
  }

let scenarios =
  [ lemma1; lemma1_mut; twopc3; twopc3_crash; weakabort; weakindoubt; weakindoubt_crash ]
let find_scenario name = List.find_opt (fun s -> s.name = name) scenarios

(* ------------------------------------------------------------------ *)
(* Oracles *)

type outcome = {
  decisions : Choice.decision list;
  violations : string list;
  crashed : bool;
  forensics : string lazy_t;
}

let horizon = 10_000.0

(* a branch is fault-free when no failure, crash, drop or duplication
   choice was taken — only delivery order may differ from the canonical
   root branch, whose final stores such a branch must reproduce *)
let fault_free decisions crashed =
  (not crashed)
  && List.for_all
       (fun (d : Choice.decision) ->
         d.Choice.chosen = 0
         || not
              (List.exists
                 (fun p -> String.length d.Choice.tag >= String.length p
                           && String.sub d.Choice.tag 0 (String.length p) = p)
                 [ "fail:"; "crash:"; "drop:"; "dup:" ]))
       decisions

(* final subsystems of the canonical (empty-script) branch, memoized per
   scenario; [None] while being computed or when the root itself is
   unusable as a twin *)
let twin_tbl : (string, Rm.t list option) Hashtbl.t = Hashtbl.create 8

let rec twin scenario =
  match Hashtbl.find_opt twin_tbl scenario.name with
  | Some v -> v
  | None ->
      Hashtbl.replace twin_tbl scenario.name None;
      let out, rms = run_raw scenario ~script:[] in
      let v = if out.violations = [] && not out.crashed then Some rms else None in
      Hashtbl.replace twin_tbl scenario.name v;
      v

(* Runs one branch and judges it with {!Tpm_oracle.Oracle}.  Returns the
   outcome plus the branch's subsystems (for the twin comparison). *)
and run_raw scenario ~script =
  let choice = Choice.driven ~script () in
  let rms = scenario.make_rms () in
  let faults =
    if scenario.crash_explore then Faults.make ~crash_explore:true () else Faults.none
  in
  let tracer = Obs.Tracer.create ~ring_capacity:256 () in
  (* every branch runs the Checked engine: its decisions are the
     incremental engine's, cross-checked against the reference oracle,
     and every skipped parked waiter is re-derived (missed-wakeup
     detector) *)
  let config = { scenario.config with Scheduler.admission_engine = Scheduler.Checked } in
  let t =
    Scheduler.create ~config ~faults ~choice ~tracer
      ~spec:scenario.spec ~rms ()
  in
  scenario.instrument t;
  Choice.set_fingerprinter choice (fun () -> Scheduler.state_fingerprint t);
  List.iteri (fun i p -> Scheduler.submit t ~at:(scenario.submit_at i) p) scenario.procs;
  Scheduler.run ~until:horizon t;
  let crashed = Scheduler.is_crashed t in
  let fresh = scenario.make_rms in
  let final, violations =
    if not crashed then (Some t, Oracle.run ~fresh t)
    else begin
      let before = Scheduler.wal_records t in
      match
        Scheduler.recover ~config ~spec:scenario.spec ~rms ~procs:scenario.procs before
      with
      | Error e -> (None, [ Printf.sprintf "recovery failed: %s" e ])
      | Ok t2 ->
          scenario.instrument t2;
          Scheduler.run ~until:horizon t2;
          (Some t2, Oracle.run ~fresh ~before t2)
    end
  in
  let decisions = Choice.trace choice in
  let violations =
    if violations = [] && fault_free decisions crashed then
      match twin scenario with Some tw -> Oracle.same_stores rms tw | None -> []
    else violations
  in
  let forensics =
    lazy
      (match final with
      | Some f -> Format.asprintf "%a" (fun fmt f -> Scheduler.forensics fmt f) f
      | None -> "(no scheduler survived the branch)")
  in
  ({ decisions; violations; crashed; forensics }, rms)

let run_branch scenario ~script = fst (run_raw scenario ~script)

(* ------------------------------------------------------------------ *)
(* DFS with DPOR-lite pruning *)

type stats = {
  mutable explored : int;
  mutable pruned_symmetry : int;
  mutable pruned_sleep : int;
  mutable pruned_visited : int;
  mutable max_depth : int;
  mutable truncated : bool;
}

type found = {
  script : int list;
  minimized : int list;
  violations : string list;
}

type report = {
  stats : stats;
  found : found list;
}

(* dependence of two pending-delivery options, read off their
   "dst:c<cid>:<kind>" descriptors: messages of distinct endpoints AND
   distinct 2PC instances commute; anything unparseable is conservatively
   dependent *)
let delivery_independent d1 d2 =
  match (String.split_on_char ':' d1, String.split_on_char ':' d2) with
  | dst1 :: cid1 :: _, dst2 :: cid2 :: _ -> dst1 <> dst2 && cid1 <> cid2
  | _ -> false

let minimize scenario script =
  let violating s = (run_branch scenario ~script:s).violations <> [] in
  let arr = Array.of_list script in
  (* greedy: reset each non-default decision to the canonical option and
     keep the reset whenever the branch still violates some oracle *)
  for i = 0 to Array.length arr - 1 do
    if arr.(i) <> 0 then begin
      let saved = arr.(i) in
      arr.(i) <- 0;
      if not (violating (Array.to_list arr)) then arr.(i) <- saved
    end
  done;
  let rec drop_trailing = function
    | 0 :: rest -> drop_trailing rest
    | l -> l
  in
  List.rev (drop_trailing (List.rev (Array.to_list arr)))

let explore ?(prune = true) ?(max_branches = 20000) ?(log = fun _ -> ()) scenario =
  let stats =
    {
      explored = 0;
      pruned_symmetry = 0;
      pruned_sleep = 0;
      pruned_visited = 0;
      max_depth = 0;
      truncated = false;
    }
  in
  let visited : (string * string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let found = ref [] in
  let stack = ref [ [] ] in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | script :: rest ->
        stack := rest;
        if stats.explored >= max_branches then begin
          stats.truncated <- true;
          continue := false
        end
        else begin
          stats.explored <- stats.explored + 1;
          if stats.explored mod 500 = 0 then
            log
              (Printf.sprintf "explored %d branches, %d queued, %d violations"
                 stats.explored (List.length !stack) (List.length !found));
          let out = run_branch scenario ~script in
          let ds = Array.of_list out.decisions in
          let depth = Array.length ds in
          if depth > stats.max_depth then stats.max_depth <- depth;
          if out.violations <> [] then begin
            let minimized = minimize scenario script in
            log
              (Printf.sprintf "VIOLATION [%s] at branch %d: %s"
                 (String.concat "," (List.map string_of_int script))
                 stats.explored
                 (String.concat "; " out.violations));
            found := { script; minimized; violations = out.violations } :: !found
          end;
          (* expand alternatives strictly beyond the scripted prefix: the
             prefix positions were expanded when their parents ran *)
          let children = ref [] in
          for i = depth - 1 downto List.length script do
            let d = ds.(i) in
            let arity = d.Choice.arity in
            let dkey = (d.Choice.fp, d.Choice.options.(0)) in
            if prune && d.Choice.fp <> "" && Hashtbl.mem visited dkey then
              stats.pruned_visited <- stats.pruned_visited + 1
            else begin
              if prune && d.Choice.fp <> "" then Hashtbl.replace visited dkey ();
              let prefix =
                Array.to_list (Array.sub ds 0 i)
                |> List.map (fun (d : Choice.decision) -> d.Choice.chosen)
              in
              for c = arity - 1 downto 1 do
                let descr = d.Choice.options.(c) in
                let earlier j = d.Choice.options.(j) in
                let symmetric =
                  prune
                  && (let rec any j = j < c && (earlier j = descr || any (j + 1)) in
                      any 0)
                in
                let asleep =
                  prune && (not symmetric) && d.Choice.tag = "deliver"
                  && (let rec all j =
                        j >= c || (delivery_independent (earlier j) descr && all (j + 1))
                      in
                      all 0)
                in
                if symmetric then stats.pruned_symmetry <- stats.pruned_symmetry + 1
                else if asleep then stats.pruned_sleep <- stats.pruned_sleep + 1
                else begin
                  let ckey = (d.Choice.fp, descr) in
                  if prune && d.Choice.fp <> "" && Hashtbl.mem visited ckey then
                    stats.pruned_visited <- stats.pruned_visited + 1
                  else begin
                    if prune && d.Choice.fp <> "" then Hashtbl.replace visited ckey ();
                    children := (prefix @ [ c ]) :: !children
                  end
                end
              done
            end
          done;
          stack := !children @ !stack
        end
  done;
  { stats; found = List.rev !found }

(* ------------------------------------------------------------------ *)
(* Trace files *)

let save_trace ~path scenario script =
  let out = run_branch scenario ~script in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# tpm explore trace; replay: tpm explore --replay %s\n" path;
      Printf.fprintf oc "scenario %s\n" scenario.name;
      List.iter (fun v -> Printf.fprintf oc "# violation: %s\n" v) out.violations;
      let n = List.length script in
      List.iteri
        (fun i (d : Choice.decision) ->
          if i < n then
            Printf.fprintf oc "choice %s %d %d\n" d.Choice.tag d.Choice.arity
              d.Choice.chosen)
        out.decisions)

let load_trace path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let scenario = ref None in
      let rev_script = ref [] in
      let error = ref None in
      (try
         let line_no = ref 0 in
         while true do
           let line = input_line ic in
           incr line_no;
           match String.split_on_char ' ' (String.trim line) with
           | [ "" ] -> ()
           | hd :: _ when String.length hd > 0 && hd.[0] = '#' -> ()
           | [ "scenario"; name ] -> scenario := Some name
           | [ "choice"; _tag; _arity; chosen ] -> (
               match int_of_string_opt chosen with
               | Some c -> rev_script := c :: !rev_script
               | None ->
                   error :=
                     Some (Printf.sprintf "line %d: bad option index %S" !line_no chosen)
               )
           | _ -> error := Some (Printf.sprintf "line %d: unparseable: %s" !line_no line)
         done
       with End_of_file -> ());
      match (!error, !scenario) with
      | Some e, _ -> Error e
      | None, None -> Error "no scenario line"
      | None, Some name -> Ok (name, List.rev !rev_script))
