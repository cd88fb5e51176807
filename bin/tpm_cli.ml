(* Command-line interface to the transactional process manager:

     tpm paper               reproduce the paper's worked examples
     tpm cim                 run the CIM scenario of figure 1
     tpm random [options]    run a random workload and report metrics
     tpm serve [options]     open-world server over a Unix socket
     tpm check FILE          not provided: schedules come from the library

   See README.md for the full tour. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Generator = Tpm_workload.Generator
module Cim = Tpm_workload.Cim
module Metrics = Tpm_sim.Metrics

let verdict name b = Format.printf "  %-52s %s@." name (if b then "yes" else "NO")

(* --- tpm paper --- *)
let run_paper () =
  let act ~proc ~act:n ~service ~kind = Activity.make ~proc ~act:n ~service ~kind () in
  let p1 =
    Process.make_exn ~pid:1
      ~activities:
        [
          act ~proc:1 ~act:1 ~service:"s11" ~kind:Activity.Compensatable;
          act ~proc:1 ~act:2 ~service:"s12" ~kind:Activity.Pivot;
          act ~proc:1 ~act:3 ~service:"s13" ~kind:Activity.Compensatable;
          act ~proc:1 ~act:4 ~service:"s14" ~kind:Activity.Pivot;
          act ~proc:1 ~act:5 ~service:"s15" ~kind:Activity.Retriable;
          act ~proc:1 ~act:6 ~service:"s16" ~kind:Activity.Retriable;
        ]
      ~prec:[ (1, 2); (2, 3); (3, 4); (2, 5); (5, 6) ]
      ~pref:[ ((2, 3), (2, 5)) ]
  in
  let p2 =
    Process.make_exn ~pid:2
      ~activities:
        [
          act ~proc:2 ~act:1 ~service:"s21" ~kind:Activity.Compensatable;
          act ~proc:2 ~act:2 ~service:"s22" ~kind:Activity.Compensatable;
          act ~proc:2 ~act:3 ~service:"s23" ~kind:Activity.Pivot;
          act ~proc:2 ~act:4 ~service:"s24" ~kind:Activity.Retriable;
          act ~proc:2 ~act:5 ~service:"s25" ~kind:Activity.Retriable;
        ]
      ~prec:[ (1, 2); (2, 3); (3, 4); (4, 5) ]
      ~pref:[]
  in
  let spec = Conflict.of_pairs [ ("s11", "s21"); ("s12", "s24"); ("s15", "s25") ] in
  let fwd p n = Schedule.Act (Activity.Forward (Process.find p n)) in
  Format.printf "Process P1 (figure 2):@.%a@.@." Process.pp p1;
  Format.printf "Valid executions of P1 (figure 3):@.";
  List.iter
    (fun tr ->
      Format.printf "  <%a>@."
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") Activity.pp_instance)
        tr)
    (Execution.valid_executions p1);
  let s_t2 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p2 3; fwd p1 2; fwd p2 4; fwd p1 3 ]
  in
  let s'_t2 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p2 3; fwd p2 4; fwd p1 2; fwd p1 3 ]
  in
  let s''_t1 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p2 1; fwd p2 2; fwd p2 3; fwd p2 4; fwd p1 1; fwd p2 5; fwd p1 2; fwd p1 3 ]
  in
  Format.printf "@.Example 3/4 (figure 4):@.";
  verdict "S'_t2 (figure 4b) is serializable" (Criteria.serializable s'_t2);
  verdict "S_t2  (figure 4a) is serializable" (Criteria.serializable s_t2);
  Format.printf "@.Examples 5-8 (figures 6-8):@.";
  Format.printf "  completed(S_t2) = %a@." Schedule.pp (Completed.of_schedule s_t2);
  verdict "S_t2 is RED" (Criteria.red s_t2);
  verdict "S_t2 is PRED" (Criteria.pred s_t2);
  verdict "S''_t1 (figure 7) is PRED" (Criteria.pred s''_t1);
  Format.printf "@.Theorem 1 on these schedules:@.";
  List.iter
    (fun (name, s) ->
      if Criteria.pred s then begin
        verdict (name ^ ": committed projection serializable") (Criteria.committed_serializable s);
        verdict (name ^ ": process-recoverable") (Criteria.process_recoverable s)
      end
      else Format.printf "  %-52s (not PRED)@." name)
    [ ("S_t2", s_t2); ("S'_t2", s'_t2); ("S''_t1", s''_t1) ];
  0

(* --- tpm cim --- *)
let run_cim fail_test =
  let part = "boiler-7" in
  let parts = [ part ] in
  let fail_prob s = if fail_test && s = "test:" ^ part then 1.0 else 0.0 in
  let rms = Cim.rms ~parts ~fail_prob () in
  let config =
    {
      Scheduler.default_config with
      service_time =
        (fun s ->
          if s = "tech_doc:" ^ part then 5.0 else if s = "test:" ^ part then 3.0 else 1.0);
    }
  in
  let t = Scheduler.create ~config ~spec:(Cim.spec ~parts) ~rms () in
  Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part);
  Scheduler.submit t ~at:2.5 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part);
  Scheduler.run t;
  let h = Scheduler.history t in
  Format.printf "schedule:  %a@." Schedule.pp h;
  Format.printf "makespan:  %.1f@." (Scheduler.now t);
  verdict "history is PRED" (Criteria.pred h);
  0

(* --- tpm random --- *)
let run_random n conflict_density fail_rate mode weak trace seed =
  let mode =
    match mode with
    | "conservative" -> Scheduler.Conservative
    | "quasi" -> Scheduler.Quasi
    | _ -> Scheduler.Deferred
  in
  let params = { Generator.default_params with conflict_density } in
  let rms = Generator.rms params ~fail_prob:(fun _ -> fail_rate) ~seed () in
  let spec = Generator.spec params in
  let order = if weak then Scheduler.Weak else Scheduler.Strong in
  let config = { Scheduler.default_config with mode; order; seed } in
  let tracer =
    (* compat form of the old global trace flag: pretty-print every event
       to stderr (equivalent to TPM_TRACE=1) *)
    if trace then
      Tpm_obs.Obs.Tracer.create ~sinks:[ Tpm_obs.Obs.Sink.stderr_pretty () ] ()
    else Tpm_obs.Obs.Tracer.disabled
  in
  let t = Scheduler.create ~config ~tracer ~spec ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.4 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 100) params ~n);
  Scheduler.run t;
  let h = Scheduler.history t in
  Format.printf "processes: %d   makespan: %.1f@." n (Scheduler.now t);
  verdict "finished" (Scheduler.finished t);
  verdict "history legal" (Schedule.legal h);
  verdict "history PRED" (Criteria.pred h);
  Format.printf "@.metrics:@.%a@." Metrics.pp_summary (Scheduler.metrics t);
  0

(* --- tpm check / tpm dot --- *)
let load path =
  match Lang.parse_file path with
  | Error e ->
      Format.eprintf "%s: %a@." path Lang.pp_error e;
      None
  | Ok doc -> Some doc

let run_check path =
  match load path with
  | None -> 1
  | Some doc ->
      List.iter
        (fun p ->
          Format.printf "process %d:@." (Process.pid p);
          (match Flex.well_formed p with
          | Ok () -> verdict "well-formed flex structure" true
          | Error issues ->
              verdict "well-formed flex structure" false;
              List.iter (fun i -> Format.printf "    - %a@." Flex.pp_issue i) issues);
          verdict "guaranteed termination" (Flex.guaranteed_termination p);
          (match Compose.classify p with
          | Ok kind ->
              Format.printf "  as a subprocess it acts as: %s@."
                (match kind with
                | Activity.Compensatable -> "compensatable"
                | Activity.Pivot -> "pivot"
                | Activity.Retriable -> "retriable")
          | Error _ -> ());
          Format.printf "  valid executions:@.";
          List.iter
            (fun tr ->
              Format.printf "    <%a>@."
                (Format.pp_print_list
                   ~pp_sep:(fun f () -> Format.fprintf f " ")
                   Activity.pp_instance)
                tr)
            (Execution.valid_executions p))
        doc.Lang.processes;
      (match doc.Lang.schedule with
      | None -> ()
      | Some s ->
          Format.printf "@.schedule: %a@." Schedule.pp s;
          verdict "legal" (Schedule.legal s);
          verdict "serializable" (Criteria.serializable s);
          verdict "reducible (RED)" (Criteria.red s);
          verdict "prefix-reducible (PRED)" (Criteria.pred s);
          verdict "process-recoverable (Proc-REC)" (Criteria.process_recoverable s);
          (match Criteria.first_irreducible_prefix s with
          | None -> ()
          | Some p ->
              Format.printf "  first irreducible prefix (%d events): %a@." (Schedule.length p)
                Schedule.pp p));
      0

let run_dot path =
  match load path with
  | None -> 1
  | Some doc ->
      List.iter (fun p -> print_string (Dot.process p)) doc.Lang.processes;
      (match doc.Lang.schedule with
      | Some s -> print_string (Dot.schedule s)
      | None -> ());
      0

(* --- tpm serve --- *)

let run_serve socket_path policy max_live queue_capacity deadline conflict_density
    fail_rate seed =
  match Tpm_server.Server.policy_of_string policy with
  | None ->
      Format.eprintf "tpm serve: unknown overload policy %S (reject|queue|degrade)@." policy;
      2
  | Some policy ->
      let module Server = Tpm_server.Server in
      let params = { Generator.default_params with conflict_density } in
      let rms = Generator.rms params ~fail_prob:(fun _ -> fail_rate) ~seed () in
      let spec = Generator.spec params in
      let config = { Scheduler.default_config with seed } in
      let sched = Scheduler.create ~config ~spec ~rms () in
      let scfg =
        {
          Server.default_config with
          policy;
          max_live;
          queue_capacity;
          default_deadline = deadline;
        }
      in
      let srv = Server.create ~config:scfg sched in
      if Sys.file_exists socket_path then Sys.remove socket_path;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX socket_path);
      Unix.listen sock 8;
      let stop = ref false in
      let on_signal _ = stop := true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Format.printf "tpm serve: listening on %s (policy %s, window %d, queue %d)@."
        socket_path (Server.policy_label policy) max_live queue_capacity;
      Format.printf "  send Lang documents terminated by a '.' line, e.g.:@.";
      Format.printf "    printf 'process 1 {\\n  1 svc0 retriable @@ss0\\n}\\n.\\n' | nc -U %s@."
        socket_path;
      (try
         while not !stop do
           match Unix.accept sock with
           | fd, _ ->
               (try Server.handle_connection srv fd
                with e ->
                  Format.eprintf "tpm serve: connection error: %s@." (Printexc.to_string e));
               Unix.close fd
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         done
       with Unix.Unix_error (Unix.EBADF, _, _) -> ());
      Format.printf "@.tpm serve: draining (stop intake, settle in-flight, seal WAL)...@.";
      Server.drain srv;
      let c = Server.counters srv in
      Format.printf
        "tpm serve: done.  offered=%d admitted=%d rejected=%d expired=%d degraded=%d@."
        c.Server.offered c.Server.admitted c.Server.rejected c.Server.expired
        c.Server.degraded;
      verdict "shed accounting exact" (Server.accounting_ok srv);
      verdict "in-flight settled" (Scheduler.finished sched);
      (try Unix.close sock with _ -> ());
      (try Sys.remove socket_path with _ -> ());
      0

(* --- systematic interleaving exploration (DPOR-lite) --- *)

let run_explore list_scenarios scenario no_prune max_branches trace_out replay
    expect_violation =
  let module E = Tpm_explore.Explore in
  let pp_script s = "[" ^ String.concat "," (List.map string_of_int s) ^ "]" in
  if list_scenarios then begin
    List.iter (fun (s : E.scenario) -> Printf.printf "%-14s %s\n" s.name s.descr)
      E.scenarios;
    0
  end
  else
    match replay with
    | Some file -> (
        match E.load_trace file with
        | Error e ->
            Printf.eprintf "tpm explore: cannot read %s: %s\n" file e;
            2
        | Ok (name, script) -> (
            match E.find_scenario name with
            | None ->
                Printf.eprintf "tpm explore: unknown scenario %s\n" name;
                2
            | Some sc -> (
                let out = E.run_branch sc ~script in
                Printf.printf "replay %s: scenario %s, script %s\n" file name
                  (pp_script script);
                match out.E.violations with
                | [] ->
                    Printf.printf "no violation reproduced\n";
                    1
                | vs ->
                    Printf.printf "reproduced: %s\n" (String.concat "; " vs);
                    print_string (Lazy.force out.E.forensics);
                    0)))
    | None -> (
        match E.find_scenario scenario with
        | None ->
            Printf.eprintf "tpm explore: unknown scenario %s (try --list)\n" scenario;
            2
        | Some sc ->
            let r =
              E.explore ~prune:(not no_prune) ~max_branches
                ~log:(fun m -> Printf.printf "  %s\n%!" m)
                sc
            in
            Printf.printf
              "%s: %d branches explored (depth <= %d), pruned %d symmetric / %d \
               sleep / %d visited, %d violating%s\n"
              sc.E.name r.E.stats.E.explored r.E.stats.E.max_depth
              r.E.stats.E.pruned_symmetry r.E.stats.E.pruned_sleep
              r.E.stats.E.pruned_visited (List.length r.E.found)
              (if r.E.stats.E.truncated then " [TRUNCATED]" else "");
            (match r.E.found with
            | [] -> ()
            | first :: _ ->
                List.iter
                  (fun (f : E.found) ->
                    Printf.printf "  VIOLATION at %s (minimized %s): %s\n"
                      (pp_script f.E.script) (pp_script f.E.minimized)
                      (String.concat "; " f.E.violations))
                  r.E.found;
                E.save_trace ~path:trace_out sc first.E.minimized;
                Printf.printf "  minimized trace written to %s\n" trace_out;
                let out = E.run_branch sc ~script:first.E.minimized in
                print_string (Lazy.force out.E.forensics));
            let bad = r.E.found <> [] in
            if expect_violation then if bad then 0 else 1 else if bad then 1 else 0)

(* --- command line --- *)
open Cmdliner

let paper_cmd =
  Cmd.v (Cmd.info "paper" ~doc:"Reproduce the paper's worked examples (figures 2-8)")
    Term.(const run_paper $ const ())

let cim_cmd =
  let fail_test =
    Arg.(value & flag & info [ "fail-test" ] ~doc:"Inject a failure of the test activity")
  in
  Cmd.v (Cmd.info "cim" ~doc:"Run the CIM scenario of figure 1")
    Term.(const run_cim $ fail_test)

let random_cmd =
  let n = Arg.(value & opt int 8 & info [ "n"; "processes" ] ~doc:"Number of processes") in
  let density =
    Arg.(value & opt float 0.2 & info [ "conflicts" ] ~doc:"Conflict density in [0,1]")
  in
  let fail_rate =
    Arg.(value & opt float 0.1 & info [ "failures" ] ~doc:"Failure injection rate in [0,1]")
  in
  let mode =
    Arg.(
      value
      & opt string "deferred"
      & info [ "mode" ] ~doc:"Scheduler mode: conservative, deferred or quasi")
  in
  let weak = Arg.(value & flag & info [ "weak" ] ~doc:"Enable the weak order (Section 3.6)") in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Pretty-print every scheduler trace event to stderr (same as \
             setting TPM_TRACE=1)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed") in
  Cmd.v (Cmd.info "random" ~doc:"Run a random workload through the scheduler")
    Term.(const run_random $ n $ density $ fail_rate $ mode $ weak $ trace $ seed)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A .tpm document")

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Validate the processes and schedule of a .tpm document")
    Term.(const run_check $ file_arg)

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Render a .tpm document as Graphviz DOT")
    Term.(const run_dot $ file_arg)

let serve_cmd =
  let socket =
    Arg.(
      value & opt string "/tmp/tpm.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket to listen on")
  in
  let policy =
    Arg.(
      value & opt string "queue"
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Overload policy: reject, queue or degrade")
  in
  let max_live =
    Arg.(value & opt int 32 & info [ "max-live" ] ~doc:"In-flight admission window")
  in
  let queue_capacity =
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~doc:"Bounded admission queue size")
  in
  let deadline =
    Arg.(
      value & opt float 10.0
      & info [ "deadline" ] ~doc:"Virtual-time budget before a queued submission is shed")
  in
  let density =
    Arg.(value & opt float 0.2 & info [ "conflicts" ] ~doc:"Conflict density in [0,1]")
  in
  let fail_rate =
    Arg.(value & opt float 0.0 & info [ "failures" ] ~doc:"Failure injection rate in [0,1]")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the open-world process server: accept Lang documents over a Unix \
          socket under a bounded admission window with an explicit overload \
          policy; SIGTERM/SIGINT drains gracefully")
    Term.(
      const run_serve $ socket $ policy $ max_live $ queue_capacity $ deadline $ density
      $ fail_rate $ seed)

let explore_cmd =
  let list_scenarios =
    Arg.(value & flag & info [ "list" ] ~doc:"List the built-in scenarios")
  in
  let scenario =
    Arg.(
      value & opt string "lemma1"
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario to explore (see --list)")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:"Enumerate the full interleaving tree (cross-validation mode)")
  in
  let max_branches =
    Arg.(value & opt int 20000 & info [ "max-branches" ] ~doc:"Branch cap")
  in
  let trace_out =
    Arg.(
      value
      & opt string "explore-trace.txt"
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Where the minimized violating trace is written")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded trace instead of exploring; exits 0 iff the \
             violation reproduces")
  in
  let expect_violation =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:
            "Invert the exit sense: succeed iff a violation was found (the \
             mutation self-test)")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore scheduler interleavings (DPOR-lite) and check \
          every branch against the correctness oracles")
    Term.(
      const run_explore $ list_scenarios $ scenario $ no_prune $ max_branches
      $ trace_out $ replay $ expect_violation)

let () =
  let doc = "transactional process management (PODS'99 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "tpm" ~doc)
          [ paper_cmd; cim_cmd; random_cmd; check_cmd; dot_cmd; serve_cmd; explore_cmd ]))
