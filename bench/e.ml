(* Section E: the paper is a theory paper, and its "evaluation" is the
   worked examples of figures 1-9.  Every one of them runs here as an
   executable check, printing the paper's claim next to the measured
   verdict. *)

open Harness

let paper_fixtures () =
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
  let p3 =
    Process.make_exn ~pid:3
      ~activities:
        [
          act ~proc:3 ~act:1 ~service:"s31" ~kind:Activity.Compensatable;
          act ~proc:3 ~act:2 ~service:"s32" ~kind:Activity.Pivot;
        ]
      ~prec:[ (1, 2) ]
      ~pref:[]
  in
  let spec =
    Conflict.of_pairs [ ("s11", "s21"); ("s12", "s24"); ("s15", "s25"); ("s11", "s31") ]
  in
  (p1, p2, p3, spec)

let run () =
  section "E — paper figures and worked examples (claim vs. measured)";
  let p1, p2, p3, spec = paper_fixtures () in
  let fwd p n = Schedule.Act (Activity.Forward (Process.find p n)) in
  let s_t2 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p2 3; fwd p1 2; fwd p2 4; fwd p1 3 ]
  in
  let s_t1 =
    Schedule.make ~spec ~procs:[ p1; p2 ] [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p2 3 ]
  in
  let s'_t2 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p2 3; fwd p2 4; fwd p1 2; fwd p1 3 ]
  in
  let s''_t1 =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p2 1; fwd p2 2; fwd p2 3; fwd p2 4; fwd p1 1; fwd p2 5; fwd p1 2; fwd p1 3 ]
  in
  let s_star =
    Schedule.make ~spec ~procs:[ p1; p3 ] [ fwd p1 1; fwd p1 2; fwd p3 1; fwd p3 2 ]
  in
  (* E9: run figure 1 through the scheduler and check the deferral *)
  let e9 () =
    let part = "boiler" in
    let parts = [ part ] in
    let rms = Cim.rms ~parts () in
    let config =
      {
        Scheduler.default_config with
        service_time = (fun s -> if s = "tech_doc:" ^ part then 5.0 else 1.0);
      }
    in
    let t = Scheduler.create ~config ~spec:(Cim.spec ~parts) ~rms () in
    Scheduler.submit t ~args_of:Cim.args_of (Cim.construction ~pid:1 ~part);
    Scheduler.submit t ~at:2.5 ~args_of:Cim.args_of (Cim.production ~pid:2 ~part);
    Scheduler.run t;
    let h = Scheduler.history t in
    let pos pred =
      let rec go i = function [] -> max_int | ev :: r -> if pred ev then i else go (i + 1) r in
      go 0 (Schedule.events h)
    in
    let produce =
      pos (function
        | Schedule.Act (Activity.Forward a) -> a.Activity.service = "produce:" ^ part
        | _ -> false)
    in
    let c1 = pos (function Schedule.Commit 1 -> true | _ -> false) in
    Criteria.pred h && produce > c1
  in
  let checks =
    [
      ( "E1", "fig 3: P1 has exactly 4 valid executions",
        List.length (Execution.valid_executions p1) = 4 );
      ( "E2", "ex 2: C(P1) after a13 = {a13' << a15 << a16}",
        let st =
          List.fold_left Execution.exec (Execution.start p1) [ 1; 2; 3 ]
        in
        Execution.completion st
        = [ Activity.Inverse (Process.find p1 3); Activity.Forward (Process.find p1 5);
            Activity.Forward (Process.find p1 6) ] );
      ("E3", "fig 4b: S'_t2 not serializable", not (Criteria.serializable s'_t2));
      ("E4", "fig 4a: S_t2 serializable", Criteria.serializable s_t2);
      ("E5", "fig 6: completed(S_t2) serializable", Criteria.serializable (Completed.of_schedule s_t2));
      ("E5b", "ex 6: S_t2 is RED", Criteria.red s_t2);
      ("E6", "fig 7: S''_t1 is RED and PRED", Criteria.red s''_t1 && Criteria.pred s''_t1);
      ("E7", "ex 8: prefix S_t1 irreducible => S_t2 not PRED",
        (not (Criteria.red s_t1)) && not (Criteria.pred s_t2));
      ("E8", "fig 9: quasi-commit schedule S* is PRED", Criteria.pred s_star);
      ("E9", "fig 1: scheduler defers produce past C_1, PRED", e9 ());
    ]
  in
  print_table [ "id"; "claim"; "measured" ]
    (List.map (fun (id, claim, ok) -> [ id; claim; (if ok then "reproduced" else "FAILED") ]) checks);
  List.for_all (fun (_, _, ok) -> ok) checks

let experiment =
  Harness.experiment "e" (fun ~quick:_ ~json:_ ->
      { no_outcome with invariants = [ ("paper claims reproduced", run ()) ] })
