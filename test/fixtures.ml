(* Shared fixtures: the processes and conflict specification of the paper's
   running example (figures 2, 4, 6, 7, 8, 9). *)

open Tpm_core

let act ~proc ~act:n ~service ~kind = Activity.make ~proc ~act:n ~service ~kind ()

(* Process P1 (figure 2):
   a11^c << a12^p << a13^c << a14^p, alternative a12 << a15^r << a16^r,
   with (a12 << a13) preferred over (a12 << a15). *)
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

(* Process P2 (figure 4): a21^c << a22^c << a23^p << a24^r << a25^r. *)
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

(* Process P3 (figure 9): a31^c << a32^p; a31 conflicts with a11. *)
let p3 =
  Process.make_exn ~pid:3
    ~activities:
      [
        act ~proc:3 ~act:1 ~service:"s31" ~kind:Activity.Compensatable;
        act ~proc:3 ~act:2 ~service:"s32" ~kind:Activity.Pivot;
      ]
    ~prec:[ (1, 2) ]
    ~pref:[]

(* Conflicts of figure 4: (a11, a21), (a12, a24), (a15, a25);
   plus figure 9: (a11, a31). *)
let spec =
  Conflict.of_pairs
    [ ("s11", "s21"); ("s12", "s24"); ("s15", "s25"); ("s11", "s31") ]

let a1 n = Process.find p1 n
let a2 n = Process.find p2 n
let a3 n = Process.find p3 n

let fwd1 n = Activity.Forward (a1 n)
let fwd2 n = Activity.Forward (a2 n)
let fwd3 n = Activity.Forward (a3 n)
let inv1 n = Activity.Inverse (a1 n)
let inv3 n = Activity.Inverse (a3 n)

(* Alcotest testables *)
let instance = Alcotest.testable Activity.pp_instance Activity.instance_equal
let instance_list = Alcotest.list instance

(* The recovery plans of a full and a compacted (or otherwise rewritten)
   log agree: same committed, aborted and interrupted processes, and the
   same completion and in-doubt set for every interrupted one. *)
let check_same_plan tag (full : Tpm_wal.Recovery.t) (small : Tpm_wal.Recovery.t) =
  let module R = Tpm_wal.Recovery in
  let check = Alcotest.check in
  check Alcotest.(list int) (tag ^ ": same committed") full.R.committed small.R.committed;
  check Alcotest.(list int) (tag ^ ": same aborted") full.R.aborted small.R.aborted;
  check
    Alcotest.(list int)
    (tag ^ ": same interrupted pids")
    (List.map (fun (p : R.process_plan) -> p.R.pid) full.R.interrupted)
    (List.map (fun (p : R.process_plan) -> p.R.pid) small.R.interrupted);
  List.iter2
    (fun (a : R.process_plan) (b : R.process_plan) ->
      check instance_list
        (Printf.sprintf "%s: same completion for P%d" tag a.R.pid)
        (Execution.completion a.R.exec) (Execution.completion b.R.exec);
      check
        Alcotest.(list int)
        (Printf.sprintf "%s: same in-doubt for P%d" tag a.R.pid)
        a.R.in_doubt b.R.in_doubt)
    full.R.interrupted small.R.interrupted
