(* The harnesses' shared oracle (lib/oracle): every violation it can
   name fires on a hand-built bad input, and a clean run passes. *)

open Tpm_core
open Fixtures
module Oracle = Tpm_oracle.Oracle
module Scheduler = Tpm_scheduler.Scheduler
module Rm = Tpm_subsys.Rm
module Service = Tpm_subsys.Service
module Store = Tpm_kv.Store
module Tx = Tpm_kv.Tx
module Value = Tpm_kv.Value
module Wal = Tpm_wal.Wal
module Local = Tpm_composite.Local

let fires name violations =
  Alcotest.(check bool)
    (Printf.sprintf "%S in [%s]" name (String.concat "; " violations))
    true (List.mem name violations)

(* figure 1's interleaving (doc/cim.tpm): production's pivot commits
   while the construction process is still active *)
let figure1 =
  {|
conflict pdm_entry read_bom
process 1 {
  1 design      compensatable @cad
  2 pdm_entry   compensatable @pdm
  3 test        pivot         @testdb
  4 tech_doc    retriable     @docrepo
  5 doc_drawing retriable     @docrepo
  1 -> 2
  2 -> 3
  3 -> 4
  1 -> 5
  (1 -> 2) < (1 -> 5)
}
process 2 {
  1 read_bom       compensatable @pdm
  2 order_material compensatable @bizapp
  3 produce        pivot         @productdb
  4 update_stock   retriable     @productdb
  1 -> 2
  2 -> 3
  3 -> 4
}
schedule {
  act 1 1
  act 1 2
  act 2 1
  act 2 2
  act 2 3
  act 1 3
  act 1 4
  commit 1
  act 2 4
  commit 2
}
|}

let test_history () =
  (match Lang.parse figure1 with
  | Ok { Lang.schedule = Some s; _ } ->
      let v = Oracle.history s in
      fires "PRED violated" v;
      Alcotest.(check bool) "figure 1 is legal" false (List.mem "illegal history" v)
  | Ok _ -> Alcotest.fail "figure 1 has no schedule"
  | Error e -> Alcotest.fail (Format.asprintf "%a" Lang.pp_error e));
  (* Example 8's S_t2: P2's pivot runs before P1's although P1
     conflicts first (Definition 11.2) *)
  let act i = Schedule.Act i in
  fires "Proc-REC violated"
    (Oracle.history
       (Schedule.make ~spec ~procs:[ p1; p2 ]
          [ act (fwd1 1); act (fwd2 1); act (fwd2 2); act (fwd2 3); act (fwd1 2);
            act (fwd2 4); act (fwd1 3) ]));
  (* a22 before a21 breaks P2's precedence order *)
  fires "illegal history"
    (Oracle.history (Schedule.make ~spec ~procs:[ p2 ] [ act (fwd2 2); act (fwd2 1) ]));
  (* two committed processes, each ahead of the other on one item *)
  let proc pid =
    Process.make_exn ~pid
      ~activities:
        (List.map
           (fun n ->
             Activity.make ~proc:pid ~act:n ~service:(Printf.sprintf "w%d" n)
               ~kind:Activity.Compensatable ())
           [ 1; 2 ])
      ~prec:[ (1, 2) ] ~pref:[]
  in
  let pa = proc 11 and pb = proc 12 in
  let fwd p n = act (Activity.Forward (Process.find p n)) in
  fires "not commit-order serializable"
    (Oracle.history
       (Schedule.make
          ~spec:(Conflict.of_pairs [ ("w1", "w1"); ("w2", "w2") ])
          ~procs:[ pa; pb ]
          [ fwd pa 1; fwd pb 1; fwd pb 2; fwd pa 2; Schedule.Commit 11; Schedule.Commit 12 ]))

let inc tx ~args:_ =
  let v = match Tx.get tx "k" with Value.Int n -> n | _ -> 0 in
  Tx.set tx "k" (Value.Int (v + 1));
  Value.Int (v + 1)

let make_rms () =
  let reg = Service.Registry.create () in
  Service.Registry.register reg (Service.make ~name:"inc" ~writes:[ "k" ] inc);
  [ Rm.create ~name:"A" ~registry:reg () ]

let test_subsystems () =
  let rms = make_rms () in
  Alcotest.(check (list string)) "fresh subsystems hold nothing" [] (Oracle.tokens rms);
  ignore (Rm.prepare (List.hd rms) ~token:7 ~service:"inc" ());
  fires "leaked prepared token" (Oracle.tokens rms);
  let w tx = Local.Op { Local.tx; item = "x"; mode = `Write } in
  fires "locals not commit-order serializable"
    (Oracle.locals [ ("A", Local.make [ w 1; w 2; Local.Commit 2; Local.Commit 1 ]) ]);
  let twin = make_rms () in
  Alcotest.(check (list string)) "empty twins agree" [] (Oracle.same_stores (make_rms ()) twin);
  Store.set (Rm.store (List.hd twin)) "k" (Value.Int 1);
  fires "stores differ from twin" (Oracle.same_stores (make_rms ()) twin)

let test_presumed_abort () =
  let before =
    [
      Wal.Coord_begin { cid = 1; pid = 1; act = 2; parts = [ "A" ] };
      Wal.Coord_committed { cid = 1; pid = 1 };
    ]
  in
  let empty = Schedule.make ~spec ~procs:[ p1 ] [] in
  fires "durably committed a_{1,2} missing from history"
    (Oracle.presumed_abort ~before ~after:[] empty);
  fires "durably committed a_{1,2} aborted by recovery"
    (Oracle.presumed_abort ~before
       ~after:[ Wal.Prepared_decided { pid = 1; act = 2; commit = false } ]
       empty);
  Alcotest.(check (list string))
    "an undecided instance is presumed aborted" []
    (Oracle.presumed_abort ~before:[ List.hd before ] ~after:[] empty)

let test_run () =
  let proc =
    Process.make_exn ~pid:1
      ~activities:
        [ Activity.make ~proc:1 ~act:1 ~service:"inc" ~kind:Activity.Pivot ~subsystem:"A" () ]
      ~prec:[] ~pref:[]
  in
  let start () =
    let t = Scheduler.create ~spec:(Conflict.of_pairs []) ~rms:(make_rms ()) () in
    Scheduler.submit t ~at:1.0 proc;
    t
  in
  let t = start () in
  Scheduler.run ~until:1.5 t;
  fires "did not finish" (Oracle.run t);
  let t = start () in
  Scheduler.run t;
  Alcotest.(check (list string)) "a clean run passes" [] (Oracle.run ~fresh:make_rms t);
  Store.set (Rm.store (List.hd (Scheduler.rms t))) "k" (Value.Int 5);
  fires "stores not explained by history replay" (Oracle.run ~fresh:make_rms t)

let suite =
  [
    Alcotest.test_case "history checks" `Quick test_history;
    Alcotest.test_case "subsystem checks" `Quick test_subsystems;
    Alcotest.test_case "presumed-abort soundness" `Quick test_presumed_abort;
    Alcotest.test_case "run suite" `Quick test_run;
  ]
