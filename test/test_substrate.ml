(* Unit tests for the substrates: store, transactions, locks, services,
   and resource managers, including their prepared (2PC participant)
   state.  The coordinator side is tested in test_twopc_coord.ml. *)

module Value = Tpm_kv.Value
module Store = Tpm_kv.Store
module Tx = Tpm_kv.Tx
module Locks = Tpm_kv.Locks
module Service = Tpm_subsys.Service
module Rm = Tpm_subsys.Rm

let check = Alcotest.check
let value = Alcotest.testable Value.pp Value.equal

let test_store_basics () =
  let s = Store.create () in
  check value "absent key is Nil" Value.Nil (Store.get s "x");
  Store.set s "x" (Value.Int 7);
  check value "read back" (Value.Int 7) (Store.get s "x");
  let v0 = Store.version s in
  Store.delete s "x";
  check value "deleted" Value.Nil (Store.get s "x");
  check Alcotest.bool "version bumped" true (Store.version s > v0)

let test_store_snapshot_restore () =
  let s = Store.create () in
  Store.set s "a" (Value.Int 1);
  Store.set s "b" (Value.Text "t");
  let snap = Store.snapshot s in
  Store.set s "a" (Value.Int 99);
  Store.delete s "b";
  Store.restore s snap;
  check value "a restored" (Value.Int 1) (Store.get s "a");
  check value "b restored" (Value.Text "t") (Store.get s "b")

let test_store_equal_state () =
  let a = Store.create () and b = Store.create () in
  Store.set a "k" (Value.Int 1);
  check Alcotest.bool "different" false (Store.equal_state a b);
  Store.set b "k" (Value.Int 1);
  check Alcotest.bool "equal" true (Store.equal_state a b)

let test_tx_commit_and_abort () =
  let s = Store.create () in
  Store.set s "x" (Value.Int 1);
  let tx = Tx.begin_ s in
  Tx.set tx "x" (Value.Int 2);
  Tx.set tx "y" (Value.Int 3);
  check value "read own write" (Value.Int 2) (Tx.get tx "x");
  check value "store unchanged before commit" (Value.Int 1) (Store.get s "x");
  Tx.commit tx;
  check value "committed x" (Value.Int 2) (Store.get s "x");
  check value "committed y" (Value.Int 3) (Store.get s "y");
  let tx2 = Tx.begin_ s in
  Tx.set tx2 "x" (Value.Int 42);
  Tx.abort tx2;
  check value "abort leaves store" (Value.Int 2) (Store.get s "x")

let test_tx_undo_entries () =
  let s = Store.create () in
  Store.set s "x" (Value.Int 1);
  let tx = Tx.begin_ s in
  Tx.set tx "x" (Value.Int 2);
  Tx.set tx "y" (Value.Int 3);
  Tx.commit tx;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string value))
    "pre-images captured"
    [ ("x", Value.Int 1); ("y", Value.Nil) ]
    (Tx.undo_entries tx)

let test_tx_terminated_raises () =
  let s = Store.create () in
  let tx = Tx.begin_ s in
  Tx.commit tx;
  Alcotest.check_raises "set after commit" (Invalid_argument "Tx.set: transaction terminated")
    (fun () -> Tx.set tx "x" Value.Nil)

let test_locks () =
  let l = Locks.create () in
  check Alcotest.bool "shared/shared ok" true
    (Locks.acquire l ~owner:1 ~mode:Locks.Shared "k" = Ok ()
    && Locks.acquire l ~owner:2 ~mode:Locks.Shared "k" = Ok ());
  (match Locks.acquire l ~owner:3 ~mode:Locks.Exclusive "k" with
  | Error owners -> check Alcotest.(list int) "blockers reported" [ 1; 2 ] owners
  | Ok () -> Alcotest.fail "exclusive over shared granted");
  Locks.release_all l ~owner:2;
  (* upgrade: sole shared holder may go exclusive *)
  check Alcotest.bool "upgrade" true (Locks.acquire l ~owner:1 ~mode:Locks.Exclusive "k" = Ok ());
  check Alcotest.bool "re-entrant" true (Locks.acquire l ~owner:1 ~mode:Locks.Shared "k" = Ok ());
  check Alcotest.(list string) "held by 1" [ "k" ] (Locks.held_by l ~owner:1)

let counter_registry () =
  let reg = Service.Registry.create () in
  Service.Registry.register reg
    (Service.make ~name:"incr" ~compensation:(Service.Inverse_service "decr")
       ~reads:[ "n" ] ~writes:[ "n" ]
       (fun tx ~args:_ ->
         let v = Value.int_exn (match Tx.get tx "n" with Value.Nil -> Value.Int 0 | v -> v) in
         Tx.set tx "n" (Value.Int (v + 1));
         Value.Int (v + 1)));
  Service.Registry.register reg
    (Service.make ~name:"decr" ~reads:[ "n" ] ~writes:[ "n" ]
       (fun tx ~args:_ ->
         let v = Value.int_exn (match Tx.get tx "n" with Value.Nil -> Value.Int 0 | v -> v) in
         Tx.set tx "n" (Value.Int (v - 1));
         Value.Int (v - 1)));
  Service.Registry.register reg
    (Service.make ~name:"read_n" ~reads:[ "n" ] (fun tx ~args:_ -> Tx.get tx "n"));
  Service.Registry.register reg
    (Service.make ~name:"set_flag" ~compensation:Service.Snapshot_undo ~writes:[ "flag" ]
       (fun tx ~args -> Tx.set tx "flag" args; Value.Bool true));
  reg

let test_registry_conflicts () =
  let reg = counter_registry () in
  let spec = Service.Registry.conflict_spec reg in
  check Alcotest.bool "incr conflicts decr" true
    (Tpm_core.Conflict.services_conflict spec "incr" "decr");
  check Alcotest.bool "incr conflicts read_n" true
    (Tpm_core.Conflict.services_conflict spec "incr" "read_n");
  check Alcotest.bool "incr self-conflicts" true
    (Tpm_core.Conflict.services_conflict spec "incr" "incr");
  check Alcotest.bool "read_n commutes with set_flag" false
    (Tpm_core.Conflict.services_conflict spec "read_n" "set_flag");
  check Alcotest.bool "read_n is effect-free" true (Tpm_core.Conflict.effect_free spec "read_n");
  check Alcotest.bool "incr is not effect-free" false (Tpm_core.Conflict.effect_free spec "incr")

let test_rm_invoke_and_compensate () =
  let rm = Rm.create ~name:"db" ~registry:(counter_registry ()) () in
  (match Rm.invoke rm ~token:1 ~service:"incr" () with
  | Rm.Committed v -> check value "returned 1" (Value.Int 1) v
  | _ -> Alcotest.fail "invoke failed");
  (match Rm.invoke rm ~token:2 ~service:"incr" () with
  | Rm.Committed v -> check value "returned 2" (Value.Int 2) v
  | _ -> Alcotest.fail "invoke failed");
  (* semantic compensation via the inverse service *)
  (match Rm.compensate rm ~token:2 () with
  | Rm.Committed _ -> ()
  | _ -> Alcotest.fail "compensate failed");
  check value "counter back to 1" (Value.Int 1) (Store.get (Rm.store rm) "n")

let test_rm_snapshot_compensation () =
  let rm = Rm.create ~name:"db" ~registry:(counter_registry ()) () in
  ignore (Rm.invoke rm ~token:5 ~service:"set_flag" ~args:(Value.Text "on") ());
  check value "flag set" (Value.Text "on") (Store.get (Rm.store rm) "flag");
  ignore (Rm.compensate rm ~token:5 ());
  check value "flag restored" Value.Nil (Store.get (Rm.store rm) "flag")

(* Regression: snapshot undo used to write its pre-images to the store
   without taking exclusive locks or consulting the outage plan, so it
   could silently clobber a key a concurrent prepared transaction held —
   both compensation paths must share the lock/outage discipline. *)
let test_rm_snapshot_undo_blocked_by_prepared_writer () =
  let rm = Rm.create ~name:"db" ~registry:(counter_registry ()) () in
  ignore (Rm.invoke rm ~token:5 ~service:"set_flag" ~args:(Value.Text "on") ());
  (* a prepared writer holds the exclusive lock on "flag" *)
  (match Rm.prepare rm ~token:6 ~service:"set_flag" ~args:(Value.Text "off") () with
  | Rm.Prepared _ -> ()
  | _ -> Alcotest.fail "prepare failed");
  (match Rm.compensate rm ~token:5 () with
  | Rm.Blocked [ 6 ] -> ()
  | Rm.Committed _ -> Alcotest.fail "snapshot undo ignored the prepared writer's lock"
  | _ -> Alcotest.fail "expected Blocked [6]");
  check value "store untouched while blocked" (Value.Text "on") (Store.get (Rm.store rm) "flag");
  (* the undo log must survive a blocked attempt: retry once unblocked *)
  Rm.abort_prepared rm ~token:6;
  (match Rm.compensate rm ~token:5 () with
  | Rm.Committed _ -> ()
  | _ -> Alcotest.fail "retry after unblock failed");
  check value "flag restored" Value.Nil (Store.get (Rm.store rm) "flag")

let test_rm_snapshot_undo_respects_outage () =
  let faults =
    Tpm_sim.Faults.make ~outages:[ Tpm_sim.Faults.outage ~subsystem:"db" ~from_:2.0 ~until_:5.0 ] ()
  in
  let rm = Rm.create ~name:"db" ~registry:(counter_registry ()) ~faults () in
  ignore (Rm.invoke rm ~token:5 ~service:"set_flag" ~args:(Value.Text "on") ~now:1.0 ());
  (match Rm.compensate rm ~token:5 ~now:3.0 () with
  | Rm.Unavailable -> ()
  | _ -> Alcotest.fail "snapshot undo ignored the outage window");
  check value "store untouched during outage" (Value.Text "on") (Store.get (Rm.store rm) "flag");
  (match Rm.compensate rm ~token:5 ~now:6.0 () with
  | Rm.Committed _ -> ()
  | _ -> Alcotest.fail "retry after the window failed");
  check value "flag restored" Value.Nil (Store.get (Rm.store rm) "flag")

let test_rm_failure_injection () =
  (* fail with certainty below the retry bound, succeed at the bound *)
  let rm =
    Rm.create ~name:"db" ~registry:(counter_registry ())
      ~fail_prob:(fun s -> if s = "incr" then 1.0 else 0.0)
      ~max_failures:3 ()
  in
  check Alcotest.bool "attempt 1 fails" true (Rm.invoke rm ~token:1 ~service:"incr" ~attempt:1 () = Rm.Failed);
  check Alcotest.bool "attempt 2 fails" true (Rm.invoke rm ~token:1 ~service:"incr" ~attempt:2 () = Rm.Failed);
  (match Rm.invoke rm ~token:1 ~service:"incr" ~attempt:3 () with
  | Rm.Committed _ -> ()
  | _ -> Alcotest.fail "guaranteed attempt failed");
  check value "exactly one increment" (Value.Int 1) (Store.get (Rm.store rm) "n")

let test_rm_prepare_blocks_conflicts () =
  let rm = Rm.create ~name:"db" ~registry:(counter_registry ()) () in
  (match Rm.prepare rm ~token:1 ~service:"incr" () with
  | Rm.Prepared v -> check value "prepared result" (Value.Int 1) v
  | _ -> Alcotest.fail "prepare failed");
  check value "effects invisible before 2PC" Value.Nil (Store.get (Rm.store rm) "n");
  (match Rm.invoke rm ~token:2 ~service:"incr" () with
  | Rm.Blocked [ 1 ] -> ()
  | _ -> Alcotest.fail "conflicting invocation not blocked");
  Rm.commit_prepared rm ~token:1;
  check value "effects visible after commit" (Value.Int 1) (Store.get (Rm.store rm) "n");
  match Rm.invoke rm ~token:2 ~service:"incr" () with
  | Rm.Committed _ -> ()
  | _ -> Alcotest.fail "still blocked after commit"

let test_rm_prepare_abort_rolls_back () =
  let rm = Rm.create ~name:"db" ~registry:(counter_registry ()) () in
  ignore (Rm.prepare rm ~token:1 ~service:"incr" ());
  Rm.abort_prepared rm ~token:1;
  check value "no effects" Value.Nil (Store.get (Rm.store rm) "n");
  check Alcotest.(list int) "nothing prepared" [] (Rm.prepared_tokens rm)

let test_rm_in_doubt_token_lookup () =
  let rm = Rm.create ~name:"db" ~registry:(counter_registry ()) () in
  ignore (Rm.prepare rm ~token:1 ~service:"incr" ());
  ignore (Rm.prepare rm ~token:2 ~service:"set_flag" ~args:(Value.Text "x") ());
  Rm.mark_in_doubt rm ~token:1 ~cid:10;
  Rm.mark_in_doubt rm ~token:2 ~cid:20;
  check (Alcotest.option Alcotest.int) "cid 10 -> token 1" (Some 1)
    (Rm.in_doubt_token rm ~cid:10);
  check (Alcotest.option Alcotest.int) "cid 20 -> token 2" (Some 2)
    (Rm.in_doubt_token rm ~cid:20);
  check (Alcotest.option Alcotest.int) "unknown cid" None (Rm.in_doubt_token rm ~cid:99);
  (* resolving one instance must not disturb the other's mapping *)
  ignore (Rm.resolve_prepared rm ~token:1 ~commit:true);
  check (Alcotest.option Alcotest.int) "resolved cid gone" None (Rm.in_doubt_token rm ~cid:10);
  check (Alcotest.option Alcotest.int) "other cid intact" (Some 2)
    (Rm.in_doubt_token rm ~cid:20)

let suite =
  [
    Alcotest.test_case "store basics" `Quick test_store_basics;
    Alcotest.test_case "store snapshot/restore" `Quick test_store_snapshot_restore;
    Alcotest.test_case "store state equality" `Quick test_store_equal_state;
    Alcotest.test_case "tx commit and abort" `Quick test_tx_commit_and_abort;
    Alcotest.test_case "tx undo entries" `Quick test_tx_undo_entries;
    Alcotest.test_case "tx terminated raises" `Quick test_tx_terminated_raises;
    Alcotest.test_case "lock table" `Quick test_locks;
    Alcotest.test_case "footprint-derived conflicts" `Quick test_registry_conflicts;
    Alcotest.test_case "rm invoke and semantic compensation" `Quick test_rm_invoke_and_compensate;
    Alcotest.test_case "rm snapshot compensation" `Quick test_rm_snapshot_compensation;
    Alcotest.test_case "snapshot undo blocked by a prepared writer" `Quick
      test_rm_snapshot_undo_blocked_by_prepared_writer;
    Alcotest.test_case "snapshot undo respects outage windows" `Quick
      test_rm_snapshot_undo_respects_outage;
    Alcotest.test_case "rm failure injection with retry bound" `Quick test_rm_failure_injection;
    Alcotest.test_case "prepared invocations block conflicts" `Quick test_rm_prepare_blocks_conflicts;
    Alcotest.test_case "prepared abort rolls back" `Quick test_rm_prepare_abort_rolls_back;
    Alcotest.test_case "in-doubt token lookup by cid" `Quick test_rm_in_doubt_token_lookup;
  ]
