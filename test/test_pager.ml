(* Unit and differential tests for the paged store: slotted pages, the
   buffer pool's pin/eviction/flush discipline, the WAL rule (no page
   flushed ahead of the honest durable marker), crash-reopen with
   page-LSN-guarded redo, and the kvstore version-counter regressions. *)

module Value = Tpm_kv.Value
module Store = Tpm_kv.Store
module Tx = Tpm_kv.Tx
module Pager = Tpm_kv.Pager
module Bufpool = Tpm_kv.Bufpool
module Wal = Tpm_wal.Wal
module Recovery = Tpm_wal.Recovery

let check = Alcotest.check
let value = Alcotest.testable Value.pp Value.equal

let tmp_file suffix =
  let path = Filename.temp_file "tpm_pager" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ------------------------------------------------------------------ *)
(* Slotted page. *)

let test_page_slotted () =
  let b = Bytes.create 512 in
  Pager.Page.init b;
  check Alcotest.int "empty page has no slots" 0 (Pager.Page.nslots b);
  check Alcotest.bool "insert a" true (Pager.Page.insert b "a" "alpha");
  check Alcotest.bool "insert b" true (Pager.Page.insert b "b" "beta");
  check (Alcotest.option Alcotest.string) "find a" (Some "alpha") (Pager.Page.find b "a");
  check Alcotest.bool "replace a" true (Pager.Page.insert b "a" "ALPHA");
  check (Alcotest.option Alcotest.string) "replaced" (Some "ALPHA") (Pager.Page.find b "a");
  check Alcotest.int "replace keeps slot count" 2 (Pager.Page.nslots b);
  check Alcotest.bool "remove b" true (Pager.Page.remove b "b");
  check Alcotest.bool "remove absent" false (Pager.Page.remove b "b");
  check (Alcotest.option Alcotest.string) "b gone" None (Pager.Page.find b "b");
  Pager.Page.set_lsn b 42;
  check Alcotest.int "lsn round-trips" 42 (Pager.Page.lsn b);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "entries" [ ("a", "ALPHA") ]
    (List.sort compare (Pager.Page.entries b))

let test_page_compaction () =
  let b = Bytes.create 256 in
  Pager.Page.init b;
  (* fill the page, punch holes, then insert something that only fits
     after in-place compaction *)
  let payload = String.make 20 'x' in
  let n = ref 0 in
  while Pager.Page.insert b (Printf.sprintf "key%02d" !n) payload do
    incr n
  done;
  Alcotest.(check bool) "page filled" true (!n >= 5);
  for i = 0 to !n - 1 do
    if i mod 2 = 0 then ignore (Pager.Page.remove b (Printf.sprintf "key%02d" i))
  done;
  let big = String.make 30 'y' in
  check Alcotest.bool "insert after holes compacts" true (Pager.Page.insert b "big" big);
  check (Alcotest.option Alcotest.string) "compacted read" (Some big)
    (Pager.Page.find b "big");
  check (Alcotest.option Alcotest.string) "survivor intact" (Some payload)
    (Pager.Page.find b "key01")

let test_pager_roundtrip_and_corruption () =
  let path = tmp_file ".pages" in
  let pgr = Pager.create ~page_size:256 path in
  let p0 = Pager.alloc pgr and p1 = Pager.alloc pgr in
  let b = Bytes.create 256 in
  Pager.Page.init b;
  ignore (Pager.Page.insert b "k" "v");
  Pager.Page.set_lsn b 7;
  Pager.write pgr p1 b;
  (* p0 was allocated but never written: reads back empty (a hole) *)
  check Alcotest.int "hole page is empty" 0 (Pager.Page.nslots (Pager.read pgr p0));
  let back = Pager.read pgr p1 in
  check (Alcotest.option Alcotest.string) "written page reads back" (Some "v")
    (Pager.Page.find back "k");
  check Alcotest.int "page lsn persisted" 7 (Pager.Page.lsn back);
  Pager.close pgr;
  (* single flipped bit inside the page: a detected corruption, never a
     silent misread *)
  Wal.Chaos.flip_bit ~path ~byte:(16 + 256 + 40) ~bit:3;
  let pgr = Pager.open_ path in
  (match Pager.read_result pgr p1 with
  | Error reason -> check Alcotest.bool "crc reason" true (reason = "page crc mismatch")
  | Ok _ -> Alcotest.fail "bit flip went undetected");
  Pager.close pgr

(* ------------------------------------------------------------------ *)
(* Buffer pool discipline. *)

let test_bufpool_pin_and_eviction () =
  let path = tmp_file ".pages" in
  let pgr = Pager.create ~page_size:256 path in
  let pool = Bufpool.create ~frames:2 pgr in
  let pids = List.init 4 (fun _ -> Bufpool.alloc pool) in
  (* touch all four pages through a 2-frame pool: eviction must kick in,
     and clean evictions never write *)
  List.iter (fun pid -> Bufpool.with_page pool pid (fun _ -> ())) pids;
  let s = Bufpool.stats pool in
  check Alcotest.bool "evictions happened" true (s.Bufpool.evictions > 0);
  check Alcotest.int "clean evictions never flush" 0 s.Bufpool.flushes;
  check Alcotest.bool "residency bounded" true (s.Bufpool.resident <= 2);
  (* a pinned frame survives any pressure: pin p0, then fault every other
     page in; p0 must still be resident and the pool over-commits if it
     has to *)
  let p0 = List.hd pids in
  Bufpool.with_page pool p0 (fun _ ->
      List.iter (fun pid -> Bufpool.with_page pool pid (fun _ -> ())) (List.tl pids);
      check Alcotest.int "pinned while held" 1 (Bufpool.stats pool).Bufpool.pinned);
  check Alcotest.int "unpinned after release" 0 (Bufpool.stats pool).Bufpool.pinned;
  Pager.close pgr

let test_bufpool_flush_rule () =
  let path = tmp_file ".pages" in
  let pgr = Pager.create ~page_size:256 path in
  let pool = Bufpool.create ~frames:8 pgr in
  let durable = ref 0 and syncs = ref 0 in
  Bufpool.set_wal pool
    ~durable_lsn:(fun () -> !durable)
    ~force_durable:(fun () -> incr syncs);
  let pid = Bufpool.alloc pool in
  Bufpool.with_page_w pool pid ~lsn:5 (fun b -> ignore (Pager.Page.insert b "k" "v"));
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "dirty with rec_lsn"
    [ (pid, 5) ] (Bufpool.dirty_page_table pool);
  (* durable marker behind the page: flush must leave it dirty *)
  durable := 3;
  Bufpool.flush pool;
  check Alcotest.int "no flush ahead of durable" 0 (Bufpool.stats pool).Bufpool.flushes;
  check Alcotest.bool "still dirty" true (Bufpool.dirty_page_table pool <> []);
  (* marker catches up: now it may reach disk *)
  durable := 5;
  Bufpool.flush pool;
  check Alcotest.int "flushed once covered" 1 (Bufpool.stats pool).Bufpool.flushes;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "clean after flush" []
    (Bufpool.dirty_page_table pool);
  check Alcotest.int "page lsn on disk" 5 (Pager.Page.lsn (Pager.read pgr pid));
  Pager.close pgr

let test_bufpool_lying_window_overflow () =
  let path = tmp_file ".pages" in
  let pgr = Pager.create ~page_size:256 path in
  let pool = Bufpool.create ~frames:1 pgr in
  let syncs = ref 0 in
  (* the marker never moves (a lying-fsync window): a 1-frame pool facing
     dirty pages must over-commit, never flush, never deadlock *)
  Bufpool.set_wal pool ~durable_lsn:(fun () -> 0) ~force_durable:(fun () -> incr syncs);
  for i = 1 to 6 do
    let pid = Bufpool.alloc pool in
    Bufpool.with_page_w pool pid ~lsn:i (fun b ->
        ignore (Pager.Page.insert b (string_of_int i) "v"))
  done;
  let s = Bufpool.stats pool in
  check Alcotest.int "nothing flushed" 0 s.Bufpool.flushes;
  check Alcotest.bool "over-committed" true (s.Bufpool.overflows > 0);
  check Alcotest.bool "eviction asked for syncs" true (!syncs > 0);
  check Alcotest.int "all six retained dirty" 6 s.Bufpool.dirty;
  check Alcotest.(option int) "min rec_lsn" (Some 1) (Bufpool.min_rec_lsn pool);
  Pager.close pgr

(* ------------------------------------------------------------------ *)
(* Store semantics: version regressions (effect-freeness, Definitions 1
   and 6) and backend equivalence. *)

let test_version_noop_neutral () =
  List.iter
    (fun s ->
      Store.set s "x" (Value.Int 7);
      let v = Store.version s in
      Store.set s "x" (Value.Int 7);
      check Alcotest.int "identical set is version-neutral" v (Store.version s);
      Store.delete s "absent";
      check Alcotest.int "absent delete is version-neutral" v (Store.version s);
      Store.set s "x" (Value.Int 8);
      check Alcotest.int "effective set bumps" (v + 1) (Store.version s);
      Store.delete s "x";
      check Alcotest.int "effective delete bumps" (v + 2) (Store.version s))
    [ Store.create (); Store.create_paged ~frames:2 ~page_size:256 (tmp_file ".pages") ]

let test_version_copy_restore () =
  let s = Store.create () in
  Store.set s "a" (Value.Int 1);
  Store.set s "b" (Value.Int 2);
  let c = Store.copy s in
  check Alcotest.int "copy is version-faithful" (Store.version s) (Store.version c);
  check Alcotest.bool "copy is content-equal" true (Store.equal_state s c);
  Store.set c "a" (Value.Int 9);
  check value "copy is detached" (Value.Int 1) (Store.get s "a");
  let v = Store.version s in
  Store.restore s (Store.snapshot s);
  check Alcotest.int "identical restore is version-neutral" v (Store.version s);
  Store.restore s [ ("a", Value.Int 5); ("a", Value.Int 6) ];
  check Alcotest.int "effective restore bumps exactly once" (v + 1) (Store.version s);
  check value "duplicate keys: last wins" (Value.Int 6) (Store.get s "a")

let test_paged_vs_mem_differential () =
  (* the same pseudo-random op stream against the hash table and against
     paged stores down to a single frame must agree at every step *)
  List.iter
    (fun frames ->
      let mem = Store.create () in
      let paged = Store.create_paged ~frames ~page_size:256 (tmp_file ".pages") in
      let rng = Random.State.make [| 0xBEEF + frames |] in
      for i = 0 to 400 do
        let key = Printf.sprintf "k%02d" (Random.State.int rng 40) in
        (match Random.State.int rng 10 with
        | 0 | 1 -> (
            Store.delete mem key;
            Store.delete paged key)
        | 2 ->
            let v = Value.Text (String.make (Random.State.int rng 60) 'p') in
            Store.set mem key v;
            Store.set paged key v
        | _ ->
            let v = Value.Int i in
            Store.set mem key v;
            Store.set paged key v);
        check value
          (Printf.sprintf "frames=%d step %d agree on %s" frames i key)
          (Store.get mem key) (Store.get paged key)
      done;
      check Alcotest.bool
        (Printf.sprintf "frames=%d final states equal" frames)
        true
        (Store.equal_state mem paged);
      check Alcotest.int
        (Printf.sprintf "frames=%d versions agree" frames)
        (Store.version mem) (Store.version paged))
    [ 1; 2; 7 ]

let test_tx_against_paged_store () =
  (* eviction mid-transaction: the tx touches far more keys than the pool
     holds frames, forcing faults while the tx buffers reads and writes *)
  let s = Store.create_paged ~frames:1 ~page_size:256 (tmp_file ".pages") in
  for i = 0 to 30 do
    Store.set s (Printf.sprintf "k%02d" i) (Value.Int i)
  done;
  let tx = Tx.begin_ s in
  for i = 0 to 30 do
    let k = Printf.sprintf "k%02d" i in
    check value "tx read through pool" (Value.Int i) (Tx.get tx k);
    if i mod 3 = 0 then Tx.set tx k (Value.Int (i * 100))
  done;
  check Alcotest.int "read set is sorted unique" 31 (List.length (Tx.read_set tx));
  check Alcotest.bool "read set sorted" true
    (let rs = Tx.read_set tx in
     List.sort String.compare rs = rs);
  Tx.commit tx;
  check value "committed through pool" (Value.Int 0) (Store.get s "k00");
  check value "committed write" (Value.Int 300) (Store.get s "k03");
  check Alcotest.bool "pool actually evicted" true
    (match Store.bufpool s with
    | Some pool -> (Bufpool.stats pool).Bufpool.evictions > 0
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Crash, reopen, page-LSN-guarded redo. *)

(* A stand-in scheduler WAL: an op log with a movable durable marker, so
   tests control exactly which prefix "survives" the crash. *)
let make_log () =
  let ops : (int * string * string option) list ref = ref [] in
  let durable = ref 0 in
  (ops, durable)

let connect store ops durable =
  Store.connect_wal store
    ~log:(fun key v ->
      ops := (List.length !ops + 1, key, v) :: !ops;
      List.length !ops)
    ~durable_lsn:(fun () -> !durable)
    ~force_durable:(fun () -> ())

let replay_into_mem ops upto =
  let m = Store.create () in
  List.iter (fun (lsn, k, v) -> if lsn <= upto then Store.redo m ~lsn k v) (List.rev ops);
  m

let test_open_paged_redo_roundtrip () =
  List.iter
    (fun frames ->
      let path = tmp_file ".pages" in
      let s = Store.create_paged ~frames ~page_size:256 path in
      let ops, durable = make_log () in
      connect s ops durable;
      let rng = Random.State.make [| 0xACE + frames |] in
      for i = 0 to 200 do
        let key = Printf.sprintf "k%02d" (Random.State.int rng 25) in
        if Random.State.int rng 5 = 0 then Store.delete s key
        else Store.set s key (Value.Int i);
        (* the marker trails the log by a random lag, so evictions flush
           some pages and are forbidden to flush others *)
        durable := max !durable (List.length !ops - Random.State.int rng 8)
      done;
      (* crash: everything past the durable marker is lost *)
      Store.freeze s;
      let survived = List.filter (fun (lsn, _, _) -> lsn <= !durable) (List.rev !ops) in
      (match Store.bufpool s with
      | Some pool -> Pager.close (Bufpool.pager pool)
      | None -> assert false);
      let recovered, anomalies = Store.open_paged ~frames path in
      check Alcotest.int "clean pages, no anomalies" 0 (List.length anomalies);
      let plan =
        Recovery.kv_redo ~rm:"s"
          (List.map (fun (_, k, v) -> Wal.Kv_write { rm = "s"; key = k; value = v }) survived)
      in
      List.iter (fun (lsn, k, v) -> Store.redo recovered ~lsn k v) plan.Recovery.ops;
      let expected = replay_into_mem !ops !durable in
      check Alcotest.bool
        (Printf.sprintf "frames=%d recovered = durable replay" frames)
        true
        (Store.equal_state recovered expected))
    [ 1; 3; 16 ]

let test_salvage_with_full_redo () =
  let path = tmp_file ".pages" in
  let s = Store.create_paged ~frames:4 ~page_size:256 path in
  let ops, durable = make_log () in
  connect s ops durable;
  for i = 0 to 60 do
    Store.set s (Printf.sprintf "k%02d" (i mod 20)) (Value.Int i);
    durable := List.length !ops
  done;
  Store.flush s;
  (match Store.bufpool s with
  | Some pool -> Pager.close (Bufpool.pager pool)
  | None -> assert false);
  (* tear one page: fail-stop refuses, salvage quarantines and reports,
     and a full-log redo restores every key exactly *)
  Wal.Chaos.flip_bit ~path ~byte:(16 + 30) ~bit:0;
  (match Store.open_paged ~policy:`Fail_stop path with
  | exception Pager.Corrupt_page _ -> ()
  | _ -> Alcotest.fail "fail-stop open accepted a torn page");
  let recovered, anomalies = Store.open_paged ~policy:`Salvage path in
  check Alcotest.bool "torn page reported" true (anomalies <> []);
  List.iter (fun (lsn, k, v) -> Store.redo recovered ~lsn k v) (List.rev !ops);
  let expected = replay_into_mem !ops !durable in
  check Alcotest.bool "salvage + full redo = expected" true
    (Store.equal_state recovered expected)

(* Under [Sync_each] a page write does not force the log: it rides the
   fsync of the record that witnesses its local commit, or the sync the
   WAL rule forces before its page may reach disk. *)
let test_lazy_kv_write_wal_rule () =
  let ppath = tmp_file ".pages" in
  let wpath = tmp_file ".log" in
  at_exit (fun () -> List.iter Sys.remove (Wal.segment_files wpath));
  let s = Store.create_paged ~frames:1 ~page_size:256 ppath in
  let wal = Wal.create ~path:wpath () in
  Store.connect_wal s
    ~log:(fun key value ->
      Wal.append wal (Wal.Kv_write { rm = "s"; key; value });
      Wal.size wal)
    ~durable_lsn:(fun () -> (Wal.stats wal).Wal.durable_records)
    ~force_durable:(fun () -> ignore (Wal.sync wal));
  let pool = Option.get (Store.bufpool s) in
  let fsyncs () = (Wal.stats wal).Wal.fsyncs in
  let wal_syncs () = (Bufpool.stats pool).Bufpool.wal_syncs in
  Store.set s "a" (Value.Int 1);
  check Alcotest.int "a page write appends without an fsync" 0 (fsyncs ());
  check Alcotest.int "and stays pending" 1 (Wal.pending wal);
  (* evicting the page: the WAL rule forces exactly one sync first *)
  let syncs0 = wal_syncs () in
  (match Bufpool.alloc pool with
  | exception Bufpool.Flush_ahead_of_durable _ -> Alcotest.fail "page flushed ahead of the log"
  | _ -> ());
  check Alcotest.int "eviction forced one sync" (syncs0 + 1) (wal_syncs ());
  check Alcotest.int "one fsync" 1 (fsyncs ());
  check Alcotest.int "the page reached disk" 1 (Bufpool.stats pool).Bufpool.flushes;
  check Alcotest.int "the write is durable" 1 (Wal.stats wal).Wal.durable_records;
  (* a page write then its witness: one fsync covers both *)
  Store.set s "b" (Value.Int 2);
  check Alcotest.int "no fsync for the second write" 1 (fsyncs ());
  Wal.append wal (Wal.Invoked { pid = 1; act = 1 });
  check Alcotest.int "the witness fsyncs once" 2 (fsyncs ());
  check Alcotest.int "write and witness durable together" 3
    (Wal.stats wal).Wal.durable_records;
  (* crash between a write and its witness: both are lost *)
  let before = Store.create () in
  Store.set before "a" (Value.Int 1);
  Store.set before "b" (Value.Int 2);
  Store.set s "c" (Value.Int 3);
  Store.freeze s;
  Wal.crash_image wal;
  Pager.close (Bufpool.pager pool);
  let image = (Wal.load wpath).Wal.records in
  check Alcotest.int "four records appended" 4 (Wal.size wal);
  check Alcotest.bool "the image ends at the last witness, without the lost write" true
    (image = List.filteri (fun i _ -> i < 3) (Wal.records wal));
  let recovered, anomalies = Store.open_paged ~frames:1 ppath in
  check Alcotest.int "clean reopen" 0 (List.length anomalies);
  let plan = Recovery.kv_redo ~rm:"s" image in
  List.iter (fun (lsn, k, v) -> Store.redo recovered ~lsn k v) plan.Recovery.ops;
  check Alcotest.bool "the unwitnessed write is gone" false (Store.mem recovered "c");
  check Alcotest.bool "the store is as before that local commit" true
    (Store.equal_state recovered before)

let test_kv_redo_bound () =
  let w k i = Wal.Kv_write { rm = "r"; key = k; value = Some (string_of_int i) } in
  (* no snapshot: redo starts at 1 *)
  let plan = Recovery.kv_redo ~rm:"r" [ w "a" 1; w "b" 2 ] in
  check Alcotest.int "no snapshot: start 1" 1 plan.Recovery.start_lsn;
  check Alcotest.int "all ops" 2 (List.length plan.Recovery.ops);
  (* snapshot with a dirty page: start at its min rec_lsn *)
  let records =
    [ w "a" 1; w "b" 2; Wal.Dirty_pages { rm = "r"; pages = [ (0, 2) ] }; w "c" 4 ]
  in
  let plan = Recovery.kv_redo ~rm:"r" records in
  check Alcotest.int "bounded by min rec_lsn" 2 plan.Recovery.start_lsn;
  check
    (Alcotest.list Alcotest.int)
    "ops at or past the bound" [ 2; 4 ]
    (List.map (fun (lsn, _, _) -> lsn) plan.Recovery.ops);
  (* empty table: everything before the snapshot is clean *)
  let records = [ w "a" 1; w "b" 2; Wal.Dirty_pages { rm = "r"; pages = [] }; w "c" 4 ] in
  let plan = Recovery.kv_redo ~rm:"r" records in
  check Alcotest.int "empty table: start at snapshot" 3 plan.Recovery.start_lsn;
  check Alcotest.int "one op left" 1 (List.length plan.Recovery.ops);
  (* records of other resource managers never leak into the plan *)
  let plan =
    Recovery.kv_redo ~rm:"r" [ Wal.Kv_write { rm = "other"; key = "x"; value = None } ]
  in
  check Alcotest.int "foreign rm filtered" 0 (List.length plan.Recovery.ops)

let suite =
  [
    Alcotest.test_case "slotted page basics" `Quick test_page_slotted;
    Alcotest.test_case "page compaction" `Quick test_page_compaction;
    Alcotest.test_case "pager roundtrip and corruption" `Quick test_pager_roundtrip_and_corruption;
    Alcotest.test_case "bufpool pin and eviction" `Quick test_bufpool_pin_and_eviction;
    Alcotest.test_case "bufpool flush rule" `Quick test_bufpool_flush_rule;
    Alcotest.test_case "lying window over-commits" `Quick test_bufpool_lying_window_overflow;
    Alcotest.test_case "no-op writes are version-neutral" `Quick test_version_noop_neutral;
    Alcotest.test_case "copy/restore version contract" `Quick test_version_copy_restore;
    Alcotest.test_case "paged = mem differential" `Quick test_paged_vs_mem_differential;
    Alcotest.test_case "tx across evictions" `Quick test_tx_against_paged_store;
    Alcotest.test_case "crash, reopen, bounded redo" `Quick test_open_paged_redo_roundtrip;
    Alcotest.test_case "salvage + full redo" `Quick test_salvage_with_full_redo;
    Alcotest.test_case "kv_redo bound" `Quick test_kv_redo_bound;
    Alcotest.test_case "lazy page write rides its witness" `Quick test_lazy_kv_write_wal_rule;
  ]
