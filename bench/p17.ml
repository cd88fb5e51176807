(* P17: buffer-pool paged store — larger-than-RAM behavior.  A dataset
   spanning many pages runs a mixed read/write stream through pools sized
   as fractions of the page count, over a real on-disk WAL with periodic
   fuzzy [Dirty_pages] snapshots.  Reported per pool size: hit rate,
   eviction and flush traffic, op throughput, then crash-recovery cost —
   wall time and how many log records the checkpoint-bounded redo plan
   replays vs. skips.  The bounded-redo oracle is always on: the rebuilt
   store must equal the full durable replay, and no replayed record may
   lie below the plan's own start bound. *)

open Harness
module Bufpool = Tpm_kv.Bufpool
module Pager = Tpm_kv.Pager
module KvRecovery = Tpm_wal.Recovery

type p17_point = {
  b_label : string;  (* pool size as a fraction of the dataset's pages *)
  b_frames : int;
  b_pages : int;
  b_hit_rate : float;
  b_evictions : int;
  b_flushes : int;
  b_ops_s : float;
  b_recover_s : float;
  b_replayed : int;
  b_skipped : int;
  b_ok : bool;
}

let p17_rm = "bench"
let p17_page_size = 1024

let p17_value rng =
  Tpm_kv.Value.Text (String.init 48 (fun _ -> Char.chr (97 + Random.State.int rng 26)))

let p17_key i = Printf.sprintf "key%04d" i

(* the dataset's page count at a given page size: one warmup store with an
   unbounded pool, just to size the fraction axis *)
let p17_npages ~nkeys =
  with_temp_dir "tpm_p17" (fun dir ->
      let s =
        Tpm_kv.Store.create_paged ~frames:max_int ~page_size:p17_page_size
          (Filename.concat dir "probe.pages")
      in
      let rng = Random.State.make [| 0x17 |] in
      for i = 0 to nkeys - 1 do
        Tpm_kv.Store.set s (p17_key i) (p17_value rng)
      done;
      let pool = Option.get (Tpm_kv.Store.bufpool s) in
      let n = Pager.npages (Bufpool.pager pool) in
      Pager.close (Bufpool.pager pool);
      n)

let p17_run ~nkeys ~ops ~frames =
  with_temp_dir "tpm_p17" (fun dir ->
      let wal_path = Filename.concat dir "wal.log" in
      let page_path = Filename.concat dir "store.pages" in
      let wal = Wal.create ~path:wal_path ~sync:Wal.Sync_each () in
      let store = Tpm_kv.Store.create_paged ~frames ~page_size:p17_page_size page_path in
      Tpm_kv.Store.connect_wal store
        ~log:(fun key value ->
          Wal.append wal (Wal.Kv_write { rm = p17_rm; key; value });
          Wal.size wal)
        ~durable_lsn:(fun () -> (Wal.stats wal).Wal.durable_records)
        ~force_durable:(fun () -> ignore (Wal.sync wal));
      let rng = Random.State.make [| 0x1700 + frames |] in
      for i = 0 to nkeys - 1 do
        Tpm_kv.Store.set store (p17_key i) (p17_value rng)
      done;
      let pool = Option.get (Tpm_kv.Store.bufpool store) in
      let s0 = Bufpool.stats pool in
      (* measured phase: uniform 70/30 read/write stream with a fuzzy
         dirty-page snapshot every 500 ops (what a checkpoint logs) *)
      Gc.compact ();
      let w0 = Unix.gettimeofday () in
      for op = 1 to ops do
        let key = p17_key (Random.State.int rng nkeys) in
        if Random.State.int rng 10 < 3 then Tpm_kv.Store.set store key (p17_value rng)
        else ignore (Tpm_kv.Store.get store key);
        if op mod 500 = 0 then
          Wal.append wal
            (Wal.Dirty_pages { rm = p17_rm; pages = Bufpool.dirty_page_table pool })
      done;
      let wall = Unix.gettimeofday () -. w0 in
      let s1 = Bufpool.stats pool in
      let npages = Pager.npages (Bufpool.pager pool) in
      (* crash: freeze the pool, then rebuild from page file + durable log *)
      Tpm_kv.Store.freeze store;
      Wal.close wal;
      Pager.close (Bufpool.pager pool);
      let image = (Wal.load wal_path).Wal.records in
      let plan = KvRecovery.kv_redo ~rm:p17_rm image in
      let r0 = Unix.gettimeofday () in
      let recovered, anomalies = Tpm_kv.Store.open_paged ~frames:max_int page_path in
      let bound_ok = ref (anomalies = []) in
      List.iter
        (fun (lsn, key, v) ->
          if lsn < plan.KvRecovery.start_lsn then bound_ok := false;
          Tpm_kv.Store.redo recovered ~lsn key v)
        plan.KvRecovery.ops;
      let recover_s = Unix.gettimeofday () -. r0 in
      let twin = Tpm_kv.Store.create () in
      List.iteri
        (fun i r ->
          match r with
          | Wal.Kv_write { rm; key; value } when String.equal rm p17_rm ->
              Tpm_kv.Store.redo twin ~lsn:(i + 1) key value
          | _ -> ())
        image;
      let ok = !bound_ok && Tpm_kv.Store.equal_state recovered twin in
      let skipped = ref 0 in
      List.iteri
        (fun i r ->
          match r with
          | Wal.Kv_write { rm; _ }
            when String.equal rm p17_rm && i + 1 < plan.KvRecovery.start_lsn ->
              incr skipped
          | _ -> ())
        image;
      (match Tpm_kv.Store.bufpool recovered with
      | Some p -> Pager.close (Bufpool.pager p)
      | None -> ());
      let hits = s1.Bufpool.hits - s0.Bufpool.hits in
      let misses = s1.Bufpool.misses - s0.Bufpool.misses in
      {
        b_label = "";
        b_frames = frames;
        b_pages = npages;
        b_hit_rate =
          (if hits + misses = 0 then 1.0
           else float_of_int hits /. float_of_int (hits + misses));
        b_evictions = s1.Bufpool.evictions - s0.Bufpool.evictions;
        b_flushes = s1.Bufpool.flushes - s0.Bufpool.flushes;
        b_ops_s = (if wall <= 0.0 then 0.0 else float_of_int ops /. wall);
        b_recover_s = recover_s;
        b_replayed = List.length plan.KvRecovery.ops;
        b_skipped = !skipped;
        b_ok = ok;
      })

(* the Tx read-set guard: one transaction reading [reads] distinct keys.
   The read set is tracked per read, so this is quadratic if the tracking
   regresses to a membership scan — the floor below catches that. *)
let p17_tx_reads ~reads =
  let store = Tpm_kv.Store.create () in
  for i = 0 to reads - 1 do
    Tpm_kv.Store.set store (Printf.sprintf "r%06d" i) (Tpm_kv.Value.Int i)
  done;
  Gc.compact ();
  let w0 = Unix.gettimeofday () in
  let tx = Tpm_kv.Tx.begin_ store in
  for i = 0 to reads - 1 do
    ignore (Tpm_kv.Tx.get tx (Printf.sprintf "r%06d" i))
  done;
  let n = List.length (Tpm_kv.Tx.read_set tx) in
  let wall = Unix.gettimeofday () -. w0 in
  Tpm_kv.Tx.abort tx;
  assert (n = reads);
  if wall <= 0.0 then infinity else float_of_int reads /. wall

let run ~quick ~json =
  section
    (if quick then "P17 — buffer-pool paged store (quick scales)"
     else "P17 — buffer-pool paged store: larger-than-RAM datasets");
  let nkeys = if quick then 240 else 600 in
  let ops = if quick then 1500 else 4000 in
  let reads = if quick then 8_000 else 20_000 in
  let npages = p17_npages ~nkeys in
  let fractions =
    [ ("1/8", 0.125); ("1/4", 0.25); ("1/2", 0.5); ("1x", 1.0); ("2x", 2.0) ]
  in
  let points =
    List.map
      (fun (label, frac) ->
        let frames = max 1 (int_of_float (frac *. float_of_int npages)) in
        let p = { (p17_run ~nkeys ~ops ~frames) with b_label = label } in
        Printf.eprintf "  [p17] pool=%s (%d frames): hit %.0f%%, recover %.3fs\n%!" label
          frames (100.0 *. p.b_hit_rate) p.b_recover_s;
        p)
      fractions
  in
  print_table
    [ "pool"; "frames"; "pages"; "hit rate"; "evictions"; "flushes"; "ops/s";
      "recover s"; "replayed"; "skipped"; "ok" ]
    (List.map
       (fun p ->
         [
           p.b_label; string_of_int p.b_frames; string_of_int p.b_pages;
           pct p.b_hit_rate; string_of_int p.b_evictions; string_of_int p.b_flushes;
           Printf.sprintf "%.0f" p.b_ops_s; Printf.sprintf "%.4f" p.b_recover_s;
           string_of_int p.b_replayed; string_of_int p.b_skipped;
           (if p.b_ok then "yes" else "NO");
         ])
       points);
  Format.printf "With the pool a fraction of the dataset the store pages: hit rate and@.";
  Format.printf "throughput fall, eviction writeback rises, and recovery replays only@.";
  Format.printf "the records past the last dirty-page snapshot's bound.@.";
  let tx_rate = p17_tx_reads ~reads in
  Format.printf "@.Tx read-set: %d reads in one transaction, %.0f reads/s@." reads tx_rate;
  let open Record in
  write_record json ~title:"P17 buffer-pool paged store" ~experiment:"P17" ~clock:Wall
    ~knobs:
      (knobs
         [
           ("page_size", Int p17_page_size); ("keys", Int nkeys); ("dataset_pages", Int npages);
           ("ops", Int ops); ("tx_reads", Int reads);
         ])
    [
      ( "pool_axis",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("pool", Str p.b_label); ("frames", Int p.b_frames); ("pages", Int p.b_pages);
                   ("hit_rate", num ~digits:4 p.b_hit_rate); ("evictions", Int p.b_evictions);
                   ("flushes", Int p.b_flushes); ("ops_per_s", num ~digits:1 p.b_ops_s);
                   ("recover_s", num ~digits:4 p.b_recover_s); ("replayed", Int p.b_replayed);
                   ("skipped", Int p.b_skipped); ("ok", Bool p.b_ok);
                 ])
             points) );
      ("tx_read_axis", Obj [ ("reads", Int reads); ("reads_per_s", num ~digits:1 tx_rate) ]);
    ];
  {
    readings =
      [
        (* a pool at least as large as the working set must stop paging *)
        ( "hit rate at a pool >= the dataset",
          match List.find_opt (fun p -> p.b_frames >= p.b_pages) points with
          | Some p -> p.b_hit_rate
          | None -> Float.nan );
        ("tx reads/s", tx_rate);
      ];
    (* always on: the bounded-redo oracle holds at every pool size *)
    invariants = List.map (fun p -> ("bounded-redo oracle at pool " ^ p.b_label, p.b_ok)) points;
  }

let experiment =
  Harness.experiment "p17" ~record:true
    ~gates:
      [
        gate "--min-hit-rate" Min "hit rate at a pool >= the dataset";
        gate "--min-tx-reads" Min "tx reads/s";
      ]
    run
