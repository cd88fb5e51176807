(* P14: group commit — durable-commit throughput vs. decision latency.
   The same workload runs over a real on-disk WAL under each sync policy:
   coalescing fsyncs into one per batch window cuts the fsync count, while
   the window delays 2PC DECISIONs (held until their commit record's
   fsync) and stretches the virtual makespan — the latency being traded
   away.  Those columns are deterministic; the fsync-bound throughput
   multiplier is read on the storage axis, undiluted by simulation CPU,
   and end-to-end throughput over durable logs is perfbench's
   [durable_short] workload (P19-P24). *)

open Harness

let p14_params =
  {
    Generator.default_params with
    services = 10;
    conflict_density = 0.25;
    activities_min = 3;
    activities_max = 6;
    subsystems = 3;
  }

let p14_run ~n ~seed ~sync =
  with_temp_dir "tpm_p14" (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let rms = Generator.rms p14_params ~seed () in
      let spec = Generator.spec p14_params in
      let config = { Scheduler.default_config with seed; wal_sync = sync } in
      let t = Scheduler.create ~config ~spec ~rms ~wal_path:path () in
      let procs = Generator.batch ~seed:(seed * 100) p14_params ~n in
      List.iteri (fun i p -> Scheduler.submit t ~at:(0.2 *. float_of_int i) p) procs;
      Scheduler.run ~until:1e6 t;
      ignore (Wal.sync (Scheduler.wal t));
      if not (Scheduler.finished t) then failwith "p14: run did not finish";
      (Wal.stats (Scheduler.wal t), Scheduler.now t))

(* storage-level axis: direct WAL appends with one fsync per [batch]
   records (batch = 1 is [Sync_each]; batch = records is sync-at-close).
   Here the work IS the logging, so the fsync coalescing factor shows up
   undiluted by simulation CPU. *)
let p14_storage_run ~records ~batch =
  with_temp_dir "tpm_p14s" (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let sync = if batch = 1 then Wal.Sync_each else Wal.No_sync in
      let wal = Wal.create ~path ~sync () in
      Gc.compact ();
      let w0 = Unix.gettimeofday () in
      for i = 1 to records do
        Wal.append wal (Wal.Invoked { pid = 1; act = i });
        if batch > 1 && i mod batch = 0 then ignore (Wal.sync wal)
      done;
      ignore (Wal.sync wal);
      let wall = Unix.gettimeofday () -. w0 in
      Wal.close wal;
      let st = Wal.stats wal in
      assert (st.Wal.durable_records = records);
      (wall, st.Wal.fsyncs))

let run ~quick ~json =
  section "P14 — group commit: durable-commit throughput vs. decision latency";
  let n = if quick then 24 else 48 in
  let seed = 7 in
  let arms =
    List.map
      (fun (label, sync) ->
        let st, mk = p14_run ~n ~seed ~sync in
        Printf.eprintf "  [p14] %s: %d fsyncs\n%!" label st.Wal.fsyncs;
        (label, st, mk))
      [
        ("each", Wal.Sync_each);
        ("group:0.05", Wal.Group 0.05);
        ("group:0.2", Wal.Group 0.2);
        ("none", Wal.No_sync);
      ]
  in
  print_table
    [ "policy"; "records"; "fsyncs"; "max batch"; "virtual makespan" ]
    (List.map
       (fun (label, st, mk) ->
         [
           label;
           string_of_int st.Wal.durable_records;
           string_of_int st.Wal.fsyncs;
           string_of_int st.Wal.max_batch;
           f2 mk;
         ])
       arms);
  (* storage-level axis: the fsync-bound multiplier, undiluted *)
  let s_records = if quick then 2000 else 5000 in
  let s_reps = if quick then 2 else 3 in
  let s_batches = [ 1; 8; 32; s_records ] in
  List.iter (fun b -> ignore (p14_storage_run ~records:s_records ~batch:b)) s_batches;
  let s_walls = Array.make (List.length s_batches) infinity in
  let s_fsyncs = Array.make (List.length s_batches) 0 in
  for _ = 1 to s_reps do
    List.iteri
      (fun i b ->
        let w, f = p14_storage_run ~records:s_records ~batch:b in
        if w < s_walls.(i) then s_walls.(i) <- w;
        s_fsyncs.(i) <- f)
      s_batches
  done;
  let storage =
    List.mapi
      (fun i b ->
        let label = if b = s_records then "close-only" else Printf.sprintf "batch %d" b in
        (label, b, s_walls.(i), s_fsyncs.(i), float_of_int s_records /. s_walls.(i)))
      s_batches
  in
  Format.printf "@.storage-level durable-append throughput (%d records, min of %d):@."
    s_records s_reps;
  let s_base =
    match storage with (_, _, _, _, tp) :: _ -> tp | [] -> 1.0
  in
  print_table
    [ "fsync cadence"; "wall s (min)"; "fsyncs"; "records/s"; "vs each" ]
    (List.map
       (fun (label, _, w, f, tp) ->
         [
           label;
           Printf.sprintf "%.3f" w;
           string_of_int f;
           Printf.sprintf "%.0f" tp;
           Printf.sprintf "%.1fx" (tp /. s_base);
         ])
       storage);
  Format.printf
    "@.shape: [each] pays one fsync per record that witnesses an effect or@.";
  Format.printf "decides an outcome — durable and slow.  [group:W]@.";
  Format.printf
    "coalesces a window's appends into one fsync (same record stream, fewer@.";
  Format.printf
    "fsyncs, higher durable throughput) at the price of decisions waiting out@.";
  Format.printf
    "the window: the virtual makespan grows with W.  [none] is the upper bound@.";
  Format.printf
    "no durability story can beat.  The storage axis shows the fsync-bound@.";
  Format.printf "throughput multiplier.@.";
  let open Record in
  write_record json ~title:"P14 group commit" ~experiment:"P14" ~clock:Wall_and_virtual
    ~knobs:(knobs ~params:p14_params [ ("processes", Int n); ("seed", Int seed) ])
    [
      ( "end_to_end",
        List
          (List.map
             (fun (label, st, mk) ->
               Obj
                 [
                   ("policy", Str label); ("records", Int st.Wal.durable_records);
                   ("fsyncs", Int st.Wal.fsyncs); ("max_batch", Int st.Wal.max_batch);
                   ("virtual_makespan", num ~digits:2 mk);
                 ])
             arms) );
      ( "storage",
        Obj
          [
            ("records", Int s_records);
            ("reps", Int s_reps);
            ( "arms",
              List
                (List.map
                   (fun (label, batch, w, f, tp) ->
                     Obj
                       [
                         ("cadence", Str label); ("batch", Int batch); ("wall_s", num ~digits:4 w);
                         ("fsyncs", Int f); ("records_per_s", num ~digits:0 tp);
                         ("speedup_vs_each", num ~digits:1 (tp /. s_base));
                       ])
                   storage) );
          ] );
    ];
  let tp_of label =
    match List.find_opt (fun (l, _, _, _, _) -> l = label) storage with
    | Some (_, _, _, _, tp) -> tp
    | None -> Float.nan
  in
  {
    readings = [ ("batch-32 durable rec/s", tp_of "batch 32") ];
    (* the group-commit payoff itself: batched durable appends multiply
       the fsync-per-record throughput *)
    invariants = [ ("batch 32 >= 2x batch 1", tp_of "batch 32" >= 2.0 *. tp_of "batch 1") ];
  }

let experiment =
  Harness.experiment "p14" ~record:true
    ~gates:[ gate "--min-throughput" Min "batch-32 durable rec/s" ]
    run
