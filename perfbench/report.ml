(* From rounds to metrics: the end-to-end set (untraced rounds), the
   per-layer set (traced rounds) and the layer table of a traced round,
   whose rows plus the remainder add up to its wall time. *)

module W = Workloads
open Stats

let procs_of rounds = List.fold_left (fun acc r -> acc + r.W.outcome.Gate.offered) 0 rounds

let terminated r = r.W.outcome.Gate.committed + r.W.outcome.Gate.aborted

(* processes that did not reach their intended outcome: every process of
   a round that failed a check, else the aborted, rejected and unfinished *)
let failed_procs r =
  let o = r.W.outcome in
  if r.W.failed <> [] then o.Gate.offered else o.Gate.aborted + o.Gate.rejected + o.Gate.unfinished

let gate_failed_procs r = if r.W.failed <> [] then r.W.outcome.Gate.offered else 0
let restart_s r = r.W.load_s +. r.W.recover_s +. r.W.complete_s
let sumf f rounds = sum (List.map f rounds)
let meanf f rounds = mean (List.map f rounds)
let medianf f rounds = median (List.map f rounds)
(* [exact] is the prefix of rounds every run makes whatever the host's
   speed: the virtual-time metrics come from it alone, so they repeat
   exactly for a seed *)
let end_to_end ~exact rounds =
  let lat = List.concat_map W.latencies_ms rounds in
  let vt q = meanf (fun r -> percentile q r.W.vt_latency) exact in
  [
    metric "procs_per_s" "1/s" (medianf (fun r -> ratio (float_of_int (terminated r)) (W.measured_s r)) rounds);
    metric "request_p50_ms" "ms" (percentile 0.5 lat);
    metric "request_p90_ms" "ms" (percentile 0.9 lat);
    metric ~clock:Count "request_growth" "ratio" (growth (List.map W.latencies_ms rounds));
    metric "restart_s" "s" (medianf restart_s rounds);
    metric ~clock:Virtual "vt_makespan" "vt" (meanf (fun r -> r.W.vt_makespan) exact);
    metric ~clock:Virtual "vt_latency_p50" "vt" (vt 0.5);
    metric ~clock:Virtual "vt_latency_p90" "vt" (vt 0.9);
    metric "setup_s" "s" (medianf (fun r -> r.W.setup_s) rounds);
    metric ~clock:Count "heap_live_mb" "MB" (List.fold_left (fun a r -> Float.max a r.W.heap_live_mb) 0.0 rounds);
  ]

(* sample counts behind the percentiles, and whether each tail figure has
   ten samples beyond it *)
let tail_notes ~exact rounds =
  let lat = List.length (List.concat_map W.latencies_ms rounds) in
  let vt = List.fold_left (fun a r -> min a (List.length r.W.vt_latency)) max_int exact in
  [ ("request_p90_ms", lat, reportable 0.9 lat); ("vt_latency_p90 (per round)", vt, reportable 0.9 vt) ]

(* ------------------------------------------------------------------ *)
(* the layer table of the traced rounds, per round *)

let layers r = Option.get r.W.layers

(* timed rows: measured busy time of a layer inside the measured phase,
   or an estimate from the layer's own replayed per-call cost *)
let rows r =
  let l = layers r in
  [
    ("scheduler.admission_busy_s", sum l.W.adm_samples, "admission_clock");
    ("subsys.body_busy_s", l.W.body_s, "timed service bodies");
    ("wal.busy_s", 1e-6 *. l.W.append_us *. float_of_int l.W.wal_records, "records x replayed append");
    ("lang.busy_s", 1e-6 *. l.W.parse_us *. float_of_int l.W.parses_in_run, "documents x replayed parse");
    ("obs.sink_s", l.W.sink_s, "time inside the counting sink");
  ]

let other r = r.W.wall_s -. sum (List.map (fun (_, v, _) -> v) (rows r))

(* mean over traced rounds of each row; the last row is the remainder *)
let table traced =
  let per_row = List.map rows traced in
  let names = List.map (fun (n, _, src) -> (n, src)) (List.hd per_row) in
  List.mapi
    (fun i (n, src) -> (n, mean (List.map (fun rs -> let _, v, _ = List.nth rs i in v) per_row), src))
    names
  @ [ ("scheduler.other_s", meanf other traced, "traced wall - timed rows") ]

let kind_count k r = Option.value ~default:0 (List.assoc_opt k (layers r).W.kinds)

let obs_kinds =
  [ "admission"; "dispatch"; "occurrence"; "prepared"; "commit"; "abort"; "msg"; "wal_append"; "backoff"; "arrival" ]

let per_layer pairs =
  let plain = List.map fst pairs in
  let traced = List.filter_map snd pairs in
  let n = procs_of traced in
  let l f = List.map (fun r -> f (layers r)) traced in
  let total f = List.fold_left ( + ) 0 (l f) in
  let per_proc f = per n (total f) in
  let per_round f = mean (List.map float_of_int (l f)) in
  let kv f = per_round (fun x -> List.fold_left (fun a s -> a + f s) 0 x.W.kv) in
  let adm = List.concat (l (fun x -> x.W.adm_samples)) in
  let hits = total (fun x -> List.fold_left (fun a s -> a + s.Tpm_kv.Bufpool.hits) 0 x.W.kv) in
  let misses = total (fun x -> List.fold_left (fun a s -> a + s.Tpm_kv.Bufpool.misses) 0 x.W.kv) in
  let all_rounds = plain @ traced in
  let tbl = table traced in
  let row name = let _, v, _ = List.find (fun (n', _, _) -> n' = name) tbl in v in
  [
    metric ~clock:Count "scheduler.admissions_per_proc" "count/proc" (per_proc (fun x -> x.W.admissions));
    metric ~clock:Count "scheduler.admit_ratio" "ratio"
      (per (total (fun x -> x.W.admissions)) (total (fun x -> x.W.admitted)));
    metric "scheduler.admission_busy_s" "s/round" (row "scheduler.admission_busy_s");
    metric "scheduler.admission_p50_us" "us" (1e6 *. percentile 0.5 adm);
    metric "scheduler.admission_p99_us" "us" (1e6 *. percentile 0.99 adm);
    metric ~clock:Count "scheduler.latent_patches" "count/round" (per_round (fun x -> x.W.latent_patches));
    metric ~clock:Count "scheduler.latent_rebuilds" "count/round" (per_round (fun x -> x.W.latent_rebuilds));
    metric "scheduler.other_s" "s/round" (row "scheduler.other_s");
    metric ~clock:Count "subsys.invocations_per_proc" "count/proc" (per_proc (fun x -> x.W.invocations));
    metric "subsys.body_busy_s" "s/round" (row "subsys.body_busy_s");
    metric ~clock:Count "subsys.retries_per_proc" "count/proc" (per_proc (fun x -> x.W.retries));
    metric ~clock:Count "kvstore.hit_rate" "ratio" (per (hits + misses) hits);
    metric ~clock:Count "kvstore.evictions" "count/round" (kv (fun s -> s.Tpm_kv.Bufpool.evictions));
    metric ~clock:Count "kvstore.page_flushes" "count/round" (kv (fun s -> s.Tpm_kv.Bufpool.flushes));
    metric ~clock:Count "kvstore.forced_wal_syncs" "count/round" (kv (fun s -> s.Tpm_kv.Bufpool.wal_syncs));
    metric ~clock:Count "kvstore.overflows" "count/round" (kv (fun s -> s.Tpm_kv.Bufpool.overflows));
    metric ~clock:Count "wal.records_per_proc" "count/proc" (per_proc (fun x -> x.W.wal_records));
    metric ~clock:Count "wal.bytes_per_proc" "B/proc" (per_proc (fun x -> x.W.wal_bytes));
    metric ~clock:Count "wal.fsyncs_per_proc" "count/proc" (per_proc (fun x -> x.W.wal_fsyncs));
    metric ~clock:Count "wal.max_batch" "count"
      (float_of_int (List.fold_left max 0 (l (fun x -> x.W.wal_max_batch))));
    metric "wal.append_us" "us" (mean (l (fun x -> x.W.append_us)));
    metric "wal.load_us" "us" (mean (l (fun x -> x.W.load_us)));
    metric "wal.busy_s" "s/round" (row "wal.busy_s");
    metric "recovery.load_s" "s" (medianf (fun r -> r.W.load_s) all_rounds);
    metric "recovery.recover_s" "s" (medianf (fun r -> r.W.recover_s) all_rounds);
    metric "recovery.complete_s" "s" (medianf (fun r -> r.W.complete_s) all_rounds);
    metric ~clock:Count "twopc.commits_per_proc" "count/proc" (per_proc (fun x -> x.W.twopc_commits));
    metric ~clock:Count "twopc.msgs_per_proc" "count/proc" (per_proc (fun x -> x.W.msgs));
    metric ~clock:Count "twopc.indoubt_resolved" "count/round" (per_round (fun x -> x.W.indoubt));
    metric ~clock:Count "server.rejected" "count/round"
      (mean (List.map (fun r -> float_of_int r.W.server_rejected) traced));
    metric "lang.parse_us" "us" (mean (l (fun x -> x.W.parse_us)));
    metric "obs.sink_s" "s/round" (row "obs.sink_s");
    metric ~clock:Count "obs.events_per_proc" "count/proc"
      (per_proc (fun x -> List.fold_left (fun a (_, c) -> a + c) 0 x.W.kinds));
  ]
  @ List.map
      (fun k ->
        metric ~clock:Count ("obs.events_per_proc." ^ k) "count/proc"
          (per n (List.fold_left (fun a r -> a + kind_count k r) 0 traced)))
      obs_kinds
  @ [
      metric "trace_overhead" "share"
        (ratio (sumf (fun r -> r.W.wall_s) traced) (sumf (fun r -> r.W.wall_s) plain) -. 1.0);
      metric ~clock:Count "outcome.failed_share" "share"
        (per (procs_of all_rounds) (List.fold_left (fun a r -> a + failed_procs r) 0 all_rounds));
    ]
