(* P11: the incremental admission engine (interned services, conflict
   bitmatrix, cached future/occurrence bitsets, cycle detection against
   the combined graph's maintained order, O(1) schedule append) against the string-based reference
   path it replaced.  Both engines take identical decisions — the
   differential stress (`tools/stress.exe --check-admission`) proves it —
   so the comparison is pure cost, timed per call on identical states.
   End-to-end throughput is perfbench's subject (P19-P24). *)

open Harness

let params =
  {
    Generator.default_params with
    services = 12;
    conflict_density = 0.25;
    activities_min = 3;
    activities_max = 6;
  }

let seed = 7

(* The gate's reading: one live run of the incremental engine, its
   admission path timed per call via [admission_clock]; throughput is
   admissions per second of admission-path time. *)
let live_throughput ~n =
  let rms = Generator.rms params ~seed () in
  let spec = Generator.spec params in
  let config =
    {
      Scheduler.default_config with
      seed;
      admission_engine = Scheduler.Incremental;
      admission_clock = Some Unix.gettimeofday;
    }
  in
  let t = Scheduler.create ~config ~spec ~rms () in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 131) params ~n);
  Scheduler.run ~until:1e6 t;
  let m = Scheduler.metrics t in
  (Metrics.count m "admissions", 1.0 /. Metrics.mean m "admission_time")

(* Probe measurement: prepare a mid-run state with the default
   (incremental) engine — trajectories are engine-independent because
   both engines take identical decisions — then time the *pure* decision
   functions of both engines on that state over a bounded sample of
   (process, activity) candidates.  This is the only tractable way to
   measure the reference engine at scale: running it live amplifies its
   per-call cost by every dispatch wake (which is the point of the
   optimization). *)
let p11_probe ~n ~params ~seed =
  let rms = Generator.rms params ~seed () in
  let spec = Generator.spec params in
  let t = Scheduler.create ~config:{ Scheduler.default_config with seed } ~spec ~rms () in
  let procs = Generator.batch ~seed:(seed * 131) params ~n in
  List.iteri (fun i p -> Scheduler.submit t ~at:(0.05 *. float_of_int i) p) procs;
  (* just past full registration plus a slice of execution: nearly every
     process is live, with occurrences and in-flight work on the books *)
  Scheduler.run ~until:((0.05 *. float_of_int n) +. 1.5) t;
  let live =
    List.filter (fun p -> Scheduler.status t (Process.pid p) = Schedule.Active) procs
  in
  let cap = if n >= 256 then 150 else 400 in
  let samples =
    List.concat_map
      (fun p -> List.map (fun a -> (Process.pid p, a)) (Process.activity_ids p))
      live
    |> List.filteri (fun i _ -> i < cap)
  in
  let time_probe engine =
    let ts =
      List.map
        (fun (pid, act) ->
          let t0 = Unix.gettimeofday () in
          Scheduler.probe_admission t engine ~pid ~act;
          Unix.gettimeofday () -. t0)
        samples
    in
    let k = float_of_int (List.length ts) in
    let mean = List.fold_left ( +. ) 0.0 ts /. k in
    let sorted = List.sort compare ts in
    let p95 = List.nth sorted (min (List.length ts - 1) (int_of_float (0.95 *. k))) in
    (1e6 *. mean, 1e6 *. p95)
  in
  let rmean, rp95 = time_probe Scheduler.Reference in
  let imean, ip95 = time_probe Scheduler.Incremental in
  (List.length live, List.length samples, rmean, rp95, imean, ip95)

(* one seed per point: admission-path timing aggregates hundreds to
   thousands of calls per point, which does the averaging a seed sweep
   would *)
let run ~quick ~json =
  section
    (if quick then "P11 — admission engine, perf smoke (quick scales)"
     else "P11 — incremental vs. reference admission engine");
  (* per-call probes on identical mid-run states *)
  let probe_scales = if quick then [ 8; 16; 32 ] else [ 8; 16; 32; 64; 128; 256 ] in
  let probes =
    List.map
      (fun n ->
        let live, k, rmean, rp95, imean, ip95 = p11_probe ~n ~params ~seed in
        Printf.eprintf "  [p11] probe n=%d: %d samples\n%!" n k;
        (n, live, k, rmean, rp95, imean, ip95))
      probe_scales
  in
  Format.printf "per-call probes (both engines on the identical mid-run state):@.";
  print_table
    [ "procs"; "live"; "samples"; "ref mean us"; "ref p95 us"; "inc mean us";
      "inc p95 us"; "speedup" ]
    (List.map
       (fun (n, live, k, rmean, rp95, imean, ip95) ->
         [
           string_of_int n; string_of_int live; string_of_int k; f2 rmean; f2 rp95;
           f2 imean; f2 ip95; Printf.sprintf "%.1fx" (rmean /. imean);
         ])
       probes);
  let n = List.fold_left (fun a (n, _, _, _, _, _, _) -> max a n) 0 probes in
  let admissions, throughput = live_throughput ~n in
  Format.printf "@.live incremental run at %d procs: %d admissions, %.0f admissions/s@." n
    admissions throughput;
  Format.printf
    "@.shape: the reference path rescans every occurrence list and rebuilds the@.";
  Format.printf
    "dependency graph per admission — its per-admission cost grows with both@.";
  Format.printf
    "process count and history length.  The incremental engine's bitset@.";
  Format.printf
    "intersections and maintained topological order keep the mean near-flat.@.";
  let open Record in
  write_record json ~title:"P11 incremental admission engine" ~experiment:"P11" ~clock:Wall
    ~knobs:(knobs ~params [ ("seed", Int seed) ])
    [
      ( "probe_axis",
        List
          (List.map
             (fun (n, live, k, rmean, rp95, imean, ip95) ->
               Obj
                 [
                   ("procs", Int n); ("live", Int live); ("samples", Int k);
                   ("ref_mean_us", num rmean); ("ref_p95_us", num rp95);
                   ("inc_mean_us", num imean); ("inc_p95_us", num ip95);
                   ("speedup", num ~digits:1 (rmean /. imean));
                 ])
             probes) );
      ( "live_run",
        Obj [ ("procs", Int n); ("admissions", Int admissions); ("admissions_per_s", num ~digits:1 throughput) ]
      );
    ];
  { no_outcome with readings = [ ("admissions/s", throughput) ] }

let experiment =
  Harness.experiment "p11" ~record:true ~gates:[ gate "--min-throughput" Min "admissions/s" ] run
