(* P16 — domain-sharded admission: conflict-component sharding vs the
   single engine at scale.  The workload is clustered (8 conflict-disjoint
   service universes), so the partition is exact and the sharded runs are
   decision-equivalent to the single engine (test/test_shard.ml proves
   that); what this experiment measures is the end-to-end cost.  Two
   effects compound: per-shard admission works on a live set 8x smaller
   (the per-call cost is superlinear in component size), and every
   dispatch wake rescans only shard-local waiters instead of the whole
   world.  The [domains] axis adds hardware parallelism on top when cores
   exist — on a single-core host it is flat by construction, which the
   recorded [cores] field makes explicit. *)

open Harness

type p16_point = {
  q_label : string;
  q_procs : int;
  q_buckets : int;
  q_domains : int;
  q_admissions : int;
  q_mean_us : float;
  q_p95_us : float;
  q_wall_s : float;
}

let p16_params =
  {
    Generator.default_params with
    services = 6;
    subsystems = 2;
    conflict_density = 0.35;
    activities_min = 3;
    activities_max = 6;
  }

let p16_clusters = 8
let p16_seed = 11
let p16_reps = 3
let p16_throughput p = float_of_int p.q_procs /. p.q_wall_s

let p16_run ?(engine = Scheduler.Incremental) ~shards ~domains ~n () =
  let spec, make_rms, procs, _ =
    Generator.clustered ~seed:p16_seed p16_params ~clusters:p16_clusters ~n
  in
  let items = List.mapi (fun i p -> (0.3 *. float_of_int i, p)) procs in
  let config =
    {
      Scheduler.default_config with
      seed = p16_seed;
      admission_engine = engine;
      admission_clock = Some Unix.gettimeofday;
    }
  in
  let w0 = Unix.gettimeofday () in
  let scheds = Shard.run_parallel ~shards ~domains ~config ~spec ~make_rms items in
  let wall = Unix.gettimeofday () -. w0 in
  List.iter
    (fun t ->
      if not (Scheduler.finished t) then failwith "p16: shard did not finish")
    scheds;
  let samples =
    List.concat_map
      (fun t -> Metrics.samples (Scheduler.metrics t) "admission_time")
      scheds
  in
  let k = List.length samples in
  let sorted = List.sort compare samples in
  let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int (max 1 k) in
  let p95 =
    if k = 0 then 0.0
    else List.nth sorted (min (k - 1) (int_of_float (0.95 *. float_of_int k)))
  in
  {
    q_label = (if shards <= 1 then "single" else "sharded");
    q_procs = n;
    q_buckets = List.length scheds;
    q_domains = domains;
    q_admissions =
      List.fold_left
        (fun acc t -> acc + Metrics.count (Scheduler.metrics t) "admissions")
        0 scheds;
    q_mean_us = 1e6 *. mean;
    q_p95_us = 1e6 *. p95;
    q_wall_s = wall;
  }

let run ~quick ~json =
  section
    (if quick then "P16 — sharded admission, perf smoke (quick)"
     else "P16 — domain-sharded admission at scale");
  let measure ?engine ~shards ~domains ~n () =
    let p = p16_run ?engine ~shards ~domains ~n () in
    Printf.eprintf "  [p16] %s n=%d shards=%d domains=%d: %.1fs wall\n%!"
      p.q_label n shards domains p.q_wall_s;
    p
  in
  let cores = Domain.recommended_domain_count () in
  (* (shards, domains, procs) per arm *)
  let arms =
    if quick then
      (* oversubscribing domains on a small host only measures preemption;
         the quick profile sticks to domain counts the hardware backs *)
      [ (1, 1, 256); (p16_clusters, 1, 256); (p16_clusters, 1, 1024) ]
      @ if cores >= 2 then [ (p16_clusters, min 4 cores, 1024) ] else []
    else
      (* the single-engine baseline stops at 1024: its cost is superlinear
         in the live set (that is the experiment's point) and the curve is
         established; the sharded axis continues to 2048.  The domain axis
         is swept at the large scales even past the core count — the
         [cores] field of the record's meta is the context for those points. *)
      List.concat_map
        (fun n ->
          (if n <= 1024 then [ (1, 1, n) ] else [])
          @ List.map
              (fun domains -> (p16_clusters, domains, n))
              (if n >= 1024 then [ 1; 2; 4; 8 ] else [ 1 ]))
        [ 64; 256; 1024; 2048 ]
  in
  (* every arm runs [p16_reps] times, the arms interleaved round by round
     so a load spike on a shared host hits all of them alike; each point
     is the arm's median-wall run (the 2-domain arm is bimodal on a
     2-vCPU host, so one run, or the best of several, is not a figure) *)
  let runs = Array.make (List.length arms) [] in
  for _ = 1 to p16_reps do
    List.iteri
      (fun i (shards, domains, n) -> runs.(i) <- measure ~shards ~domains ~n () :: runs.(i))
      arms
  done;
  let points =
    Array.to_list
      (Array.map
         (fun rs ->
           List.nth (List.sort (fun a b -> compare a.q_wall_s b.q_wall_s) rs) (p16_reps / 2))
         runs)
  in
  (* the differential oracle survives sharding and real domains: a checked
     arm at moderate scale, every admission of every shard cross-checked
     against the reference engine *)
  let checked_ok =
    match
      measure ~engine:Scheduler.Checked ~shards:p16_clusters ~domains:2 ~n:256 ()
    with
    | p -> p.q_buckets > 0
    | exception e ->
        Printf.eprintf "  [p16] checked arm FAILED: %s\n%!" (Printexc.to_string e);
        false
  in
  print_table
    [ "engine"; "procs"; "buckets"; "domains"; "admissions"; "mean us";
      "p95 us"; "wall s"; "procs/s" ]
    (List.map
       (fun p ->
         [
           p.q_label; string_of_int p.q_procs; string_of_int p.q_buckets;
           string_of_int p.q_domains; string_of_int p.q_admissions;
           f2 p.q_mean_us; f2 p.q_p95_us; f2 p.q_wall_s;
           Printf.sprintf "%.0f" (p16_throughput p);
         ])
       points);
  (* per arm: (procs, domains, median sharded / median single throughput) *)
  let speedups =
    List.concat_map
      (fun base ->
        if base.q_label <> "single" then []
        else
          List.filter_map
            (fun p ->
              if p.q_label = "sharded" && p.q_procs = base.q_procs then
                Some (p.q_procs, p.q_domains, p16_throughput p /. p16_throughput base)
              else None)
            points)
      points
  in
  List.iter
    (fun (n, d, s) ->
      Format.printf
        "e2e speedup, sharded (%d domain%s) vs single engine at %d procs: %.1fx (medians of %d)@."
        d (if d = 1 then "" else "s") n s p16_reps)
    speedups;
  Format.printf "checked arm (per-shard differential oracle, 2 domains): %s@."
    (if checked_ok then "ok" else "FAILED");
  let open Record in
  write_record json ~title:"P16 domain-sharded admission" ~experiment:"P16" ~clock:Wall
    ~knobs:
      (knobs ~params:p16_params
         [ ("clusters", Int p16_clusters); ("seed", Int p16_seed); ("reps", Int p16_reps) ])
    [
      ( "points",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("engine", Str p.q_label); ("procs", Int p.q_procs); ("buckets", Int p.q_buckets);
                   ("domains", Int p.q_domains); ("admissions", Int p.q_admissions);
                   ("mean_us", num p.q_mean_us); ("p95_us", num p.q_p95_us);
                   ("wall_s", num p.q_wall_s); ("throughput_per_s", num ~digits:1 (p16_throughput p));
                 ])
             points) );
      ( "speedup_e2e_vs_single",
        List
          (List.map
             (fun (n, d, s) -> Obj [ ("procs", Int n); ("domains", Int d); ("speedup", num ~digits:1 s) ])
             speedups) );
      ("checked_ok", Bool checked_ok);
    ];
  (* the latency reading covers the sharded points at 1k processes and
     up whose domains the host backs: domains beyond the core count
     measure preemption, not admission latency *)
  let p95s =
    List.filter_map
      (fun p ->
        if p.q_label = "sharded" && p.q_procs >= 1024 && p.q_domains <= cores then Some p.q_p95_us
        else None)
      points
  in
  (* the one-domain arm at the largest scale with a baseline: the gain of
     sharding itself, not of the host's cores *)
  let speedup =
    match List.rev (List.filter (fun (_, d, _) -> d = 1) speedups) with
    | [] -> Float.nan
    | (_, _, s) :: _ -> s
  in
  {
    readings = [ ("sharded p95 us at 1k procs", List.fold_left max 0.0 p95s); ("e2e speedup", speedup) ];
    invariants = [ ("per-shard differential oracle", checked_ok) ];
  }

let experiment =
  Harness.experiment "p16" ~record:true
    ~gates:
      [ gate "--max-p95-us" Max "sharded p95 us at 1k procs"; gate "--min-speedup" Min "e2e speedup" ]
    run
