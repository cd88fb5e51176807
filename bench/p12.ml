(* P12: observability overhead.  The same P11 admission workload is run
   with tracing disabled, with the in-memory ring sink only, and with
   ring + JSONL file sink; each arm is repeated over many interleaved
   rounds.  An arm's overhead is the median over rounds of its wall time
   divided by the disabled arm's in the same round: a load spike that
   lands on one round moves one ratio, not the estimate, and the pairing
   cancels slower drifts (one run is a few ms).  The disabled arm
   must be bit-identical to a pre-observability scheduler — every
   instrumentation site is guarded by [Obs.Tracer.active] — so its wall
   time is the honest baseline, and the ring arm's overhead is the price
   of always-on forensics. *)

open Harness

type p12_arm = {
  a_label : string;
  a_wall_s : float;  (* median over reps *)
  a_events : int;  (* trace events emitted by one run *)
  a_overhead : float;  (* median over reps of wall / same-round disabled wall, - 1 *)
}

let p12_params =
  {
    Generator.default_params with
    services = 12;
    conflict_density = 0.25;
    activities_min = 3;
    activities_max = 6;
  }

let p12_run ~n ~seed ~mk_tracer =
  let rms = Generator.rms p12_params ~seed () in
  let spec = Generator.spec p12_params in
  let tracer = mk_tracer () in
  let t =
    Scheduler.create
      ~config:{ Scheduler.default_config with seed }
      ~tracer ~spec ~rms ()
  in
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.3 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 131) p12_params ~n);
  (* start every timed run from the same heap state: the arms differ by
     ~100 KB of event allocations per run, which otherwise shifts GC
     scheduling between arms by more than the overhead being measured *)
  Gc.compact ();
  let w0 = Unix.gettimeofday () in
  Scheduler.run ~until:1e6 t;
  let wall = Unix.gettimeofday () -. w0 in
  Obs.Tracer.close tracer;
  (wall, Obs.Tracer.emitted tracer, Scheduler.metrics t)

let run ~quick ~json =
  section
    "P12 — tracing overhead: disabled vs. ring sink vs. ring + JSONL (median of reps)";
  (* quick mode keeps the full batch size — the n=16 baseline is only a
     few milliseconds, too small to resolve a 10 % overhead against
     timer and GC noise — and economizes on rounds instead *)
  let n = 32 in
  let reps = if quick then 30 else 60 in
  let seed = 7 in
  let jsonl_path = Filename.temp_file "tpm_p12_trace" ".jsonl" in
  let arms =
    [
      ("disabled", fun () -> Obs.Tracer.disabled);
      ("ring", fun () -> Obs.Tracer.create ~ring_capacity:512 ());
      ( "ring+jsonl",
        fun () ->
          Obs.Tracer.create ~ring_capacity:512
            ~sinks:[ Obs.Sink.jsonl jsonl_path ] () );
    ]
  in
  let snapshot = ref None in
  (* interleave the arms round-robin so a transient load spike hits all
     of them alike, rotating which arm runs first so none always follows
     the same neighbour, and discard one warmup round so no arm pays the
     one-time heap growth; every round's wall is kept for the pairing *)
  let arms = Array.of_list arms in
  let k = Array.length arms in
  let walls = Array.make_matrix k reps 0.0 in
  let events = Array.make k 0 in
  Array.iter (fun (_, mk) -> ignore (p12_run ~n ~seed ~mk_tracer:mk)) arms;
  for r = 1 to reps do
    for j = 0 to k - 1 do
      let i = (r + j) mod k in
      let label, mk = arms.(i) in
      let w, e, m = p12_run ~n ~seed ~mk_tracer:mk in
      walls.(i).(r - 1) <- w;
      events.(i) <- e;
      if label = "ring" then snapshot := Some m
    done
  done;
  (try Sys.remove jsonl_path with Sys_error _ -> ());
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    let m = Array.length a / 2 in
    if Array.length a mod 2 = 1 then a.(m) else (a.(m - 1) +. a.(m)) /. 2.0
  in
  let arms =
    List.mapi
      (fun i (label, _) ->
        let wall = median walls.(i) in
        Printf.eprintf "  [p12] %s: median %.4fs over %d reps\n%!" label wall reps;
        {
          a_label = label;
          a_wall_s = wall;
          a_events = events.(i);
          a_overhead = median (Array.map2 ( /. ) walls.(i) walls.(0)) -. 1.0;
        })
      (Array.to_list arms)
  in
  print_table
    [ "tracing"; "wall s (median)"; "events/run"; "overhead" ]
    (List.map
       (fun a ->
         [
           a.a_label;
           Printf.sprintf "%.4f" a.a_wall_s;
           string_of_int a.a_events;
           Printf.sprintf "%+.1f%%" (100.0 *. a.a_overhead);
         ])
       arms);
  Format.printf
    "@.shape: every instrumentation site is branch-guarded, so the disabled@.";
  Format.printf
    "arm pays nothing; the ring sink costs one array store per event; the@.";
  Format.printf "JSONL sink adds formatting and file I/O per event.@.";
  let open Record in
  write_record json ~title:"P12 tracing overhead" ~experiment:"P12" ~clock:Wall
    ~knobs:(knobs ~params:p12_params [ ("processes", Int n); ("seed", Int seed); ("reps", Int reps) ])
    [
      ( "arms",
        List
          (List.map
             (fun a ->
               Obj
                 [
                   ("arm", Str a.a_label); ("wall_s", num ~digits:4 a.a_wall_s);
                   ("events_per_run", Int a.a_events); ("overhead", num ~digits:4 a.a_overhead);
                 ])
             arms) );
      ("metrics_snapshot", Raw (Option.fold ~none:"null" ~some:Metrics.json_string !snapshot));
    ];
  let ring = List.find (fun a -> a.a_label = "ring") arms in
  { no_outcome with readings = [ ("ring overhead", ring.a_overhead) ] }

let experiment =
  Harness.experiment "p12" ~record:true ~gates:[ gate "--max-overhead" Max "ring overhead" ] run
