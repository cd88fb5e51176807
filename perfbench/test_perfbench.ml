(* Tests of the benchmark itself: its statistics, its metric names, its
   correctness gate, and every workload at a tiny scale with the full
   PRED and process-recoverability checks. *)

open Tpm_core
module S = Perfbench.Stats
module G = Perfbench.Gate
module W = Perfbench.Workloads
module R = Perfbench.Report

let check = Alcotest.check
let ten = List.init 10 (fun i -> float_of_int (i + 1))

let test_percentile () =
  check (Alcotest.float 0.0) "p50 of 1..10" 5.0 (S.percentile 0.5 ten);
  check (Alcotest.float 0.0) "p90 of 1..10" 9.0 (S.percentile 0.9 ten);
  check (Alcotest.float 0.0) "p100 of 1..10" 10.0 (S.percentile 1.0 ten);
  check (Alcotest.float 0.0) "p0 is the minimum" 1.0 (S.percentile 0.0 ten);
  check (Alcotest.float 0.0) "p50 of one sample" 7.0 (S.percentile 0.5 [ 7.0 ]);
  check (Alcotest.float 0.0) "order does not matter" 9.0 (S.percentile 0.9 (List.rev ten));
  check Alcotest.bool "empty is nan" true (Float.is_nan (S.percentile 0.5 []))

let test_ten_beyond () =
  check Alcotest.int "p90 of 100 has 10 beyond" 10 (S.beyond 0.9 100);
  check Alcotest.bool "p90 of 100 reportable" true (S.reportable 0.9 100);
  check Alcotest.bool "p90 of 99 not reportable" false (S.reportable 0.9 99);
  check Alcotest.bool "p99 of 1000 reportable" true (S.reportable 0.99 1000);
  check Alcotest.bool "p99 of 999 not reportable" false (S.reportable 0.99 999);
  check Alcotest.bool "p50 of 20 reportable" true (S.reportable 0.5 20);
  check Alcotest.bool "p50 of 19 not reportable" false (S.reportable 0.5 19)

let test_growth () =
  check (Alcotest.float 1e-9) "flat sequence" 1.0 (S.growth [ List.init 50 (fun _ -> 2.0) ]);
  check (Alcotest.float 1e-9) "later half over earlier half" (8.0 /. 3.0) (S.growth [ ten ]);
  check (Alcotest.float 1e-9) "middle of an odd count left out" 3.0 (S.growth [ [ 1.0; 7.0; 3.0 ] ]);
  check (Alcotest.float 1e-9) "pooled over sequences" (5.0 /. 3.0) (S.growth [ [ 1.0; 2.0 ]; [ 1.0; 2.0 ]; [ 1.0; 1.0 ] ])

let test_names () =
  List.iter
    (fun s -> check Alcotest.bool ("valid: " ^ s) true (S.valid_name s))
    [ "procs_per_s"; "scheduler.admission_p99_us"; "obs.events_per_proc.wal_append"; "a-b" ];
  List.iter
    (fun s -> check Alcotest.bool ("invalid: " ^ s) false (S.valid_name s))
    [ ""; "has space"; "slash/name"; ".leading"; String.make 65 'a' ]

(* two processes interleaved so that each precedes the other on a
   conflicting pair: P1 -> P2 on s1, P2 -> P1 on s2 *)
let test_gate_rejects_cycle () =
  let act ~proc ~act ~service = Activity.make ~proc ~act ~service ~kind:Activity.Compensatable () in
  let mk pid first second =
    Process.make_exn ~pid
      ~activities:[ act ~proc:pid ~act:1 ~service:first; act ~proc:pid ~act:2 ~service:second ]
      ~prec:[ (1, 2) ] ~pref:[]
  in
  let p1 = mk 1 "s1" "s2" and p2 = mk 2 "s2" "s1" in
  let spec = Conflict.of_pairs [ ("s1", "s1"); ("s2", "s2") ] in
  let fwd p a = Schedule.Act (Activity.Forward (Process.find p a)) in
  let h =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p1 1; fwd p2 1; fwd p2 2; fwd p1 2; Schedule.Commit 1; Schedule.Commit 2 ]
  in
  let failed = G.failures (G.history h) in
  check Alcotest.bool "serializable check fails" true (List.mem "serializable" failed);
  let serial =
    Schedule.make ~spec ~procs:[ p1; p2 ]
      [ fwd p1 1; fwd p1 2; Schedule.Commit 1; fwd p2 1; fwd p2 2; Schedule.Commit 2 ]
  in
  check (Alcotest.list Alcotest.string) "serial history passes" [] (G.failures (G.history ~full:true serial));
  check Alcotest.bool "outcome arithmetic checked" true
    (G.failures
       (G.outcome { G.offered = 3; committed = 1; aborted = 1; rejected = 0; unfinished = 0 })
    <> [])

let workdir = "perfbench-test-work"

(* one plain and one traced round per workload, at <= 32 processes *)
let test_tiny kind () =
  let n = 24 in
  let dir = Filename.concat workdir (W.name kind) in
  let plain = W.round ~full:true kind ~seed:7 ~n ~traced:false ~dir in
  let traced = W.round ~full:true kind ~seed:7 ~n ~traced:true ~dir in
  List.iter
    (fun r ->
      check (Alcotest.list Alcotest.string) "no failed check" [] r.W.failed;
      check Alcotest.int "every request timed" (n - r.W.outcome.G.rejected)
        (List.length (W.latencies_ms r));
      check Alcotest.bool "segments lie within the measured wall" true
        (W.measured_s r <= r.W.wall_s +. 1e-9))
    [ plain; traced ];
  check (Alcotest.float 0.0) "same input, same virtual makespan" plain.W.vt_makespan
    traced.W.vt_makespan;
  let metrics = R.end_to_end ~exact:[ plain ] [ plain ] @ R.per_layer [ (plain, Some traced) ] in
  List.iter
    (fun m ->
      check Alcotest.bool ("name " ^ m.S.name) true (S.valid_name m.S.name);
      check Alcotest.bool ("finite " ^ m.S.name) true (Float.is_finite m.S.value))
    metrics;
  let names = List.map (fun m -> m.S.name) metrics in
  check Alcotest.int "names unique" (List.length names) (List.length (List.sort_uniq compare names));
  (* the layer table adds up to the traced wall *)
  let total = S.sum (List.map (fun (_, v, _) -> v) (R.table [ traced ])) in
  check (Alcotest.float 1e-9) "layer rows + remainder = wall" traced.W.wall_s total

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "metric names" `Quick test_names;
        ] );
      ("gate", [ Alcotest.test_case "rejects a non-serializable history" `Quick test_gate_rejects_cycle ]);
      ( "workloads",
        List.map (fun k -> Alcotest.test_case (W.name k ^ " at tiny scale") `Quick (test_tiny k)) W.all );
    ]
