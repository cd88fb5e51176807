(* Retirement (DESIGN §8): settled processes leave the admission index
   and the dependency graph, and no decision moves.
   - the forward-recovery exception: a process that commits through its
     completion while a predecessor is live must not retire, or a later
     occurrence of that predecessor closing a cycle through it would be
     admitted;
   - history goldens over a mode x order x fail-rate matrix with abort
     requests, captured before retirement existed;
   - a long sequential server run keeps the index and the stored graph
     to the unretired processes. *)

open Tpm_core
module Scheduler = Tpm_scheduler.Scheduler
module Server = Tpm_server.Server
module Generator = Tpm_workload.Generator
module Obs = Tpm_obs.Obs

let check = Alcotest.check

let params =
  {
    Generator.default_params with
    services = 10;
    conflict_density = 0.2;
    activities_min = 3;
    activities_max = 6;
  }

(* 14 processes submitted 0.4 apart, stochastic service times, and three
   abort requests *)
let run ?(engine = Scheduler.Incremental) ?tracer ~mode ~order ~fail ~seed () =
  let procs = Generator.batch ~seed params ~n:14 in
  let rms = Generator.rms params ~fail_prob:(fun _ -> fail) ~seed () in
  let config =
    {
      Scheduler.default_config with
      mode;
      order;
      seed;
      stochastic_times = true;
      admission_engine = engine;
    }
  in
  let t = Scheduler.create ~config ?tracer ~spec:(Generator.spec params) ~rms () in
  List.iteri (fun i p -> Scheduler.submit t ~at:(0.4 *. float_of_int i) p) procs;
  Scheduler.request_abort t ~at:1.1 10;
  Scheduler.request_abort t ~at:2.0 3;
  Scheduler.request_abort t ~at:3.5 7;
  Scheduler.run ~until:100000.0 t;
  t

let digest s = Digest.to_hex (Digest.string s)
let history_digest t = digest (Format.asprintf "%a" Schedule.pp (Scheduler.history t))

(* Seed 135 under Deferred: P7 forward-recovers and commits while P1 is
   live with the edge 1->7.  P1's a3 conflicts with P7's occurrence, so
   admitting it would close the cycle 1->7->1: it must be delayed behind
   P7, as before retirement existed. *)
let test_forward_recovery () =
  List.iter
    (fun engine ->
      let a3 = ref [] in
      let sink =
        Obs.Sink.make (fun _ ev ->
            match ev with
            | Obs.Admission { pid = 1; act = 3; decision; _ } -> a3 := decision :: !a3
            | _ -> ())
      in
      let tracer = Obs.Tracer.create ~ring_capacity:0 ~sinks:[ sink ] () in
      let t =
        run ~engine ~tracer ~mode:Scheduler.Deferred ~order:Scheduler.Strong ~fail:0.0
          ~seed:135 ()
      in
      (match List.rev !a3 with
      | Obs.Delay blockers :: _ ->
          check Alcotest.(list int) "first a3 admission waits for P7" [ 7 ] blockers
      | _ -> Alcotest.fail "P1's a3 was not delayed");
      check Alcotest.string "history as recorded" "d2818786c7fd85a20bb1a1589632a001"
        (history_digest t);
      check Alcotest.bool "P7 committed" true (Scheduler.status t 7 = Schedule.Committed))
    [ Scheduler.Incremental; Scheduler.Checked ]

(* history digest, state fingerprint digest and makespan per cell,
   recorded before retirement existed *)
let golden_matrix =
  [
    ("conservative", "strong", 0.0, 135, "h=d2818786c7fd85a20bb1a1589632a001 f=1f6da6b0390dd2c51f87c03da0828b45 vt=0x1.50131dfb0a5cp+3");
    ("conservative", "strong", 0.2, 135, "h=d2818786c7fd85a20bb1a1589632a001 f=1f6da6b0390dd2c51f87c03da0828b45 vt=0x1.50131dfb0a5cp+3");
    ("conservative", "strong", 0.6, 135, "h=174df88bb48bc0dfe926c61c22819d7e f=28fb8afc5554ecc28e76bf3c6b6976a9 vt=0x1.0c4262b158aep+8");
    ("conservative", "weak", 0.0, 135, "h=a40dce75979825543889df586ac38e55 f=1f6da6b0390dd2c51f87c03da0828b45 vt=0x1.381818eef8241p+3");
    ("conservative", "weak", 0.2, 135, "h=a40dce75979825543889df586ac38e55 f=1f6da6b0390dd2c51f87c03da0828b45 vt=0x1.381818eef8241p+3");
    ("conservative", "weak", 0.6, 135, "h=da758bb46a91b36a14efc51a2873c501 f=d581d4d25a325cf9277bdbe64aa22ae9 vt=0x1.32204f57746d5p+8");
    ("deferred", "strong", 0.0, 135, "h=d2818786c7fd85a20bb1a1589632a001 f=1f6da6b0390dd2c51f87c03da0828b45 vt=0x1.50131dfb0a5cp+3");
    ("deferred", "strong", 0.2, 135, "h=d2818786c7fd85a20bb1a1589632a001 f=1f6da6b0390dd2c51f87c03da0828b45 vt=0x1.50131dfb0a5cp+3");
    ("deferred", "strong", 0.6, 135, "h=c0dc5b88b17054ccc734cdaf5719f3b2 f=b975e571a25866e4f2410faf65b211f3 vt=0x1.36e1f7c45bbbep+8");
    ("deferred", "weak", 0.0, 135, "h=a40dce75979825543889df586ac38e55 f=bb370579bb4dd99e480b59224333d1a3 vt=0x1.381818eef8241p+3");
    ("deferred", "weak", 0.2, 135, "h=a40dce75979825543889df586ac38e55 f=bb370579bb4dd99e480b59224333d1a3 vt=0x1.381818eef8241p+3");
    ("deferred", "weak", 0.6, 135, "h=bcee9913145ace51a90c612eac8b72de f=cffe287b54b9cf8e3136ecfd377e3def vt=0x1.107bd63502bc3p+8");
    ("quasi", "strong", 0.0, 135, "h=d2818786c7fd85a20bb1a1589632a001 f=1f6da6b0390dd2c51f87c03da0828b45 vt=0x1.50131dfb0a5cp+3");
    ("quasi", "strong", 0.2, 135, "h=d2818786c7fd85a20bb1a1589632a001 f=1f6da6b0390dd2c51f87c03da0828b45 vt=0x1.50131dfb0a5cp+3");
    ("quasi", "strong", 0.6, 135, "h=c0dc5b88b17054ccc734cdaf5719f3b2 f=856ea7197dfaea44d1f8699e2fd36822 vt=0x1.36e1f7c45bbbep+8");
    ("quasi", "weak", 0.0, 135, "h=a40dce75979825543889df586ac38e55 f=bb370579bb4dd99e480b59224333d1a3 vt=0x1.381818eef8241p+3");
    ("quasi", "weak", 0.2, 135, "h=a40dce75979825543889df586ac38e55 f=bb370579bb4dd99e480b59224333d1a3 vt=0x1.381818eef8241p+3");
    ("quasi", "weak", 0.6, 135, "h=5269e525baf6278b66613585c65d1f26 f=2f6ae888e63969ae4d96d4a978a40217 vt=0x1.107bd63502bc3p+8");
    ("conservative", "strong", 0.0, 41, "h=6ed552ba7d6b7762cd70f5f0fcc0b813 f=aa67884eb72d64714cd4579ab45ae8d9 vt=0x1.04532b37aaa9ap+5");
    ("conservative", "strong", 0.2, 41, "h=c5d8e20cbf0fafe5a95a5730cf4ac9f4 f=028c2da6cbe06bf40039652a82b9cd23 vt=0x1.ba4e36c0d4dfdp+5");
    ("conservative", "strong", 0.6, 41, "h=fe40d0e7d7abcdfadc33a67669f43b09 f=34d2a56e7f39fbaa06d310a338b23f74 vt=0x1.b7ffbe30ec3fep+7");
    ("conservative", "weak", 0.0, 41, "h=8e0a6a7744acbbb5de1dad2efb2d7e97 f=aa67884eb72d64714cd4579ab45ae8d9 vt=0x1.c0c01252859d9p+4");
    ("conservative", "weak", 0.2, 41, "h=05745328fb2557b9b7777ae3bdd0481f f=d6dfd313c5b719befe65ad077eb1b01f vt=0x1.5235a4bb0c5p+5");
    ("conservative", "weak", 0.6, 41, "h=afaf115b9c4e02ffc0a3dd50b84911b4 f=450d00dadc58e5246746d86bdc8dd8d3 vt=0x1.ae1371445989ep+7");
    ("deferred", "strong", 0.0, 41, "h=cb7b88cb9aed24b7289804e864c0e145 f=68aa61e76f59a8b428e7528668bf7ec5 vt=0x1.efb5dcc432aa4p+4");
    ("deferred", "strong", 0.2, 41, "h=51e8758e734e757438612d320531b470 f=0130e7a66588a8c9802aace8bd269157 vt=0x1.8348440879581p+5");
    ("deferred", "strong", 0.6, 41, "h=f8c2b7d0f47732d382155686fc7e3279 f=f048a26588d735c5eab62a0d33166367 vt=0x1.c0bce87bb5e12p+7");
    ("deferred", "weak", 0.0, 41, "h=5ed4bee1dc2d0dd05d97334a8aff539c f=73a1db1c49e4734fc43643a93dcef0d9 vt=0x1.707f43d4c057bp+4");
    ("deferred", "weak", 0.2, 41, "h=17b85268b12a0b39242bab40f109d4a7 f=37d3d6cd8397dfc45ec195f22fdc0ced vt=0x1.586e20434f1f7p+5");
    ("deferred", "weak", 0.6, 41, "h=6be8747634f596dc055c6c33b3362a08 f=4d4cd31c14c45fff74ced0bcc12aac19 vt=0x1.e0cf946068d02p+7");
    ("quasi", "strong", 0.0, 41, "h=cb7b88cb9aed24b7289804e864c0e145 f=68aa61e76f59a8b428e7528668bf7ec5 vt=0x1.efb5dcc432aa4p+4");
    ("quasi", "strong", 0.2, 41, "h=51e8758e734e757438612d320531b470 f=0130e7a66588a8c9802aace8bd269157 vt=0x1.8348440879581p+5");
    ("quasi", "strong", 0.6, 41, "h=f8c2b7d0f47732d382155686fc7e3279 f=f048a26588d735c5eab62a0d33166367 vt=0x1.c0bce87bb5e12p+7");
    ("quasi", "weak", 0.0, 41, "h=5ed4bee1dc2d0dd05d97334a8aff539c f=73a1db1c49e4734fc43643a93dcef0d9 vt=0x1.707f43d4c057bp+4");
    ("quasi", "weak", 0.2, 41, "h=17b85268b12a0b39242bab40f109d4a7 f=37d3d6cd8397dfc45ec195f22fdc0ced vt=0x1.586e20434f1f7p+5");
    ("quasi", "weak", 0.6, 41, "h=6be8747634f596dc055c6c33b3362a08 f=4d4cd31c14c45fff74ced0bcc12aac19 vt=0x1.e0cf946068d02p+7");
  ]

let mode_of = function
  | "conservative" -> Scheduler.Conservative
  | "deferred" -> Scheduler.Deferred
  | "quasi" -> Scheduler.Quasi
  | m -> invalid_arg m

let order_of = function "strong" -> Scheduler.Strong | _ -> Scheduler.Weak

let cell t =
  Printf.sprintf "h=%s f=%s vt=%h" (history_digest t)
    (digest (Scheduler.state_fingerprint t))
    (Scheduler.now t)

let test_matrix () =
  List.iter
    (fun (mode, order, fail, seed, expect) ->
      check Alcotest.string
        (Printf.sprintf "%s %s fail=%.1f seed=%d" mode order fail seed)
        expect
        (cell (run ~mode:(mode_of mode) ~order:(order_of order) ~fail ~seed ())))
    golden_matrix

(* 500 one-process documents served one after the other.  Every earlier
   document has retired by the time the next one arrives, so at each of
   its admissions the index holds that one live process and no stored
   edge has a retired source; after each document the index and the
   graph are empty — neither grows with the history. *)
let test_sequential_server () =
  let sp = { params with Generator.conflict_density = 0.3; services = 12 } in
  let sched = ref None in
  let current = ref 0 in
  let admissions = ref 0 in
  let invariant s ~index =
    if Scheduler.index_pids s <> index then
      Alcotest.failf "P%d: the index holds [%s]" !current
        (String.concat "," (List.map string_of_int (Scheduler.index_pids s)));
    List.iter
      (fun (i, _) ->
        if Scheduler.retired s i then Alcotest.failf "P%d: stored edge from retired P%d" !current i)
      (Scheduler.dependency_edges s)
  in
  let sink =
    Obs.Sink.make (fun _ ev ->
        match (ev, !sched) with
        | Obs.Admission _, Some s ->
            incr admissions;
            invariant s ~index:[ !current ]
        | _ -> ())
  in
  let tracer = Obs.Tracer.create ~ring_capacity:0 ~sinks:[ sink ] () in
  let rms = Generator.rms sp ~fail_prob:(fun _ -> 0.1) ~seed:3 () in
  let s =
    Scheduler.create
      ~config:{ Scheduler.default_config with seed = 3; stochastic_times = true }
      ~tracer ~spec:(Generator.spec sp) ~rms ()
  in
  sched := Some s;
  let srv = Server.create s in
  let n = 500 in
  for pid = 1 to n do
    current := pid;
    let p = Generator.process ~seed:3 sp ~pid in
    let doc = Lang.print { Lang.spec = Conflict.empty; processes = [ p ]; schedule = None } in
    (match Server.offer_text srv doc with
    | Ok [ (p', _) ] when p' = pid -> ()
    | Ok _ -> Alcotest.failf "document %d: unexpected decisions" pid
    | Error e -> Alcotest.failf "document %d: %s" pid e);
    Server.run srv;
    invariant s ~index:[];
    if Scheduler.dependency_edges s <> [] then
      Alcotest.failf "after document %d the graph keeps %d edges" pid
        (List.length (Scheduler.dependency_edges s))
  done;
  check Alcotest.bool "every document terminated" true (Scheduler.finished s);
  check Alcotest.bool "admissions observed" true (!admissions >= n);
  check Alcotest.int "serialization order covers the committed processes"
    (List.length
       (List.filter
          (fun pid -> Scheduler.status s pid = Schedule.Committed)
          (List.init n (fun i -> i + 1))))
    (match Criteria.serialization_order (Scheduler.history s) with
    | Some order -> List.length order
    | None -> Alcotest.fail "the history is not serializable")

let suite =
  [
    Alcotest.test_case "forward recovery keeps the cycle-closing activity delayed" `Quick
      test_forward_recovery;
    Alcotest.test_case "matrix with abort requests keeps recorded histories" `Quick
      test_matrix;
    Alcotest.test_case "500 sequential documents keep the index to the live set" `Quick
      test_sequential_server;
  ]
