(* Parked admission waiters: the wake loop skips a delayed process while
   its Delay witness is unchanged.

   - the park table's invalidation rules ({!Tpm_scheduler.Wakeup});
   - differential: a parking run (Incremental engine) and a non-parking
     one (Reference engine) of the same generated workload end in the
     same state, history, makespan and stall aborts, with fewer decisions
     computed on the parking side;
   - the missed-wakeup detector of the Checked engine fires when the
     witnesses are ignored;
   - twin runs: a ring tracer changes nothing the run decides, and each
     traced delay is explained by its witness. *)

open Tpm_core
module Obs = Tpm_obs.Obs
module Scheduler = Tpm_scheduler.Scheduler
module Wakeup = Tpm_scheduler.Wakeup
module Generator = Tpm_workload.Generator
module Metrics = Tpm_sim.Metrics
module Prng = Tpm_sim.Prng

let check = Alcotest.check

let test_park_invalidation () =
  let w = Wakeup.create () in
  check Alcotest.bool "unparked" false (Wakeup.holds w 1);
  Wakeup.park w 1 ~witness:[ 1; 2 ];
  Wakeup.bump_pid w 3;
  check Alcotest.bool "unrelated pid moved" true (Wakeup.holds w 1);
  Wakeup.bump_pid w 2;
  check Alcotest.bool "witness moved" false (Wakeup.holds w 1);
  check Alcotest.bool "a broken park is dropped" false (Wakeup.holds w 1);
  Wakeup.park w 1 ~witness:[ 1; 2 ];
  check Alcotest.bool "re-parked after the move" true (Wakeup.holds w 1);
  Wakeup.bump_all w;
  check Alcotest.bool "global stamp moved" false (Wakeup.holds w 1);
  Wakeup.park w 1 ~witness:[ 1 ];
  Wakeup.ignore_witnesses w;
  Wakeup.bump_pid w 1;
  check Alcotest.bool "ignored witnesses hold" true (Wakeup.holds w 1)

(* A contended workload: dense conflicts, processes submitted close
   together, so most admissions come back Delay and waiters park. *)
let contended_run ?(instrument = ignore) ?tracer ~engine ~mode ~order seed =
  let rng = Prng.create seed in
  let params =
    {
      Generator.default_params with
      services = 6;
      subsystems = 2;
      conflict_density = 0.4 +. Prng.float rng 0.4;
    }
  in
  let fail = if Prng.chance rng 0.5 then 0.2 else 0.0 in
  let rms = Generator.rms params ~fail_prob:(fun _ -> fail) ~seed () in
  let config =
    { Scheduler.default_config with mode; order; seed; admission_engine = engine }
  in
  let t = Scheduler.create ~config ?tracer ~spec:(Generator.spec ~seed params) ~rms () in
  instrument t;
  List.iteri
    (fun i p -> Scheduler.submit t ~at:(0.1 *. float_of_int i) p)
    (Generator.batch ~seed:(seed * 7) params ~n:8);
  Scheduler.run ~until:100000.0 t;
  t

let events t =
  List.map (Format.asprintf "%a" Schedule.pp_event) (Schedule.events (Scheduler.history t))

let modes = [| Scheduler.Conservative; Scheduler.Deferred; Scheduler.Quasi |]
let orders = [| Scheduler.Strong; Scheduler.Weak |]

let same_as_rescan seed =
  let mode = modes.(seed mod 3) and order = orders.(seed / 3 mod 2) in
  let inc = contended_run ~engine:Scheduler.Incremental ~mode ~order seed in
  let rf = contended_run ~engine:Scheduler.Reference ~mode ~order seed in
  let count t k = Metrics.count (Scheduler.metrics t) k in
  if Scheduler.state_fingerprint inc <> Scheduler.state_fingerprint rf then
    QCheck.Test.fail_report "state fingerprints differ";
  if events inc <> events rf then QCheck.Test.fail_report "histories differ";
  (* a late wakeup can leave the event order intact and only delay it *)
  if Scheduler.now inc <> Scheduler.now rf then
    QCheck.Test.fail_reportf "makespan %h vs %h" (Scheduler.now inc) (Scheduler.now rf);
  if count inc "stall_aborts" <> count rf "stall_aborts" then
    QCheck.Test.fail_reportf "stall aborts %d vs %d" (count inc "stall_aborts")
      (count rf "stall_aborts");
  if count inc "admission_delays" <> count rf "admission_delays" then
    QCheck.Test.fail_reportf "delays %d vs %d" (count inc "admission_delays")
      (count rf "admission_delays");
  if count rf "admission_parked" <> 0 then QCheck.Test.fail_report "reference parked";
  if count inc "admission_parked" = 0 then QCheck.Test.fail_report "nothing parked";
  if count inc "admissions" >= count rf "admissions" then
    QCheck.Test.fail_reportf "admissions %d, not fewer than %d" (count inc "admissions")
      (count rf "admissions");
  true

let parking_matches_rescan =
  QCheck.Test.make ~count:60
    ~name:"parked waiters: same state, history and stall aborts as a full rescan"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    same_as_rescan

(* Conservative mode under the weak order: a waiter parked on
   [Conservative_wait] must wake when a predecessor commits.  Random
   seeds rarely reach it; a witness without the predecessors fails this
   seed. *)
let test_conservative_wait_wakes () =
  check Alcotest.bool "same as a full rescan" true (same_as_rescan 92649)

(* With the witnesses ignored a parked waiter is skipped even after its
   blocker moved on; the Checked engine's re-derivation at every skip
   must then find it admissible. *)
let test_ignored_witnesses_trip_detector () =
  let seeds = List.init 10 succ in
  let run ?instrument seed =
    contended_run ?instrument ~engine:Scheduler.Checked ~mode:Scheduler.Deferred
      ~order:Scheduler.Strong seed
  in
  let tripped seed =
    match run ~instrument:Scheduler.ignore_wakeup_witnesses seed with
    | _ -> false
    | exception Failure msg -> String.starts_with ~prefix:"missed wakeup:" msg
  in
  let trips = List.length (List.filter tripped seeds) in
  check Alcotest.bool (Printf.sprintf "detector fired (%d of 10 seeds)" trips) true (trips > 0);
  (* the same runs with witnesses honoured are clean *)
  List.iter (fun seed -> ignore (run seed)) seeds

(* The same workload untraced and under a ring tracer, with both engines
   that park.  Tracing must not change a decision: same state, history,
   makespan, stall aborts and admission count.  Under [Checked] each
   traced delay with a witness is checked by the engine against the full
   blockers it also computes (non-empty, a subset of them); the trace
   itself must show the payload shapes: a busy delay names one blocker,
   and no delay names its own process. *)
let twin_runs seed =
  let mode = modes.(seed mod 3) and order = orders.(seed / 3 mod 2) in
  let twin engine =
    let delays = ref [] in
    let sink =
      Obs.Sink.make (fun _ ev ->
          match ev with
          | Obs.Admission { pid; decision = Obs.Delay blockers; reason; _ } ->
              delays := (pid, blockers, reason) :: !delays
          | _ -> ())
    in
    let tracer = Obs.Tracer.create ~sinks:[ sink ] () in
    let off = contended_run ~tracer:Obs.Tracer.disabled ~engine ~mode ~order seed in
    let on = contended_run ~tracer ~engine ~mode ~order seed in
    let count t k = Metrics.count (Scheduler.metrics t) k in
    if Scheduler.state_fingerprint off <> Scheduler.state_fingerprint on then
      QCheck.Test.fail_report "state fingerprints differ";
    if events off <> events on then QCheck.Test.fail_report "histories differ";
    if Scheduler.now off <> Scheduler.now on then
      QCheck.Test.fail_reportf "makespan %h vs %h" (Scheduler.now off) (Scheduler.now on);
    List.iter
      (fun k ->
        if count off k <> count on k then
          QCheck.Test.fail_reportf "%s %d vs %d" k (count off k) (count on k))
      [ "stall_aborts"; "admissions" ];
    if !delays = [] then QCheck.Test.fail_report "nothing delayed";
    List.iter
      (fun (pid, blockers, reason) ->
        if List.mem pid blockers then QCheck.Test.fail_reportf "P%d waits for itself" pid;
        if List.sort_uniq compare blockers <> blockers then
          QCheck.Test.fail_reportf "P%d blockers unsorted" pid;
        match reason with
        | Obs.Busy when List.length blockers <> 1 ->
            QCheck.Test.fail_reportf "P%d busy delay names %d blockers" pid
              (List.length blockers)
        | Obs.Conservative_wait when blockers = [] ->
            QCheck.Test.fail_reportf "P%d waits for no predecessor" pid
        | _ -> ())
      !delays
  in
  twin Scheduler.Incremental;
  twin Scheduler.Checked;
  true

let tracing_changes_nothing =
  QCheck.Test.make ~count:60
    ~name:"twin runs: a ring tracer changes no decision; delays name their witness"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    twin_runs

let suite =
  [
    Alcotest.test_case "park invalidation" `Quick test_park_invalidation;
    QCheck_alcotest.to_alcotest parking_matches_rescan;
    Alcotest.test_case "conservative waiter wakes on predecessor commit" `Quick
      test_conservative_wait_wakes;
    Alcotest.test_case "ignored witnesses trip the missed-wakeup detector" `Quick
      test_ignored_witnesses_trip_detector;
    QCheck_alcotest.to_alcotest tracing_changes_nothing;
  ]
