(* Tests of the single-process operational semantics, including the paper's
   Example 1 / figure 3 (the four valid executions of P1) and Example 2
   (the completion of P1 in both recovery states). *)

open Tpm_core
open Fixtures

let check = Alcotest.check

let exec_seq s ns = List.fold_left Execution.exec s ns

(* E1 — figure 3: the four valid executions of P1. *)
let test_valid_executions_p1 () =
  let expected =
    List.sort compare
      [
        [ fwd1 1; fwd1 2; fwd1 3; fwd1 4 ];
        (* a13 fails -> alternative branch *)
        [ fwd1 1; fwd1 2; fwd1 5; fwd1 6 ];
        (* a14 fails -> compensate a13, alternative branch *)
        [ fwd1 1; fwd1 2; fwd1 3; inv1 3; fwd1 5; fwd1 6 ];
        (* a12 (pivot) fails -> full backward recovery *)
        [ fwd1 1; inv1 1 ];
      ]
  in
  check (Alcotest.list instance_list) "exactly the four executions of figure 3" expected
    (Execution.valid_executions p1)

let test_happy_path () =
  let s = Execution.start p1 in
  check Alcotest.(list int) "initially a11 enabled" [ 1 ] (Execution.enabled s);
  let s = exec_seq s [ 1; 2; 3; 4 ] in
  check Alcotest.bool "can commit after preferred path" true (Execution.can_commit s);
  let s = Execution.commit s in
  check instance_list "effective trace" [ fwd1 1; fwd1 2; fwd1 3; fwd1 4 ]
    (Execution.effective_trace s)

let test_recovery_state () =
  let s = Execution.start p1 in
  check Alcotest.bool "B-REC initially" true (Execution.recovery_state s = Execution.B_rec);
  let s = Execution.exec s 1 in
  check Alcotest.bool "still B-REC after a11" true (Execution.recovery_state s = Execution.B_rec);
  let s = Execution.exec s 2 in
  check Alcotest.bool "F-REC after pivot a12" true (Execution.recovery_state s = Execution.F_rec)

(* E2 — Example 2: completions in both states. *)
let test_completion_b_rec () =
  let s = Execution.exec (Execution.start p1) 1 in
  check instance_list "C(P1) in B-REC = {a11^-1}" [ inv1 1 ] (Execution.completion s)

let test_completion_f_rec () =
  let s = exec_seq (Execution.start p1) [ 1; 2; 3 ] in
  check instance_list "C(P1) after a13 = {a13^-1 << a15 << a16}"
    [ inv1 3; fwd1 5; fwd1 6 ]
    (Execution.completion s)

let test_completion_after_pivot_a14 () =
  let s = exec_seq (Execution.start p1) [ 1; 2; 3; 4 ] in
  check instance_list "C(P1) after a14 is empty" [] (Execution.completion s)

let test_completion_p2_at_t2 () =
  let s = exec_seq (Execution.start p2) [ 1; 2; 3; 4 ] in
  check instance_list "C(P2) = {a25}" [ fwd2 5 ] (Execution.completion s)

let test_abort_b_rec () =
  let s = exec_seq (Execution.start p2) [ 1; 2 ] in
  let s = Execution.abort s in
  check Alcotest.bool "aborted with no effects" true
    (Execution.status s = Execution.Finished Execution.Aborted);
  check instance_list "all compensated in reverse order"
    [ fwd2 1; fwd2 2; Activity.Inverse (a2 2); Activity.Inverse (a2 1) ]
    (Execution.effective_trace s)

let test_abort_f_rec_commits () =
  let s = exec_seq (Execution.start p1) [ 1; 2; 3 ] in
  let s = Execution.abort s in
  check Alcotest.bool "abort in F-REC terminates committing" true
    (Execution.status s = Execution.Finished Execution.Committed);
  check instance_list "completion appended"
    [ fwd1 1; fwd1 2; fwd1 3; inv1 3; fwd1 5; fwd1 6 ]
    (Execution.effective_trace s)

let test_fail_a13_switches_branch () =
  let s = exec_seq (Execution.start p1) [ 1; 2 ] in
  let s = Execution.fail s 3 in
  check Alcotest.(list int) "a15 enabled after a13 failed" [ 5 ] (Execution.enabled s);
  let s = exec_seq s [ 5; 6 ] in
  check Alcotest.bool "commit via alternative" true (Execution.can_commit s)

let test_fail_a14_compensates_a13 () =
  let s = exec_seq (Execution.start p1) [ 1; 2; 3 ] in
  let s = Execution.fail s 4 in
  check instance_list "a13 compensated" [ fwd1 1; fwd1 2; fwd1 3; inv1 3 ]
    (Execution.effective_trace s);
  check Alcotest.(list int) "a15 now enabled" [ 5 ] (Execution.enabled s)

let test_fail_pivot_backward () =
  let s = Execution.exec (Execution.start p1) 1 in
  let s = Execution.fail s 2 in
  check Alcotest.bool "process aborted" true
    (Execution.status s = Execution.Finished Execution.Aborted);
  check instance_list "a11 compensated" [ fwd1 1; inv1 1 ] (Execution.effective_trace s)

let test_fail_retriable_is_retry () =
  let s = exec_seq (Execution.start p2) [ 1; 2; 3; 4 ] in
  let s = Execution.fail s 5 in
  check Alcotest.bool "still running" true (Execution.status s = Execution.Running);
  check Alcotest.(list int) "a25 still enabled" [ 5 ] (Execution.enabled s);
  let s = Execution.exec s 5 in
  check Alcotest.bool "commit after retry" true (Execution.can_commit s)

let test_exec_not_enabled_raises () =
  let s = Execution.start p1 in
  Alcotest.check_raises "exec of a non-enabled activity raises"
    (Invalid_argument "Execution.exec: activity 3 is not enabled") (fun () ->
      ignore (Execution.exec s 3))

let test_stuck_process () =
  (* pivot followed by a lone pivot with no alternative: failure after the
     state-determining activity must raise Stuck *)
  let acts =
    [
      act ~proc:7 ~act:1 ~service:"y1" ~kind:Activity.Pivot;
      act ~proc:7 ~act:2 ~service:"y2" ~kind:Activity.Pivot;
    ]
  in
  let p = Process.make_exn ~pid:7 ~activities:acts ~prec:[ (1, 2) ] ~pref:[] in
  let s = Execution.exec (Execution.start p) 1 in
  match Execution.fail s 2 with
  | exception Execution.Stuck _ -> ()
  | _ -> Alcotest.fail "expected Stuck"

let test_nested_alternative () =
  (* choice inside an alternative branch: failing deep backtracks locally
     first, then to the outer choice point. *)
  let c n = act ~proc:8 ~act:n ~service:(Printf.sprintf "z%d" n) ~kind:Activity.Compensatable in
  let r n = act ~proc:8 ~act:n ~service:(Printf.sprintf "z%d" n) ~kind:Activity.Retriable in
  (* 1 -> (2 -> (3 | 4)) | 5   where | are alternatives *)
  let p =
    Process.make_exn ~pid:8
      ~activities:[ c 1; c 2; c 3; c 4; r 5 ]
      ~prec:[ (1, 2); (2, 3); (2, 4); (1, 5) ]
      ~pref:[ ((2, 3), (2, 4)); ((1, 2), (1, 5)) ]
  in
  let s = Execution.exec (Execution.start p) 1 in
  let s = Execution.exec s 2 in
  (* a3 fails: inner alternative a4 *)
  let s = Execution.fail s 3 in
  check Alcotest.(list int) "a4 enabled" [ 4 ] (Execution.enabled s);
  (* a4 fails too: backtrack to outer choice, compensating a2 *)
  let s = Execution.fail s 4 in
  check Alcotest.(list int) "a5 enabled" [ 5 ] (Execution.enabled s);
  check instance_list "a2 compensated on outer backtrack"
    [ Activity.Forward (Process.find p 1); Activity.Forward (Process.find p 2);
      Activity.Inverse (Process.find p 2) ]
    (Execution.effective_trace s)

(* The kept plan against a from-scratch one.  [Execution] keeps each
   state's plan until its choices change; the reference below re-derives
   the plan from [Process.roots] under [Execution.choices] at every state
   and rebuilds [enabled], [can_commit] and the completion from it, and
   whether a failure backtracks and a forward replay is accepted.  A
   choice-changing path that kept the old plan (a backtrack or its
   probe, a replay switch, the safe-path switch of an abort) makes the
   two disagree on some walk. *)
module Int_set = Set.Make (Int)
module Generator = Tpm_workload.Generator
module Prng = Tpm_sim.Prng

let ref_index choices cp = Option.value ~default:0 (List.assoc_opt cp choices)

let ref_plan p choices =
  let rec grow seen = function
    | [] -> seen
    | n :: rest when Int_set.mem n seen -> grow seen rest
    | n :: rest ->
        let next =
          match Process.alternatives p n with
          | [] -> Process.succs p n
          | alts ->
              List.nth alts (min (ref_index choices n) (List.length alts - 1))
              :: Process.unconditional_succs p n
        in
        grow (Int_set.add n seen) (next @ rest)
  in
  grow Int_set.empty (Process.roots p)

let ref_enabled p choices done_ =
  let pl = ref_plan p choices in
  Int_set.elements pl
  |> List.filter (fun n ->
         (not (List.mem n done_))
         && List.for_all
              (fun m -> (not (Int_set.mem m pl)) || List.mem m done_)
              (Process.preds p n))

let ref_can_commit p choices done_ =
  Int_set.for_all (fun n -> List.mem n done_) (ref_plan p choices)

(* C(P): compensate back to the last state-determining activity (all of
   it in B-REC); in F-REC switch every incomplete branch to its last
   alternative, then run the plan to its end along the first enabled
   activity, which must be retriable. *)
let ref_completion s =
  let p = Execution.proc s in
  let inst f n = f (Process.find p n) in
  let order = Execution.executed s in
  let pivot n = Activity.non_compensatable (Process.find p n) in
  let rec after = function
    | [] -> None
    | n :: rest -> (
        match after rest with
        | Some tail -> Some tail
        | None -> if pivot n then Some rest else None)
  in
  match after order with
  | None -> List.rev_map (inst (fun a -> Activity.Inverse a)) order
  | Some undone ->
      let undo = List.rev_map (inst (fun a -> Activity.Inverse a)) undone in
      let done_ = List.filter (fun n -> not (List.mem n undone)) order in
      let rec safe choices =
        let pl = ref_plan p choices in
        let pending cp =
          let last = List.length (Process.alternatives p cp) - 1 in
          List.mem cp done_ && Int_set.mem cp pl
          && (not (List.exists (fun x -> Process.before p cp x && pivot x) done_))
          && ref_index choices cp < last
          && Int_set.exists (fun x -> Process.before p cp x && not (List.mem x done_)) pl
        in
        match List.find_opt pending (Process.choice_points p) with
        | None -> choices
        | Some cp ->
            let last = List.length (Process.alternatives p cp) - 1 in
            safe ((cp, last) :: List.remove_assoc cp choices)
      in
      let choices = safe (Execution.choices s) in
      let rec forward done_ acc =
        if ref_can_commit p choices done_ then List.rev acc
        else
          match ref_enabled p choices done_ with
          | n :: _ when Activity.retriable (Process.find p n) ->
              forward (done_ @ [ n ]) (inst (fun a -> Activity.Forward a) n :: acc)
          | _ -> raise (Execution.Stuck "reference: no retriable forward path")
      in
      undo @ forward done_ []

(* [Forward n] replays iff [n] is enabled, or switching one executed
   choice point with an untouched branch to another alternative (the
   unexecuted ones reset) enables it. *)
let ref_replays p choices done_ n =
  let switch cp j = (cp, j) :: List.filter (fun (m, _) -> m <> cp && List.mem m done_) choices in
  List.mem n (ref_enabled p choices done_)
  || List.exists
       (fun cp ->
         List.mem cp done_
         && (not (List.exists (fun x -> Process.before p cp x) done_))
         && List.exists
              (fun j -> j <> ref_index choices cp && List.mem n (ref_enabled p (switch cp j) done_))
              (List.init (List.length (Process.alternatives p cp)) Fun.id))
       (Process.choice_points p)

(* A failed non-retriable [n] backtracks iff some executed choice point
   before [n] has an untried alternative, a compensatable branch, and
   loses [n] from the plan when switched. *)
let ref_backtracks p choices done_ n =
  List.exists
    (fun cp ->
      let index = ref_index choices cp in
      List.mem cp done_
      && index < List.length (Process.alternatives p cp) - 1
      && Process.before p cp n
      && List.for_all
           (fun x -> (not (Process.before p cp x)) || Activity.compensatable (Process.find p x))
           done_
      && not (Int_set.mem n (ref_plan p ((cp, index + 1) :: List.remove_assoc cp choices))))
    (Process.choice_points p)

let agrees_with_scratch s =
  let p = Execution.proc s in
  match Execution.status s with
  | Execution.Finished _ -> Execution.enabled s = [] && not (Execution.can_commit s)
  | Execution.Running ->
      let choices = Execution.choices s and done_ = Execution.executed s in
      let attempt f = try Some (f s) with Execution.Stuck _ -> None in
      Execution.enabled s = ref_enabled p choices done_
      && Execution.can_commit s = ref_can_commit p choices done_
      && attempt Execution.completion = attempt ref_completion

let walk_params =
  { Generator.default_params with activities_min = 3; activities_max = 8; alt_prob = 0.5 }

(* A random walk of exec / fail / abort / replay steps from [start];
   [false] at the first state the reference disagrees with. *)
let plan_walk seed =
  let rng = Prng.create seed in
  let p = Generator.process ~seed walk_params ~pid:1 in
  let steps_agree = ref true in
  let agree b = if not b then steps_agree := false in
  let step s =
    let enabled = Execution.enabled s in
    match Prng.int rng 10 with
    | 0 -> Execution.abort s
    | 1 | 2 when enabled <> [] ->
        let n = Prng.pick rng enabled in
        let backtracks () =
          ref_backtracks p (Execution.choices s) (Execution.executed s) n
        in
        if Activity.retriable (Process.find p n) then Execution.fail s n
        else begin
          match Execution.fail s n with
          | s' ->
              agree (backtracks () = (Execution.status s' = Execution.Running));
              s'
          | exception (Execution.Stuck _ as e) ->
              agree (not (backtracks ()));
              raise e
        end
    | 3 | 4 -> (
        let ids = Process.activity_ids p in
        let inst =
          match Execution.executed s with
          | _ :: _ as done_ when Prng.chance rng 0.3 ->
              Activity.Inverse (Process.find p (List.hd (List.rev done_)))
          | _ -> Activity.Forward (Process.find p (Prng.pick rng ids))
        in
        let replayed = Execution.replay_instance s inst in
        (match inst with
        | Activity.Forward a when not (List.mem a.Activity.id.act (Execution.executed s)) ->
            agree
              (Result.is_ok replayed
              = ref_replays p (Execution.choices s) (Execution.executed s) a.Activity.id.act)
        | Activity.Forward _ | Activity.Inverse _ -> ());
        match replayed with Ok s' -> s' | Error _ -> s)
    | _ when Execution.can_commit s -> Execution.commit s
    | _ when enabled <> [] -> Execution.exec s (Prng.pick rng enabled)
    | _ -> Execution.abort s
  in
  let rec go s k =
    !steps_agree && agrees_with_scratch s
    &&
    match Execution.status s with
    | Execution.Finished _ -> true
    | Execution.Running when k = 0 -> true
    | Execution.Running -> (
        match step s with
        | s' -> go s' (k - 1)
        | exception Execution.Stuck _ -> !steps_agree)
  in
  go (Execution.start p) 40

let kept_plan_matches_scratch =
  QCheck.Test.make ~count:2000 ~name:"kept plan: enabled, can_commit and C(P) from scratch"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    plan_walk

let suite =
  [
    Alcotest.test_case "E1: four valid executions of P1 (fig. 3)" `Quick test_valid_executions_p1;
    Alcotest.test_case "happy path" `Quick test_happy_path;
    Alcotest.test_case "recovery state transitions" `Quick test_recovery_state;
    Alcotest.test_case "E2: completion in B-REC" `Quick test_completion_b_rec;
    Alcotest.test_case "E2: completion in F-REC" `Quick test_completion_f_rec;
    Alcotest.test_case "completion empty after final pivot" `Quick test_completion_after_pivot_a14;
    Alcotest.test_case "completion of P2 at t2" `Quick test_completion_p2_at_t2;
    Alcotest.test_case "abort in B-REC leaves nothing" `Quick test_abort_b_rec;
    Alcotest.test_case "abort in F-REC terminates forward" `Quick test_abort_f_rec_commits;
    Alcotest.test_case "a13 failure switches branch" `Quick test_fail_a13_switches_branch;
    Alcotest.test_case "a14 failure compensates a13" `Quick test_fail_a14_compensates_a13;
    Alcotest.test_case "pivot failure triggers backward recovery" `Quick test_fail_pivot_backward;
    Alcotest.test_case "retriable failure is a retry" `Quick test_fail_retriable_is_retry;
    Alcotest.test_case "exec not enabled raises" `Quick test_exec_not_enabled_raises;
    Alcotest.test_case "stuck process raises" `Quick test_stuck_process;
    Alcotest.test_case "nested alternatives backtrack" `Quick test_nested_alternative;
    QCheck_alcotest.to_alcotest kept_plan_matches_scratch;
  ]
