(* The incremental admission engine's building blocks:
   - the compiled conflict bitmatrix agrees with the string-keyed spec
     (all pairs, self-conflicts, effect-free marks, late interning), and
     a late intern leaves every existing row unchanged;
   - dependency tracking ([Deps]) stores every edge it accepts, and
     reports a cycle exactly when a Digraph oracle finds one among the
     stored edges, across checked and unchecked inserts, aborts and
     commits; its predecessor walk (which skips retired nodes) agrees
     with the full one, and its retired set agrees with a from-scratch
     fixpoint;
   - the indexed [Reduction.cancel_compensation_pairs] handles a
     1000-event schedule well under a second (the old implementation
     rescanned the interval per pair, quadratically). *)

open Tpm_core
module Deps = Tpm_scheduler.Deps
module Prng = Tpm_sim.Prng

let services = [| "s0"; "s1"; "s2"; "s3"; "s4"; "s5" |]

(* random spec over the fixed pool: conflict pairs (possibly reflexive)
   plus an effect-free subset *)
let spec_of_seed seed =
  let rng = Prng.create seed in
  let n_pairs = Prng.int rng 10 in
  let spec =
    Conflict.of_pairs
      (List.init n_pairs (fun _ ->
           ( services.(Prng.int rng (Array.length services)),
             services.(Prng.int rng (Array.length services)) )))
  in
  Array.fold_left
    (fun spec s -> if Prng.chance rng 0.3 then Conflict.declare_effect_free s spec else spec)
    spec services

let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000)

let compiled_agrees =
  QCheck.Test.make ~count:200 ~name:"compiled matrix agrees with the string spec"
    arb_seed (fun seed ->
      let spec = spec_of_seed seed in
      let c = Conflict.Compiled.make spec in
      (* the rows of the services [make] interned, before any late intern *)
      let early =
        List.filter_map
          (fun s ->
            Option.map
              (fun i -> (s, i, Tpm_core.Bitset.elements (Conflict.Compiled.row c i)))
              (Conflict.Compiled.find_opt c s))
          (Array.to_list services)
      in
      (* every service of the pool, interned — some lazily, after [make] *)
      let ids = Array.map (fun s -> Conflict.Compiled.intern c s) services in
      (* a late intern leaves every existing row as it was: the scheduler's
         cached conflict closures rely on it *)
      List.iter
        (fun (s, i, row) ->
          if Tpm_core.Bitset.elements (Conflict.Compiled.row c i) <> row then
            QCheck.Test.fail_reportf "row(%s) changed by a late intern" s)
        early;
      Array.iteri
        (fun i s ->
          Array.iteri
            (fun j s' ->
              let expect = Conflict.services_conflict spec s s' in
              let got = Conflict.Compiled.conflict c ids.(i) ids.(j) in
              if got <> expect then
                QCheck.Test.fail_reportf "conflict(%s,%s): compiled %b, spec %b" s s'
                  got expect)
            services;
          if Conflict.Compiled.effect_free c ids.(i) <> Conflict.effect_free spec s then
            QCheck.Test.fail_reportf "effect_free(%s) disagrees" s;
          if Conflict.Compiled.name c ids.(i) <> s then
            QCheck.Test.fail_reportf "name(intern %s) <> %s" s s)
        services;
      (* row-based set test equals the pairwise disjunction *)
      let set = Tpm_core.Bitset.create () in
      Array.iteri (fun i _ -> if i mod 2 = 0 then Tpm_core.Bitset.set set ids.(i)) services;
      Array.iteri
        (fun i s ->
          let expect =
            Array.exists
              (fun j ->
                Tpm_core.Bitset.mem set ids.(j)
                && Conflict.services_conflict spec s services.(j))
              (Array.init (Array.length services) Fun.id)
          in
          let got = Tpm_core.Bitset.inter_nonempty (Conflict.Compiled.row c ids.(i)) set in
          if got <> expect then QCheck.Test.fail_reportf "row(%s) vs set disagrees" s)
        services;
      true)

(* ------------------------------------------------------------------ *)
(* Deps *)

(* [add_edge] stores the edge unless an endpoint is aborted or the
   source retired (a retired source keeps the out-edges it had) *)
let checked_add_edge t ~aborted i j =
  let accepted =
    List.mem (i, j) (Deps.edges t) || not (aborted.(i) || aborted.(j) || Deps.retired t i)
  in
  Deps.add_edge t i j;
  if List.mem (i, j) (Deps.edges t) <> accepted then
    QCheck.Test.fail_reportf "edge %d->%d: stored %b, accepted %b" i j (not accepted) accepted

let deps_stored_cycle_oracle =
  QCheck.Test.make ~count:300
    ~name:"deps: would_cycle agrees with a cycle check over edges" arb_seed
    (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 6 in
      let t = Deps.create () in
      (* every uncommitted_preds self-checks vs its oracle *)
      Deps.set_check t true;
      for pid = 1 to n do
        Deps.add_process t pid
      done;
      let aborted = Array.make (n + 1) false in
      let steps = 5 + Prng.int rng 25 in
      for _ = 1 to steps do
        let i = 1 + Prng.int rng n and j = 1 + Prng.int rng n in
        (match Prng.int rng 10 with
        | 0 ->
            Deps.mark_aborted t i;
            aborted.(i) <- true
        | 1 ->
            Deps.mark_committed t i;
            aborted.(i) <- false
        | 2 -> (
            (* an edge into a committed node — the scheduler never adds
               one, but retirement must survive it (the node un-retires) *)
            match List.filter (Deps.committed t) (List.init n (fun k -> k + 1)) with
            | [] -> ()
            | cs ->
                let j = List.nth cs (Prng.int rng (List.length cs)) in
                if i <> j && not (Deps.would_cycle t [ (i, j) ]) then
                  checked_add_edge t ~aborted i j)
        | 3 ->
            (* the rollback path inserts unchecked: the edge may close a
               cycle *)
            if i <> j then checked_add_edge t ~aborted i j
        | _ ->
            (* mirror the scheduler: check first, insert only safe edges *)
            if i <> j && not (Deps.would_cycle t [ (i, j) ]) then
              checked_add_edge t ~aborted i j);
        let cyclic = Digraph.has_cycle (Digraph.make ~nodes:[] ~edges:(Deps.edges t)) in
        if Deps.would_cycle t [] <> cyclic then
          QCheck.Test.fail_reportf "would_cycle [] = %b, oracle over %d edges %b"
            (Deps.would_cycle t []) (List.length (Deps.edges t)) cyclic;
        (* every walk is cross-checked by set_check *)
        for pid = 1 to n do
          ignore (Deps.uncommitted_preds t pid)
        done;
        Deps.check_retirement t
      done;
      true)

let parked_back_edge () =
  let t = Deps.create () in
  Deps.set_check t true;
  List.iter (Deps.add_process t) [ 1; 2; 3 ];
  Deps.add_edge t 1 2;
  Deps.add_edge t 2 3;
  (* the rollback path inserts unchecked: 3 -> 1 closes a cycle *)
  Deps.add_edge t 3 1;
  Alcotest.(check bool) "graph reports cyclic" true (Deps.would_cycle t []);
  Alcotest.(check bool) "any batch is cyclic" true (Deps.would_cycle t [ (1, 3) ]);
  (* aborting a participant breaks the cycle *)
  Deps.mark_aborted t 2;
  Alcotest.(check bool) "acyclic after abort" false (Deps.would_cycle t []);
  Alcotest.(check (list (pair int int))) "the closing edge stays stored"
    [ (3, 1) ] (Deps.edges t)

(* 1 -> 2 -> 3 -> 1, the last edge inserted unchecked, and 4 below the
   cycle *)
let stored_cycle_retirement () =
  let cycle () =
    let t = Deps.create () in
    Deps.set_check t true;
    List.iter (Deps.add_process t) [ 1; 2; 3; 4 ];
    List.iter (fun (i, j) -> Deps.add_edge t i j) [ (1, 2); (2, 3); (3, 1); (3, 4) ];
    t
  in
  let retired t = List.filter (Deps.retired t) [ 1; 2; 3; 4 ] in
  let t = cycle () in
  List.iter (Deps.mark_committed t) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "a committed cycle never retires" [] (retired t);
  Alcotest.(check bool) "and stays cyclic" true (Deps.would_cycle t []);
  Deps.check_retirement t;
  let t = cycle () in
  List.iter (Deps.mark_committed t) [ 1; 3; 4 ];
  Alcotest.(check (list int)) "nothing retires while 2 is live" [] (retired t);
  Deps.mark_aborted t 2;
  Alcotest.(check (list int)) "aborting 2 retires it and the rest" [ 1; 2; 3; 4 ] (retired t);
  Alcotest.(check (list (pair int int))) "retirement dropped every edge" [] (Deps.edges t);
  Deps.check_retirement t

let deps_preds_and_succs () =
  let t = Deps.create () in
  List.iter (Deps.add_process t) [ 1; 2; 3; 4 ];
  Deps.add_edge t 1 2;
  Deps.add_edge t 2 3;
  Deps.add_edge t 4 3;
  Alcotest.(check (list int)) "transitive live preds" [ 1; 2; 4 ]
    (Deps.uncommitted_preds t 3);
  Deps.mark_committed t 1;
  Alcotest.(check (list int)) "committed pred dropped" [ 2; 4 ]
    (Deps.uncommitted_preds t 3);
  Deps.mark_aborted t 4;
  Alcotest.(check (list int)) "aborted pred dropped" [ 2 ] (Deps.uncommitted_preds t 3);
  Alcotest.(check (list int)) "succs of 2" [ 3 ] (Deps.succs t 2)

let retired_lifecycle () =
  let t = Deps.create () in
  List.iter (Deps.add_process t) [ 1; 2; 3; 4 ];
  Deps.add_edge t 1 2;
  Deps.add_edge t 2 3;
  Deps.mark_committed t 2;
  Alcotest.(check (list int)) "committed 2 relays its live predecessor" [ 1 ]
    (Deps.uncommitted_preds t 3);
  Alcotest.(check bool) "2 not retired while 1 is live" false (Deps.retired t 2);
  Deps.mark_committed t 1;
  Alcotest.(check (list int)) "nothing left to wait for" [] (Deps.uncommitted_preds t 3);
  Alcotest.(check bool) "2 retired once 1 committed" true (Deps.retired t 2);
  Deps.add_edge t 1 2 (* duplicate, from a retired source: stays retired *);
  Alcotest.(check bool) "still retired" true (Deps.retired t 2);
  Deps.add_edge t 4 2;
  Alcotest.(check bool) "an edge from live 4 un-retires it" false (Deps.retired t 2);
  Alcotest.(check (list int)) "2 relays 4 again" [ 4 ] (Deps.uncommitted_preds t 3);
  Alcotest.(check (list int)) "agrees with the reference" (Deps.uncommitted_preds_reference t 3)
    (Deps.uncommitted_preds t 3);
  Deps.mark_aborted t 4;
  Alcotest.(check (list int)) "aborted 4 drops out" [] (Deps.uncommitted_preds t 3);
  Alcotest.(check bool) "retired again" true (Deps.retired t 2)

let deps_reorder_chain () =
  (* adversarial insertion order: each edge runs against the order the
     processes were added in *)
  let t = Deps.create () in
  Deps.set_check t true;
  let n = 200 in
  for pid = 1 to n do
    Deps.add_process t pid
  done;
  for i = n downto 2 do
    Alcotest.(check bool)
      (Printf.sprintf "edge %d->%d acyclic" i (i - 1))
      false
      (Deps.would_cycle t [ (i, i - 1) ]);
    Deps.add_edge t i (i - 1)
  done;
  Alcotest.(check int) "every edge stored" (n - 1) (List.length (Deps.edges t));
  Alcotest.(check bool) "the chain is acyclic" false (Deps.would_cycle t []);
  Alcotest.(check bool) "closing edge would cycle" true (Deps.would_cycle t [ (1, n) ])

(* ------------------------------------------------------------------ *)
(* Reduction at scale *)

let reduction_1k_events () =
  let act ~proc ~act:n ~service =
    Activity.make ~proc ~act:n ~service ~kind:Activity.Compensatable ()
  in
  let p1 = Process.make_exn ~pid:1 ~activities:[ act ~proc:1 ~act:1 ~service:"x" ] ~prec:[] ~pref:[] in
  let p2 = Process.make_exn ~pid:2 ~activities:[ act ~proc:2 ~act:1 ~service:"y" ] ~prec:[] ~pref:[] in
  let spec = Conflict.of_pairs [ ("x", "y") ] in
  let a1 = Process.find p1 1 and b1 = Process.find p2 1 in
  (* 250 nested quadruples: the outer (x, x') pair is blocked by the inner
     conflicting (y, y') pair until the inner cancels — two fixpoint
     passes over 1000 events *)
  let events =
    List.concat
      (List.init 250 (fun _ ->
           [
             Schedule.Act (Activity.Forward a1);
             Schedule.Act (Activity.Forward b1);
             Schedule.Act (Activity.Inverse b1);
             Schedule.Act (Activity.Inverse a1);
           ]))
  in
  let s = Schedule.make ~spec ~procs:[ p1; p2 ] events in
  Alcotest.(check int) "1000 events" 1000 (Schedule.length s);
  let t0 = Sys.time () in
  let reduced = Reduction.cancel_compensation_pairs s in
  let dt = Sys.time () -. t0 in
  Alcotest.(check int) "everything cancels" 0 (Schedule.length reduced);
  if dt > 1.0 then
    Alcotest.failf "cancel_compensation_pairs took %.2fs on 1000 events (budget 1s)" dt

let suite =
  [
    QCheck_alcotest.to_alcotest compiled_agrees;
    QCheck_alcotest.to_alcotest deps_stored_cycle_oracle;
    Alcotest.test_case "deps: parked cycle-closing edge" `Quick parked_back_edge;
    Alcotest.test_case "deps: a stored cycle blocks retirement" `Quick stored_cycle_retirement;
    Alcotest.test_case "deps: preds/succs across terminals" `Quick deps_preds_and_succs;
    Alcotest.test_case "deps: retired predecessor lifecycle" `Quick retired_lifecycle;
    Alcotest.test_case "deps: adversarial reorder chain" `Quick deps_reorder_chain;
    Alcotest.test_case "reduction: 1000-event schedule in budget" `Quick
      reduction_1k_events;
  ]
