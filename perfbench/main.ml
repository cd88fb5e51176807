(* The benchmark's executable: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]

   Prints the run metadata, every metric with its unit and clock, with
   [--trace 1] the layer table, and as its last line one JSON object
   {correct, attempted, failed, metrics}.  Exits 1 when a correctness
   check failed. *)

module W = Perfbench.Workloads
module R = Perfbench.Report
module S = Perfbench.Stats

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let commit = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | [] -> ()
    | a :: _ -> fail ("unknown argument " ^ a)
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> fail "bad number");
  let kind = match W.of_name !workload with Some k -> k | None -> fail "unknown workload" in
  let traced = !trace = 1 in
  let n = W.default_procs kind in
  let workdir = Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ())) in
  let min_rounds =
    match kind with
    | W.Batch_contended -> if traced then 4 else 12
    | W.Durable_short -> if traced then 8 else 24
    | W.Serve_longlived -> if traced then 2 else 6
  in
  let pairs =
    Fun.protect
      ~finally:(fun () ->
        W.rm_rf workdir;
        try Unix.rmdir (Filename.dirname workdir) with Unix.Unix_error _ -> ())
      (fun () -> W.run kind ~seed:!seed ~seconds:!seconds ~trace:traced ~min_rounds ~workdir ())
  in
  let plain = List.map fst pairs in
  let exact = List.filteri (fun i _ -> i < min_rounds) plain in
  let all_rounds = plain @ List.filter_map snd pairs in
  let metrics = if traced then R.per_layer pairs else R.end_to_end ~exact plain in
  let policy = W.policy_label (W.wal_policy kind) in
  Printf.printf
    "# meta {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"procs_per_round\": %d, \
     \"inputs\": %d, \"passes\": %d, \"traced\": %b, \"git_commit\": %S, \"nproc\": %d, \"ocaml\": %S, \
     \"wal_policy\": %S, \"client\": %S}\n"
    (W.name kind) !seed !seconds n (List.length plain) W.passes traced !commit
    (Domain.recommended_domain_count ()) Sys.ocaml_version policy
    (match kind with
    | W.Serve_longlived -> "closed loop, 1 client, one process per document"
    | _ -> "closed batch per round");
  Printf.printf "%-36s %16s  %-12s %s\n" "metric" "value" "unit" "clock";
  List.iter
    (fun m ->
      Printf.printf "%-36s %16.6g  %-12s %s\n" m.S.name m.S.value m.S.unit_ (S.clock_label m.S.clock))
    metrics;
  if not traced then
    List.iter
      (fun (name, k, ok) ->
        Printf.printf "# %s: %d samples%s\n" name k
          (if ok then "" else ", fewer than ten beyond the percentile"))
      (R.tail_notes ~exact plain)
  else begin
    let traced_rounds = List.filter_map snd pairs in
    let wall = R.meanf (fun r -> r.W.wall_s) traced_rounds in
    Printf.printf "# layer table, per traced round (%d rounds, wall %.4f s):\n"
      (List.length traced_rounds) wall;
    List.iter
      (fun (name, v, src) ->
        Printf.printf "#   %-30s %10.4f s %6.1f%%  %s\n" name v (100.0 *. S.ratio v wall) src)
      (R.table traced_rounds);
    Printf.printf "#   %-30s %10.4f s  (sum of rows)\n" "total"
      (S.sum (List.map (fun (_, v, _) -> v) (R.table traced_rounds)));
    Printf.printf "#   trace_overhead %.4f (traced / untraced wall on the same inputs, - 1)\n"
      (List.assoc "trace_overhead" (List.map (fun m -> (m.S.name, m.S.value)) metrics))
  end;
  let failures = List.concat_map (fun r -> r.W.failed) all_rounds in
  List.iter (fun f -> Printf.printf "# CHECK FAILED: %s\n" f) (List.sort_uniq compare failures);
  let correct = failures = [] in
  let metrics_json =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.S.name (S.json_number m.S.value) m.S.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (R.procs_of all_rounds)
    (List.fold_left (fun a r -> a + R.gate_failed_procs r) 0 all_rounds)
    metrics_json;
  exit (if correct then 0 else 1)
