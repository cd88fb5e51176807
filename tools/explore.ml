(* Systematic interleaving explorer CLI (also reachable as `tpm explore`).

   Modes:
   - default: explore the named scenario(s), print stats, and on any
     oracle violation write the greedily-minimized choice trace to
     --trace-out and exit 1 (0 with --expect-violation, which inverts
     the exit sense for the mutation self-test).
   - --replay FILE: re-run a recorded trace; exit 0 iff it reproduces a
     violation (forensics are dumped).
   - --selftest: the `dune runtest` arm — exhausts the small built-in
     scenarios, cross-validates pruned against unpruned exploration,
     proves the Lemma-1 mutation is caught, and round-trips a minimized
     trace through a file.
   - --bench-json FILE: append the P13 state-count record. *)

module E = Tpm_explore.Explore
module Record = Tpm_record.Record

let usage () =
  print_string
    "explore [--list] [--scenario NAME]... [--no-prune] [--max-branches N]\n\
    \        [--trace-out FILE] [--expect-violation] [--replay FILE]\n\
    \        [--bench-json FILE] [--selftest] [--quiet]\n";
  exit 2

type opts = {
  mutable names : string list;
  mutable prune : bool;
  mutable max_branches : int;
  mutable trace_out : string;
  mutable expect_violation : bool;
  mutable replay : string option;
  mutable bench_json : string option;
  mutable selftest : bool;
  mutable quiet : bool;
}

let parse_args () =
  let o =
    {
      names = [];
      prune = true;
      max_branches = 20000;
      trace_out = "explore-trace.txt";
      expect_violation = false;
      replay = None;
      bench_json = None;
      selftest = false;
      quiet = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--list" :: _ ->
        List.iter
          (fun (s : E.scenario) -> Printf.printf "%-14s %s\n" s.name s.descr)
          E.scenarios;
        exit 0
    | "--scenario" :: n :: rest ->
        o.names <- o.names @ [ n ];
        go rest
    | "--no-prune" :: rest ->
        o.prune <- false;
        go rest
    | "--max-branches" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v > 0 -> o.max_branches <- v
        | _ -> usage ());
        go rest
    | "--trace-out" :: f :: rest ->
        o.trace_out <- f;
        go rest
    | "--expect-violation" :: rest ->
        o.expect_violation <- true;
        go rest
    | "--replay" :: f :: rest ->
        o.replay <- Some f;
        go rest
    | "--bench-json" :: f :: rest ->
        o.bench_json <- Some f;
        go rest
    | "--selftest" :: rest ->
        o.selftest <- true;
        go rest
    | "--quiet" :: rest ->
        o.quiet <- true;
        go rest
    | ("--help" | "-h") :: _ -> usage ()
    | a :: _ ->
        Printf.eprintf "explore: unknown argument %s\n" a;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let scenario_exn name =
  match E.find_scenario name with
  | Some s -> s
  | None ->
      Printf.eprintf "explore: unknown scenario %s (try --list)\n" name;
      exit 2

let pp_script s = "[" ^ String.concat "," (List.map string_of_int s) ^ "]"

let run_one o (sc : E.scenario) =
  let log = if o.quiet then fun _ -> () else fun m -> Printf.printf "  %s\n%!" m in
  let r = E.explore ~prune:o.prune ~max_branches:o.max_branches ~log sc in
  Printf.printf
    "%s: %d branches explored (depth <= %d), pruned %d symmetric / %d sleep / %d \
     visited, %d violating%s\n"
    sc.name r.stats.explored r.stats.max_depth r.stats.pruned_symmetry
    r.stats.pruned_sleep r.stats.pruned_visited (List.length r.found)
    (if r.stats.truncated then " [TRUNCATED by --max-branches]" else "");
  (match r.found with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun (f : E.found) ->
          Printf.printf "  VIOLATION at %s (minimized %s): %s\n" (pp_script f.script)
            (pp_script f.minimized)
            (String.concat "; " f.violations))
        r.found;
      E.save_trace ~path:o.trace_out sc first.minimized;
      Printf.printf "  minimized trace written to %s\n" o.trace_out;
      let out = E.run_branch sc ~script:first.minimized in
      print_string (Lazy.force out.forensics));
  r

let bench_record name ~pruned (r : E.report) elapsed =
  let open Record in
  Obj
    [
      ("scenario", Str name); ("pruned", Bool pruned); ("explored", Int r.stats.explored);
      ("pruned_symmetry", Int r.stats.pruned_symmetry); ("pruned_sleep", Int r.stats.pruned_sleep);
      ("pruned_visited", Int r.stats.pruned_visited); ("max_depth", Int r.stats.max_depth);
      ("violations", Int (List.length r.found)); ("cpu_s", num elapsed);
    ]

let write_bench o path records =
  Record.write path ~title:"P13 systematic interleaving exploration" ~experiment:"P13"
    ~harness:"tools/explore.exe" ~clock:Record.Cpu
    ~knobs:(Record.Obj [ ("max_branches", Record.Int o.max_branches) ])
    [ ("runs", Record.List records) ];
  Printf.printf "bench record written to %s\n" path

let replay o file =
  match E.load_trace file with
  | Error e ->
      Printf.eprintf "explore: cannot read %s: %s\n" file e;
      exit 2
  | Ok (name, script) ->
      let sc = scenario_exn name in
      let out = E.run_branch sc ~script in
      Printf.printf "replay %s: scenario %s, script %s\n" file name (pp_script script);
      (match out.violations with
      | [] ->
          Printf.printf "no violation reproduced\n";
          exit 1
      | vs ->
          Printf.printf "reproduced: %s\n" (String.concat "; " vs);
          if not o.quiet then print_string (Lazy.force out.forensics);
          exit 0)

(* The `dune runtest` arm: exhaustive small-config exploration with every
   oracle clean, pruned-vs-unpruned cross-validation, and the Lemma-1
   mutation self-test with a trace-file round trip. *)
let selftest o =
  let failures = ref 0 in
  let check name cond =
    if not cond then begin
      incr failures;
      Printf.printf "selftest FAIL: %s\n" name
    end
    else if not o.quiet then Printf.printf "selftest ok: %s\n" name
  in
  (* 1. the 2-process scenario is exhaustible and every branch passes
     every oracle, pruned or not *)
  let lemma1 = scenario_exn "lemma1" in
  let rp = E.explore lemma1 in
  let ru = E.explore ~prune:false lemma1 in
  check "lemma1 exhaustive, zero violations (pruned)"
    ((not rp.stats.truncated) && rp.found = []);
  check "lemma1 exhaustive, zero violations (unpruned)"
    ((not ru.stats.truncated) && ru.found = []);
  check "pruning explores no more branches than the full tree"
    (rp.stats.explored <= ru.stats.explored);
  (* 2. three-process 2PC interleavings, pruned against unpruned *)
  let twopc3 = scenario_exn "twopc3" in
  let tp = E.explore twopc3 in
  let tu = E.explore ~prune:false twopc3 in
  check "twopc3 exhaustive, zero violations (pruned)"
    ((not tp.stats.truncated) && tp.found = []);
  check "twopc3 exhaustive, zero violations (unpruned)"
    ((not tu.stats.truncated) && tu.found = []);
  check "twopc3 pruning is effective"
    (tp.stats.explored < tu.stats.explored);
  (* 3. mutation self-test: with the Lemma-1 gate disabled the explorer
     must find a PRED violation, and its minimized trace must replay *)
  let mut = scenario_exn "lemma1-mut" in
  let rm = E.explore mut in
  check "mutation: explorer finds a violation" (rm.found <> []);
  check "mutation: the violation is a PRED violation"
    (List.exists
       (fun (f : E.found) -> List.mem "PRED violated" f.violations)
       rm.found);
  (match rm.found with
  | [] -> ()
  | f :: _ ->
      let out = E.run_branch mut ~script:f.minimized in
      check "mutation: minimized trace still violates" (out.violations <> []);
      let tmp = Filename.temp_file "explore" ".trace" in
      E.save_trace ~path:tmp mut f.minimized;
      (match E.load_trace tmp with
      | Error e -> check (Printf.sprintf "trace round-trip (%s)" e) false
      | Ok (name, script) ->
          check "trace round-trip: scenario name" (name = mut.E.name);
          let out2 = E.run_branch mut ~script in
          check "trace round-trip: replay reproduces the violation"
            (out2.violations <> []));
      Sys.remove tmp);
  (* 4. the unmutated configuration must NOT trip the mutation oracle *)
  check "no false positive without the mutation" (rp.found = []);
  (* 5. Section 3.6: the enforced weak order racing a group abort and
     in-doubt 2PC instances (plus crash points) — exhaustible, and every
     branch keeps the locals commit-order serializable on top of the
     usual oracle suite *)
  List.iter
    (fun name ->
      let sc = scenario_exn name in
      let r = E.explore sc in
      check
        (Printf.sprintf "%s exhaustive, zero violations" name)
        ((not r.stats.truncated) && r.found = []))
    [ "weak-abort"; "weak-indoubt"; "weak-indoubt-crash" ];
  if !failures = 0 then Printf.printf "explore selftest: all checks passed\n"
  else Printf.printf "explore selftest: %d FAILURES\n" !failures;
  exit (if !failures = 0 then 0 else 1)

let () =
  let o = parse_args () in
  match o.replay with
  | Some f -> replay o f
  | None ->
      if o.selftest then selftest o
      else begin
        let names =
          if o.names = [] then [ "lemma1"; "twopc3"; "twopc3-crash"; "weak-abort"; "weak-indoubt"; "weak-indoubt-crash" ]
          else o.names
        in
        let records = ref [] in
        let violating = ref false in
        List.iter
          (fun n ->
            let sc = scenario_exn n in
            let t0 = Sys.time () in
            let r = run_one o sc in
            let elapsed = Sys.time () -. t0 in
            if r.found <> [] then violating := true;
            records := bench_record n ~pruned:o.prune r elapsed :: !records;
            (* the bench record carries the unpruned baseline alongside *)
            if o.bench_json <> None && o.prune then begin
              let t1 = Sys.time () in
              let ru = E.explore ~prune:false ~max_branches:o.max_branches sc in
              records := bench_record n ~pruned:false ru (Sys.time () -. t1) :: !records
            end)
          names;
        (match o.bench_json with
        | Some path -> write_bench o path (List.rev !records)
        | None -> ());
        let bad = !violating in
        exit (if o.expect_violation then if bad then 0 else 1 else if bad then 1 else 0)
      end
