(* Experiment harness.

   The paper (PODS'99) is a theory paper: its "evaluation" consists of the
   worked examples of figures 1-9, which section E regenerates as
   executable checks.  Sections P1-P18 measure the protocol the paper says
   it implemented in the WISE system (an online PRED scheduler), and the
   system grown around it, against the baselines described in DESIGN.md.
   Each experiment is one entry of the table below.

     main.exe            every experiment at full scale, writing the
                         bench/BENCH_<NAME>.json records
     main.exe NAME [--quick] [--json PATH] [GATE FLAGS]
                         one experiment; each gate flag bounds one of its
                         readings, and a bound or invariant that does not
                         hold exits 1 *)

open Harness

let experiments =
  [
    E.experiment; P1.experiment; P2.experiment; P3.experiment; P4.experiment; P5.experiment;
    P6.experiment; P7.experiment; P8.experiment; P9.experiment; P10.experiment;
    P11.experiment; P12.experiment; P14.experiment; P15.experiment; P16.experiment;
    P17.experiment; P18.experiment;
  ]

let usage () =
  prerr_endline "usage: main.exe [NAME [--quick] [--json PATH] [GATE FLAGS]]";
  List.iter
    (fun x ->
      let flags =
        List.fold_left
          (fun acc g ->
            let f = if g.fixed = None then Printf.sprintf " [%s X]" g.flag else " [" ^ g.flag ^ "]" in
            if List.mem f acc then acc else acc @ [ f ])
          [] x.gates
      in
      Printf.eprintf "  %s%s%s\n" x.name (if x.record then " [--json PATH]" else "")
        (String.concat "" flags))
    experiments;
  exit 2

(* --quick, --json PATH and the experiment's gate flags; a flag names
   every gate that carries it *)
let parse x args =
  let rec go quick json bounds = function
    | [] -> (quick, json, bounds)
    | "--quick" :: rest -> go true json bounds rest
    | "--json" :: path :: rest when x.record -> go quick (Some path) bounds rest
    | flag :: rest -> (
        let gates = List.filter (fun g -> g.flag = flag) x.gates in
        let bound_all b = bounds @ List.map (fun g -> (g, Option.value ~default:b g.fixed)) gates in
        match (gates, rest) with
        | [], _ -> usage ()
        | g :: _, _ when g.fixed <> None -> go quick json (bound_all 0.0) rest
        | _, v :: rest -> (
            match float_of_string_opt v with
            | Some b -> go quick json (bound_all b) rest
            | None -> usage ())
        | _, [] -> usage ())
  in
  go false None [] args

(* Every invariant of the outcome, then every bounded reading, reported
   and judged the same way; true when all hold. *)
let judge x outcome bounds =
  let tag = String.uppercase_ascii x.name in
  let invariants_ok =
    List.fold_left
      (fun acc (what, holds) ->
        if not holds then Format.printf "%s SMOKE FAILED: invariant %s@." tag what;
        acc && holds)
      true outcome.invariants
  in
  List.fold_left
    (fun acc (g, b) ->
      let v = Option.value ~default:Float.nan (List.assoc_opt g.reading outcome.readings) in
      let holds, rel = match g.bound with Min -> (v >= b, ">=") | Max -> (v <= b, "<=") in
      if holds then Format.printf "%s smoke ok: %s %g %s %g@." tag g.reading v rel b
      else Format.printf "%s SMOKE FAILED: %s %g, not %s %g@." tag g.reading v rel b;
      acc && holds)
    invariants_ok bounds

let () =
  Format.printf "Transactional Process Management — experiment harness@.";
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      Format.printf "(reproduction of Schuldt, Alonso, Schek: PODS'99)@.";
      let results =
        List.map
          (fun x ->
            let json =
              if x.record then Some (Printf.sprintf "bench/BENCH_%s.json" (String.uppercase_ascii x.name))
              else None
            in
            (x.name, judge x (x.run ~quick:false ~json) []))
          experiments
      in
      Format.printf "@.%s@." rule;
      Format.printf "scenario reproduction: %s@."
        (if List.assoc "e" results then "ALL REPRODUCED" else "FAILURES ABOVE");
      if not (List.for_all snd results) then exit 1
  | name :: args -> (
      match List.find_opt (fun x -> x.name = name) experiments with
      | None -> usage ()
      | Some x ->
          let quick, json, bounds = parse x args in
          if not (judge x (x.run ~quick ~json) bounds) then exit 1)
