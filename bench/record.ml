(* Experiment records: the JSON value every BENCH_*.json is built from,
   its printer, and the one writer both bench/main.exe and
   tools/explore.exe go through, so every record carries the same meta:
   the commit, the host's core count, the OCaml version, the clock the
   figures are read on and the experiment's knobs. *)

type t =
  | Int of int
  | Float of int * float  (* decimals shown; NaN and infinities print as null *)
  | Str of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list
  | Raw of string  (* an already-rendered JSON value *)

let num ?(digits = 3) x = Float (digits, x)

(* the clock the experiment's figures are read on: wall-clock timings,
   process CPU time, the discrete-event simulation's virtual time, or
   wall-clock and virtual time side by side *)
type clock =
  | Wall
  | Cpu
  | Virtual
  | Wall_and_virtual

let clock_label = function
  | Wall -> "wall"
  | Cpu -> "cpu"
  | Virtual -> "virtual-discrete-event"
  | Wall_and_virtual -> "wall+virtual-discrete-event"

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> "unknown"

let rec inline = function
  | Int n -> string_of_int n
  | Float (d, x) -> if Float.is_finite x then Printf.sprintf "%.*f" d x else "null"
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | List l -> "[" ^ String.concat ", " (List.map inline l) ^ "]"
  | Obj kv -> "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (inline v)) kv) ^ "}"
  | Raw s -> s

(* a value with structure inside spreads one member per line; a flat
   one (a row of a table) stays on its line *)
let rec pretty indent v =
  let flat = function List _ | Obj _ -> false | _ -> true in
  let block opening closing items =
    let pad = String.make (indent + 2) ' ' in
    opening ^ "\n"
    ^ String.concat ",\n" (List.map (fun s -> pad ^ s) items)
    ^ "\n" ^ String.make indent ' ' ^ closing
  in
  match v with
  | Obj kv when not (List.for_all (fun (_, v) -> flat v) kv) ->
      block "{" "}" (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (pretty (indent + 2) v)) kv)
  | List l when not (List.for_all flat l) -> block "[" "]" (List.map (pretty (indent + 2)) l)
  | v -> inline v

let write path ~title ~experiment ~harness ~clock ~knobs fields =
  let meta =
    Obj
      [
        ("git_commit", Str (git_commit ()));
        ("experiment", Str experiment);
        ("harness", Str harness);
        ("clock", Str (clock_label clock));
        ("cores", Int (Domain.recommended_domain_count ()));
        ("ocaml", Str Sys.ocaml_version);
        ("knobs", knobs);
      ]
  in
  let oc = open_out path in
  output_string oc (pretty 0 (Obj (("experiment", Str title) :: ("meta", meta) :: fields)));
  output_char oc '\n';
  close_out oc
