let classify p =
  match Flex.well_formed p with
  | Error issues -> Error issues
  | Ok () ->
      let acts = Process.activities p in
      if List.for_all Activity.compensatable acts then Ok Activity.Compensatable
      else if List.for_all Activity.retriable acts then Ok Activity.Retriable
      else Ok Activity.Pivot

type error =
  | Not_well_formed of Flex.issue list
  | Kind_mismatch of {
      placeholder : Activity.kind;
      derived : Activity.kind;
    }
  | Unknown_placeholder of int
  | Join_would_form of int

let pp_error fmt = function
  | Not_well_formed issues ->
      Format.fprintf fmt "child not well-formed: %a"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") Flex.pp_issue)
        issues
  | Kind_mismatch { placeholder; derived } ->
      Format.fprintf fmt "placeholder is %a but the child classifies as %a" Activity.pp_kind
        placeholder Activity.pp_kind derived
  | Unknown_placeholder n -> Format.fprintf fmt "no activity %d in the parent" n
  | Join_would_form n ->
      Format.fprintf fmt "inlining at %d would join several child exits" n

let inline ~parent ~at ~child =
  match Process.find_opt parent at with
  | None -> Error (Unknown_placeholder at)
  | Some placeholder -> (
      match classify child with
      | Error issues -> Error (Not_well_formed issues)
      | Ok derived when derived <> placeholder.Activity.kind ->
          Error (Kind_mismatch { placeholder = placeholder.Activity.kind; derived })
      | Ok _ -> (
          let pid = Process.pid parent in
          let offset =
            List.fold_left max 0 (Process.activity_ids parent)
          in
          let renum n = n + offset in
          (* child activities renumbered and re-owned *)
          let child_acts =
            List.map
              (fun (a : Activity.t) ->
                Activity.make ~proc:pid ~act:(renum a.Activity.id.Activity.act)
                  ~service:a.Activity.service ~kind:a.Activity.kind
                  ~subsystem:a.Activity.subsystem ())
              (Process.activities child)
          in
          let child_prec =
            List.map (fun (a, b) -> (renum a, renum b)) (Process.prec_edges child)
          in
          let child_pref =
            List.map
              (fun ((a, b), (c, d)) -> ((renum a, renum b), (renum c, renum d)))
              (Process.pref_pairs child)
          in
          let child_roots = List.map renum (Process.roots child) in
          let child_exits =
            Process.activity_ids child
            |> List.filter (fun n -> Process.succs child n = [])
            |> List.map renum
          in
          let parent_succs = Process.succs parent at in
          match (child_exits, parent_succs) with
          | _ :: _ :: _, _ :: _ -> Error (Join_would_form at)
          | _ ->
              let keep_acts =
                List.filter
                  (fun (a : Activity.t) -> a.Activity.id.Activity.act <> at)
                  (Process.activities parent)
              in
              (* stitch: preds(at) -> child roots, child exits -> succs(at) *)
              let stitched_prec =
                List.concat_map
                  (fun (a, b) ->
                    if a = at then List.map (fun e -> (e, b)) child_exits
                    else if b = at then List.map (fun r -> (a, r)) child_roots
                    else [ (a, b) ])
                  (Process.prec_edges parent)
              in
              (* preference pairs mentioning edges into/out of the
                 placeholder are re-anchored the same way *)
              let remap_edge (a, b) =
                if a = at then
                  match child_exits with e :: _ -> (e, b) | [] -> (a, b)
                else if b = at then
                  match child_roots with r :: _ -> (a, r) | [] -> (a, b)
                else (a, b)
              in
              let stitched_pref =
                List.map (fun (e1, e2) -> (remap_edge e1, remap_edge e2)) (Process.pref_pairs parent)
              in
              (match
                 Process.make ~pid
                   ~activities:(keep_acts @ child_acts)
                   ~prec:(stitched_prec @ child_prec)
                   ~pref:(stitched_pref @ child_pref)
               with
              | Ok p -> Ok p
              | Error _ -> Error (Join_would_form at))))

(* Subprocess groups (Section 3.6, multi-level composition) *)

type group = {
  gname : string;
  members : int list;  (* activity ids of the owning process *)
}

let members_mem g n = List.mem n g.members

(* Well-formedness of a grouping over one process (wired into the
   scheduler's submit-time validation next to {!Flex}):
   - every member exists in the process, groups are non-empty and
     pairwise disjoint;
   - prec-convexity: no activity outside the group lies on a [≪]-path
     between two members (otherwise the subprocess cannot execute as one
     unit — the outsider would have to run in its middle);
   - no member is an alternative target of a choice point outside the
     group (a branch switch would enter the subprocess halfway). *)
let validate proc groups =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* names key the admitted groups, so they must be unique too *)
  let rec check_disjoint names seen = function
    | [] -> Ok ()
    | g :: rest -> (
        if List.mem g.gname names then err "group %s: name already used" g.gname
        else
          match List.find_opt (fun n -> List.mem n seen) g.members with
          | Some n -> err "group %s: activity %d already grouped" g.gname n
          | None -> check_disjoint (g.gname :: names) (g.members @ seen) rest)
  in
  let check_group g =
    if g.members = [] then err "group %s: empty" g.gname
    else
      match List.find_opt (fun n -> not (Process.mem proc n)) g.members with
      | Some n -> err "group %s: unknown activity %d" g.gname n
      | None -> (
          let outside =
            List.filter (fun n -> not (members_mem g n)) (Process.activity_ids proc)
          in
          match
            List.find_opt
              (fun x ->
                List.exists (fun a -> Process.before proc a x) g.members
                && List.exists (fun b -> Process.before proc x b) g.members)
              outside
          with
          | Some x -> err "group %s: activity %d interleaves the subprocess" g.gname x
          | None -> (
              match
                List.find_opt
                  (fun x ->
                    List.exists (members_mem g) (Process.alternatives proc x)
                    && List.length (Process.alternatives proc x) > 1)
                  outside
              with
              | Some x ->
                  err "group %s: choice point %d branches into the subprocess" g.gname x
              | None -> Ok ()))
  in
  match check_disjoint [] [] groups with
  | Error _ as e -> e
  | Ok () ->
      List.fold_left
        (fun acc g -> match acc with Error _ -> acc | Ok () -> check_group g)
        (Ok ()) groups

(* the union footprint the group admits with: its members' services *)
let services proc g =
  List.map (fun n -> (Process.find proc n).Activity.service) g.members
  |> List.sort_uniq compare

let group_of groups n = List.find_opt (fun g -> members_mem g n) groups
