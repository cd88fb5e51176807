module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type step =
  | Invoked of Activity.t
  | Attempt_failed of Activity.t
  | Compensated of Activity.t

type outcome =
  | Committed
  | Aborted

type status =
  | Running
  | Finished of outcome

type recovery_state =
  | B_rec
  | F_rec

type t = {
  proc : Process.t;
  rev_trace : step list;
  executed : Int_set.t;  (* committed and not compensated *)
  rev_exec_order : int list;  (* ids of [executed], most recent first *)
  pivots_done : Int_set.t;  (* non-compensatable activities ever committed *)
  choice : int Int_map.t;  (* choice point -> current alternative index *)
  phase : phase;
}

(* A running process carries its plan: the activities reachable under
   [choice], set by [start] and [with_choice].  A finished one keeps none,
   and its [Over] is a constant, so it allocates nothing. *)
and phase =
  | Live of Int_set.t Lazy.t
  | Over of outcome

exception Stuck of string

let choice_index choice n = Option.value ~default:0 (Int_map.find_opt n choice)

(* Activities reachable under the alternative selection [choice]. *)
let reachable p choice =
  let rec grow frontier seen =
    match frontier with
    | [] -> seen
    | n :: rest ->
        if Int_set.mem n seen then grow rest seen
        else
          let seen = Int_set.add n seen in
          let next =
            match Process.alternatives p n with
            | [] -> Process.succs p n
            | alts ->
                let i = min (choice_index choice n) (List.length alts - 1) in
                List.nth alts i :: Process.unconditional_succs p n
          in
          grow (next @ rest) seen
  in
  grow (Process.roots p) Int_set.empty

(* The one way [choice] changes after [start]: the plan is recomputed on
   first use after a branch switch and shared by the steps until the next. *)
let with_choice s choice = { s with choice; phase = Live (lazy (reachable s.proc choice)) }

let start proc =
  {
    proc;
    rev_trace = [];
    executed = Int_set.empty;
    rev_exec_order = [];
    pivots_done = Int_set.empty;
    choice = Int_map.empty;
    phase = Live (lazy (reachable proc Int_map.empty));
  }

let proc s = s.proc
let status s =
  match s.phase with
  | Live _ -> Running
  | Over Committed -> Finished Committed
  | Over Aborted -> Finished Aborted

let recovery_state s = if Int_set.is_empty s.pivots_done then B_rec else F_rec

let plan s = match s.phase with Live pl -> Lazy.force pl | Over _ -> Int_set.empty
let choices s = Int_map.bindings s.choice

let enabled s =
  match s.phase with
  | Over _ -> []
  | Live pl ->
      let pl = Lazy.force pl in
      Int_set.elements pl
      |> List.filter (fun n ->
             (not (Int_set.mem n s.executed))
             && List.for_all
                  (fun m -> (not (Int_set.mem m pl)) || Int_set.mem m s.executed)
                  (Process.preds s.proc n))

let executed s = List.rev s.rev_exec_order

let require_enabled fn s n =
  if not (List.mem n (enabled s)) then
    invalid_arg (Printf.sprintf "Execution.%s: activity %d is not enabled" fn n)

let exec s n =
  require_enabled "exec" s n;
  let a = Process.find s.proc n in
  {
    s with
    rev_trace = Invoked a :: s.rev_trace;
    executed = Int_set.add n s.executed;
    rev_exec_order = n :: s.rev_exec_order;
    pivots_done =
      (if Activity.non_compensatable a then Int_set.add n s.pivots_done else s.pivots_done);
  }

(* Compensate the given executed activities, most recently executed first. *)
let compensate_set s set =
  let to_undo = List.filter (fun n -> Int_set.mem n set) s.rev_exec_order in
  List.fold_left
    (fun s n ->
      let a = Process.find s.proc n in
      if Activity.non_compensatable a then
        raise (Stuck (Printf.sprintf "cannot compensate non-compensatable activity %d" n));
      {
        s with
        rev_trace = Compensated a :: s.rev_trace;
        executed = Int_set.remove n s.executed;
        rev_exec_order = List.filter (fun m -> m <> n) s.rev_exec_order;
      })
    s to_undo

let full_backward_abort s =
  { (compensate_set s s.executed) with phase = Over Aborted }

(* Choice points, nearest (deepest in ≪) first, that (1) are executed,
   (2) still have an untried lower-priority alternative, (3) lose [n] from
   the plan when switched, and (4) whose abandoned branch is fully
   compensatable. Returns the first viable one with its branch. *)
let find_backtrack_target s n =
  let p = s.proc in
  let candidates =
    Process.choice_points p
    |> List.filter (fun cp ->
           Int_set.mem cp s.executed
           && choice_index s.choice cp < List.length (Process.alternatives p cp) - 1
           && Process.before p cp n)
  in
  (* nearest first: cp2 before cp1 in the result if cp1 ≪ cp2 *)
  let nearest_first =
    List.sort (fun c1 c2 -> if Process.before p c1 c2 then 1 else if Process.before p c2 c1 then -1 else compare c1 c2) candidates
  in
  let viable cp =
    let branch = Int_set.filter (fun x -> Process.before p cp x) s.executed in
    let all_comp =
      Int_set.for_all (fun x -> Activity.compensatable (Process.find p x)) branch
    in
    if not all_comp then None
    else
      let switched = with_choice s (Int_map.add cp (choice_index s.choice cp + 1) s.choice) in
      if Int_set.mem n (plan switched) then None else Some (cp, branch)
  in
  List.find_map viable nearest_first

let fail s n =
  require_enabled "fail" s n;
  let a = Process.find s.proc n in
  let s = { s with rev_trace = Attempt_failed a :: s.rev_trace } in
  if Activity.retriable a then s
  else
    match find_backtrack_target s n with
    | Some (cp, branch) ->
        let s = compensate_set s branch in
        (* abandoned choice points may be re-entered via the new branch *)
        with_choice s
          (Int_map.add cp (choice_index s.choice cp + 1)
             (Int_map.filter (fun m _ -> not (Int_set.mem m branch)) s.choice))
    | None ->
        if Int_set.is_empty s.pivots_done then full_backward_abort s
        else
          raise
            (Stuck
               (Printf.sprintf
                  "activity %d failed after a state-determining activity with no alternative" n))

let can_commit s =
  match s.phase with
  | Over _ -> false
  | Live pl -> Int_set.for_all (fun n -> Int_set.mem n s.executed) (Lazy.force pl)

let commit s =
  if not (can_commit s) then invalid_arg "Execution.commit: plan not fully executed";
  { s with phase = Over Committed }

let state_determining_executed s =
  List.find_opt
    (fun n -> Activity.non_compensatable (Process.find s.proc n))
    s.rev_exec_order

(* Switch every choice point whose current branch is incomplete to its
   lowest-priority alternative (the retriable-only safe path).  A choice
   point followed by a committed non-compensatable activity must not
   switch: the completion continues forward from the last
   state-determining element (paper, Section 3.1). *)
let switch_to_safe_alternatives s =
  let p = s.proc in
  let rec fixpoint s =
    let pl = plan s in
    let pending =
      Process.choice_points p
      |> List.filter (fun cp ->
             Int_set.mem cp s.executed
             && Int_set.mem cp pl
             && (not
                   (Int_set.exists
                      (fun x ->
                        Process.before p cp x
                        && Activity.non_compensatable (Process.find p x))
                      s.executed))
             &&
             let alts = Process.alternatives p cp in
             let last = List.length alts - 1 in
             choice_index s.choice cp < last
             &&
             (* current branch incomplete: some plan activity after cp not executed *)
             Int_set.exists
               (fun x -> Process.before p cp x && not (Int_set.mem x s.executed))
               pl)
    in
    match pending with
    | [] -> s
    | cp :: _ ->
        let alts = Process.alternatives p cp in
        fixpoint (with_choice s (Int_map.add cp (List.length alts - 1) s.choice))
  in
  fixpoint s

let rec run_to_completion s =
  if can_commit s then { s with phase = Over Committed }
  else
    match enabled s with
    | [] ->
        raise (Stuck "forward recovery blocked: nothing enabled but plan incomplete")
    | n :: _ ->
        let a = Process.find s.proc n in
        if not (Activity.retriable a) then
          raise
            (Stuck
               (Printf.sprintf "forward recovery path contains non-retriable activity %d" n));
        run_to_completion (exec s n)

let abort s =
  match status s with
  | Finished _ -> invalid_arg "Execution.abort: process already finished"
  | Running -> (
      match state_determining_executed s with
      | None -> full_backward_abort s
      | Some sd ->
          (* local backward recovery: undo everything executed after [sd] *)
          let after_sd =
            let rec take acc = function
              | [] -> acc
              | n :: _ when n = sd -> acc
              | n :: rest -> take (Int_set.add n acc) rest
            in
            take Int_set.empty s.rev_exec_order
          in
          let s = compensate_set s after_sd in
          let s = switch_to_safe_alternatives s in
          run_to_completion s)

(* Replay-mode branch switch: find a choice assignment under which [n]
   becomes invocable.  Only choice points whose abandoned branch has been
   fully compensated may be re-targeted. *)
let adjust_choice_for s n =
  let p = s.proc in
  let try_one cp j =
    let branch_clear =
      not (Int_set.exists (fun x -> Process.before p cp x) s.executed)
    in
    if not branch_clear then None
    else
      let s' =
        with_choice s
          (Int_map.add cp j (Int_map.filter (fun m _ -> Int_set.mem m s.executed) s.choice))
      in
      if List.mem n (enabled s') then Some s' else None
  in
  Process.choice_points p
  |> List.filter (fun cp -> Int_set.mem cp s.executed)
  |> List.find_map (fun cp ->
         let alts = Process.alternatives p cp in
         List.find_map
           (fun j -> if j = choice_index s.choice cp then None else try_one cp j)
           (List.init (List.length alts) Fun.id))

let replay_instance s inst =
  match status s with
  | Finished _ -> Error "process already finished"
  | Running -> (
      let a = Activity.instance_base inst in
      let n = a.Activity.id.act in
      if not (Process.mem s.proc n) then Error (Printf.sprintf "unknown activity %d" n)
      else
        match inst with
        | Activity.Forward _ ->
            if Int_set.mem n s.executed then
              Error (Printf.sprintf "activity %d already executed" n)
            else if List.mem n (enabled s) then Ok (exec s n)
            else (
              match adjust_choice_for s n with
              | Some s' -> Ok (exec s' n)
              | None -> Error (Printf.sprintf "activity %d is not invocable here" n))
        | Activity.Inverse _ -> (
            if not (Activity.compensatable (Process.find s.proc n)) then
              Error (Printf.sprintf "activity %d is not compensatable" n)
            else
              match s.rev_exec_order with
              | last :: _ when last = n -> Ok (compensate_set s (Int_set.singleton n))
              | _ -> Error (Printf.sprintf "activity %d is not the last executed" n)))

let trace s = List.rev s.rev_trace

let effective_of_steps steps =
  List.filter_map
    (function
      | Invoked a -> Some (Activity.Forward a)
      | Compensated a -> Some (Activity.Inverse a)
      | Attempt_failed _ -> None)
    steps

let effective_trace s = effective_of_steps (trace s)

let completion s =
  match status s with
  | Finished _ -> []
  | Running ->
      let before = List.length s.rev_trace in
      let s' = abort s in
      let added = List.filteri (fun i _ -> i >= before) (trace s') in
      effective_of_steps added

let pp_step fmt = function
  | Invoked a -> Activity.pp fmt a
  | Attempt_failed a -> Format.fprintf fmt "%a!fail" Activity.pp_id a.Activity.id
  | Compensated a -> Format.fprintf fmt "%a^-1" Activity.pp_id a.Activity.id

let pp fmt s =
  let status_str =
    match status s with
    | Running -> "running"
    | Finished Committed -> "committed"
    | Finished Aborted -> "aborted"
  in
  Format.fprintf fmt "@[<h>P_%d[%s]: %a@]" (Process.pid s.proc) status_str
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") pp_step)
    (trace s)

let valid_executions ?(max_states = 100_000) p =
  let seen_traces = ref [] in
  let states = ref 0 in
  let add_trace s =
    let eff = effective_trace s in
    if eff <> [] && not (List.mem eff !seen_traces) then seen_traces := eff :: !seen_traces
  in
  let rec explore s =
    incr states;
    if !states > max_states then ()
    else if can_commit s then add_trace (commit s)
    else
      match enabled s with
      | [] -> ( match status s with Finished _ -> add_trace s | Running -> ())
      | ns ->
          List.iter
            (fun n ->
              explore (exec s n);
              if not (Activity.retriable (Process.find p n)) then
                let s' = fail s n in
                match status s' with
                | Finished _ -> add_trace s'
                | Running -> explore s')
            ns
  in
  explore (start p);
  List.sort compare !seen_traces
