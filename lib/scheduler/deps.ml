(* Dependency graph.

   Every accepted edge is stored in [succ]/[pred].  One caller inserts
   edges without asking first: completion activities of a rolling-back
   process ([apply_rollback_item]) may close a cycle, and the stored
   graph then *is* cyclic.  An abort that removes an edge of the cycle
   breaks it; a forward completion (F-REC) commits, so its cycle stays
   and every later [would_cycle] answers [true] (ROADMAP item 1).

   The graph keeps no topological order of its own: the scheduler's
   admission maintains one over its combined graph (these edges ∪ the
   latent edges of the completed schedule), and [would_cycle] — asked
   only by the [Naive_sr] baseline and the Reference engine — rebuilds a
   [Digraph] from scratch.

   Retirement (DESIGN §8).  A process *retires* once it has terminated
   and every predecessor has retired (aborted ones leave no edges).  Such
   a process cannot lie on a future cycle: terminated processes gain no
   in-edges, and its ancestors are all terminated.  It drops its
   in-edges — they all come from retired sources — and an edge whose
   source is retired is never stored.  Its out-edges into unretired
   targets stay until those targets retire.  So the stored graph tracks
   the unretired processes, not the history.  The caller may [hold] a
   terminated process unretired (the scheduler does while an abandoned
   invocation is still in flight). *)

type status =
  | Live
  | Committed
  | Aborted

type t = {
  status : (int, status) Hashtbl.t;
  succ : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  pred : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  retired : (int, unit) Hashtbl.t;
  held : (int, unit) Hashtbl.t;  (* terminated, kept unretired by the caller *)
  mutable on_retire : int -> unit;
  mutable sorted_edges : (int * int) list option;  (* memoized [edges] view *)
  mutable check : bool;  (* cross-check every predecessor walk against the oracle *)
}

let create () =
  {
    status = Hashtbl.create 16;
    succ = Hashtbl.create 16;
    pred = Hashtbl.create 16;
    retired = Hashtbl.create 16;
    held = Hashtbl.create 4;
    on_retire = ignore;
    sorted_edges = None;
    check = false;
  }

let set_check t b = t.check <- b
let set_on_retire t f = t.on_retire <- f
let retired t pid = Hashtbl.mem t.retired pid

let adj tbl n =
  match Hashtbl.find_opt tbl n with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      Hashtbl.add tbl n h;
      h

let add_process t pid =
  if not (Hashtbl.mem t.status pid) then Hashtbl.replace t.status pid Live

let status t pid = Option.value ~default:Live (Hashtbl.find_opt t.status pid)
let live t pid = status t pid = Live
let committed t pid = status t pid = Committed

let mem_edge t i j =
  match Hashtbl.find_opt t.succ i with Some h -> Hashtbl.mem h j | None -> false

let iter_adj tbl n f =
  match Hashtbl.find_opt tbl n with
  | Some h -> Hashtbl.iter (fun k () -> f k) h
  | None -> ()

let iter_preds t j f = iter_adj t.pred j f

(* the scheduler's combined-graph (deps ∪ latent base) DFS walks the live
   tables instead of copying the adjacency *)
let iter_succs t pid f = iter_adj t.succ pid f

(* the neighbours of [n] in [tbl] ([t.succ] or [t.pred]) *)
let neighbours tbl n =
  match Hashtbl.find_opt tbl n with
  | Some h -> Hashtbl.fold (fun k () l -> k :: l) h []
  | None -> []

let succs t pid = neighbours t.succ pid

(* remove [i -> j], dropping tables left empty *)
let remove_edge t i j =
  let drop tbl a b =
    match Hashtbl.find_opt tbl a with
    | Some h ->
        Hashtbl.remove h b;
        if Hashtbl.length h = 0 then Hashtbl.remove tbl a
    | None -> ()
  in
  drop t.succ i j;
  drop t.pred j i

(* Retire [n] if it qualifies, then every terminated successor that was
   waiting on it.  A retired node's in-edges all come from retired
   sources, so they are dropped; its out-edges stay until their targets
   retire. *)
let rec settle t n =
  if
    status t n <> Live
    && (not (retired t n))
    && (not (Hashtbl.mem t.held n))
    &&
    let exception Unretired in
    match iter_preds t n (fun i -> if not (retired t i) then raise Unretired) with
    | () -> true
    | exception Unretired -> false
  then begin
    Hashtbl.replace t.retired n ();
    List.iter (fun i -> remove_edge t i n) (neighbours t.pred n);
    t.sorted_edges <- None;
    t.on_retire n;
    List.iter (settle t) (succs t n)
  end

let add_edge t i j =
  (* aborted processes left no effects and never rejoin, and a retired
     source can no longer be ordered after anything unretired: such
     edges are never stored *)
  if
    i <> j
    && status t i <> Aborted
    && status t j <> Aborted
    && (not (retired t i))
    && not (mem_edge t i j)
  then begin
    t.sorted_edges <- None;
    (* an edge into a retired node (never from the scheduler, whose
       edges always target a live process) brings it back *)
    Hashtbl.remove t.retired j;
    Hashtbl.replace (adj t.succ i) j ();
    Hashtbl.replace (adj t.pred j) i ()
  end

let mark_committed t pid =
  Hashtbl.replace t.status pid Committed;
  settle t pid

let mark_aborted t pid =
  Hashtbl.replace t.status pid Aborted;
  t.sorted_edges <- None;
  let former = succs t pid in
  (* aborted processes left no effects: drop their edges *)
  List.iter (fun k -> remove_edge t pid k) (neighbours t.succ pid);
  List.iter (fun k -> remove_edge t k pid) (neighbours t.pred pid);
  settle t pid;
  List.iter (settle t) former

let hold t pid = Hashtbl.replace t.held pid ()

let release t pid =
  if Hashtbl.mem t.held pid then begin
    Hashtbl.remove t.held pid;
    settle t pid
  end

(* The oracle for [retired]: the least fixpoint of the retirement rule
   over the stored graph, from scratch — a node is retired iff it is
   terminated, not held, and every stored predecessor is retired.  So a
   node with a live, held or cycle-bound ancestor never is. *)
let retired_reference t =
  let r = Hashtbl.create 16 in
  let nodes = Hashtbl.fold (fun n _ acc -> n :: acc) t.status [] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if
          (not (Hashtbl.mem r n))
          && status t n <> Live
          && (not (Hashtbl.mem t.held n))
          &&
          let ok = ref true in
          iter_preds t n (fun i -> if not (Hashtbl.mem r i) then ok := false);
          !ok
        then begin
          Hashtbl.replace r n ();
          changed := true
        end)
      nodes
  done;
  List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) r [])

let check_retirement t =
  let got = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) t.retired []) in
  let want = retired_reference t in
  if got <> want then
    failwith
      (Printf.sprintf "Deps.retired: incremental=[%s] reference=[%s]"
         (String.concat "," (List.map string_of_int got))
         (String.concat "," (List.map string_of_int want)));
  Hashtbl.iter
    (fun j _ -> if retired t j then failwith (Printf.sprintf "Deps: stored edge into retired %d" j))
    t.pred

let all_edges_unsorted t =
  Hashtbl.fold
    (fun i h acc -> Hashtbl.fold (fun j () acc -> (i, j) :: acc) h acc)
    t.succ []

let edges t =
  match t.sorted_edges with
  | Some l -> l
  | None ->
      let l = List.sort compare (all_edges_unsorted t) in
      t.sorted_edges <- Some l;
      l

(* Committed processes stay in the cycle check: their serialization
   position is fixed, so a cycle through them is just as fatal.  Only
   aborted processes (whose effects were compensated) drop out. *)
let would_cycle t extra =
  let gone pid = status t pid = Aborted in
  let es =
    List.filter
      (fun (i, j) -> (not (gone i)) && not (gone j))
      (extra @ all_edges_unsorted t)
  in
  Tpm_core.Digraph.has_cycle (Tpm_core.Digraph.make ~nodes:[] ~edges:es)

(* Reverse reachability from [pid] over exactly the edges the reference
   implementation kept: (i, j) participates iff [live i || j = pid] —
   committed processes relay only as the last hop into [pid].  Kept as
   the oracle for [uncommitted_preds]. *)
let uncommitted_preds_reference t pid =
  let seen = Hashtbl.create 8 in
  Hashtbl.replace seen pid ();
  let acc = ref [] in
  let rec go j =
    iter_preds t j (fun i ->
        if (live t i || j = pid) && not (Hashtbl.mem seen i) then begin
          Hashtbl.replace seen i ();
          if live t i then acc := i :: !acc;
          go i
        end)
  in
  go pid;
  List.sort compare !acc

(* The walk [uncommitted_preds] runs: the reference walk, skipping
   retired direct predecessors — they have no predecessors left to
   relay. *)
let uncommitted_preds_walk t pid =
  let seen = Hashtbl.create 8 in
  Hashtbl.replace seen pid ();
  let acc = ref [] in
  let rec go j =
    iter_preds t j (fun i ->
        if live t i && not (Hashtbl.mem seen i) then begin
          Hashtbl.replace seen i ();
          acc := i :: !acc;
          go i
        end)
  in
  iter_preds t pid (fun i ->
      if not (Hashtbl.mem seen i || retired t i) then begin
        Hashtbl.replace seen i ();
        if live t i then acc := i :: !acc;
        go i
      end);
  List.sort compare !acc

let uncommitted_preds t pid =
  let v = uncommitted_preds_walk t pid in
  if t.check then begin
    let r = uncommitted_preds_reference t pid in
    if v <> r then
      failwith
        (Printf.sprintf "Deps.uncommitted_preds %d: walk=[%s] reference=[%s]" pid
           (String.concat "," (List.map string_of_int v))
           (String.concat "," (List.map string_of_int r)))
  end;
  v
