open Tpm_core

(* Sharded admission (DESIGN.md §13).

   Processes are partitioned by the conflict-connected components of the
   compiled bitmatrix: two services in the same component iff joined by a
   chain of declared conflicts or co-occurrence in one process.  Edges of
   every kind the scheduler records — admission order, weak order,
   latent (§3.5) — require a conflict, so a dependency edge can never
   join processes of different components: each component is a closed
   admission world, and per-component PRED implies PRED of any
   interleaving (the union of component-wise acyclic graphs with no
   cross-component edges is acyclic). *)

(* Deterministic partition of a closed batch: one union-find over the
   batch's interned services, closed over the compiled conflict rows and
   each process's service bundle; components are assigned to buckets
   round-robin in order of first appearance, so the partition depends
   only on (spec, procs) — never on domain scheduling. *)
let partition ~shards ~spec procs =
  let shards = max 1 shards in
  let cspec = Conflict.Compiled.make spec in
  let bundles =
    List.map
      (fun (_, proc) ->
        List.map
          (fun act -> Conflict.Compiled.intern cspec (Process.find proc act).Activity.service)
          (Process.activity_ids proc))
      procs
  in
  (* every service is interned before the rows are read: interning fills
     the new service's row and column, so the rows are final here *)
  let uf = Unionfind.create (Conflict.Compiled.size cspec) in
  for i = 0 to Conflict.Compiled.size cspec - 1 do
    List.iter (Unionfind.union uf i) (Bitset.elements (Conflict.Compiled.row cspec i))
  done;
  (* a process bundles its services into one component: its own
     dependency edges reach every component any of its services lives in *)
  List.iter
    (function [] -> () | s0 :: rest -> List.iter (Unionfind.union uf s0) rest)
    bundles;
  let bucket_of_root = Hashtbl.create 16 in
  let next = ref 0 in
  (* a batch spans at most one component per process *)
  let buckets = Array.make (min shards (List.length procs)) [] in
  List.iter2
    (fun item sids ->
      (* processes with no activities share the pseudo-root [-1] *)
      let root = match sids with [] -> -1 | s0 :: _ -> Unionfind.find uf s0 in
      let b =
        match Hashtbl.find_opt bucket_of_root root with
        | Some b -> b
        | None ->
            let b = !next mod shards in
            incr next;
            Hashtbl.add bucket_of_root root b;
            b
      in
      buckets.(b) <- item :: buckets.(b))
    procs bundles;
  (* drop empty buckets (fewer components than shards), keep order *)
  Array.to_list buckets
  |> List.filter_map (fun l -> match l with [] -> None | l -> Some (List.rev l))

(* One scheduler per bucket, buckets pulled from a shared atomic counter
   by [domains] workers.  Every scheduler is domain-local: [make_rms]
   builds fresh resource managers per call, [spec] is immutable, results
   land in distinct array slots, and [Domain.join] publishes them.  With
   [domains = 1] no domain is ever spawned and the buckets run inline in
   order — a [shards = 1] single-domain run is the plain
   create/submit/run loop, bit for bit. *)
let run_parallel ?(domains = 1) ?(shards = 1) ?wal_path ~config ~spec ~make_rms procs =
  let buckets = Array.of_list (partition ~shards ~spec procs) in
  let k = Array.length buckets in
  let results = Array.make k None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < k then begin
        let rms = make_rms () in
        let wal_path = Option.map (fun p -> Printf.sprintf "%s.shard%d" p i) wal_path in
        let t = Scheduler.create ~config ?wal_path ~spec ~rms () in
        List.iter (fun (at, p) -> Scheduler.submit t ~at p) buckets.(i);
        Scheduler.run t;
        results.(i) <- Some t;
        loop ()
      end
    in
    loop ()
  in
  if domains <= 1 then worker ()
  else begin
    let spawned = List.init (min (domains - 1) (max 0 (k - 1))) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned
  end;
  Array.to_list results |> List.filter_map Fun.id
