open Tpm_kv

type outcome =
  | Committed of Value.t
  | Prepared of Value.t
  | Failed
  | Blocked of int list
  | Unavailable

type invocation_record = {
  service : string;
  args : Value.t;
  undo : (string * Value.t) list;
}

type t = {
  rm_name : string;
  rm_store : Store.t;
  rm_registry : Service.Registry.t;
  locks : Locks.t;
  rng : Tpm_sim.Prng.t;
  fail_prob : string -> float;
  max_failures : int;
  mutable faults : Tpm_sim.Faults.t;
  mutable choice : Tpm_sim.Choice.t;
  pending : (int, Tx.t) Hashtbl.t;  (* prepared token -> open transaction *)
  indoubt : (int, int) Hashtbl.t;  (* prepared token -> 2PC coordinator id *)
  decisions : (int, bool) Hashtbl.t;  (* coordinator id -> applied decision *)
  log : (int, invocation_record) Hashtbl.t;  (* committed token -> record *)
  mutable committed_count : int;
}

let create ~name ~registry ?(fail_prob = fun _ -> 0.0) ?(max_failures = 10)
    ?(faults = Tpm_sim.Faults.none) ?(seed = 1) ?store () =
  {
    rm_name = name;
    rm_store = (match store with Some s -> s | None -> Store.create ());
    rm_registry = registry;
    locks = Locks.create ();
    rng = Tpm_sim.Prng.create seed;
    fail_prob;
    max_failures;
    faults;
    choice = Tpm_sim.Choice.passive;
    pending = Hashtbl.create 16;
    indoubt = Hashtbl.create 16;
    decisions = Hashtbl.create 16;
    log = Hashtbl.create 64;
    committed_count = 0;
  }

let name rm = rm.rm_name
let store rm = rm.rm_store
let registry rm = rm.rm_registry
let max_failures rm = rm.max_failures
let set_faults rm faults = rm.faults <- faults
let set_choice rm choice = rm.choice <- choice

let acquire_footprint rm ~token (svc : Service.t) =
  let try_all mode keys =
    List.fold_left
      (fun acc key ->
        match acc with
        | Error _ as e -> e
        | Ok () -> Locks.acquire rm.locks ~owner:token ~mode key)
      (Ok ()) keys
  in
  match try_all Locks.Shared svc.Service.reads with
  | Error owners -> Error owners
  | Ok () -> try_all Locks.Exclusive svc.Service.writes

let run rm ~token ~service ~args ~attempt ~now ~hold =
  if Tpm_sim.Faults.outage_active rm.faults ~subsystem:rm.rm_name ~now then Unavailable
  else
  let svc = Service.Registry.find rm.rm_registry service in
  (* only prepared invocations of *other* tokens block us *)
  match acquire_footprint rm ~token svc with
  | Error owners ->
      Locks.release_all rm.locks ~owner:token;
      Blocked owners
  | Ok () ->
      let p =
        Float.max (rm.fail_prob service)
          (Tpm_sim.Faults.burst_probability rm.faults ~service ~now)
      in
      let inject =
        (* passive: the exact historical draw (streams stay bit-identical);
           driven: a binary choice point, offered only where a failure is
           actually possible so the explorer's branching stays bounded *)
        if Tpm_sim.Choice.is_passive rm.choice then
          attempt < rm.max_failures && Tpm_sim.Prng.chance rm.rng p
        else
          attempt < rm.max_failures && p > 0.0
          && Tpm_sim.Choice.flag rm.choice
               ~tag:(Printf.sprintf "fail:%s:%d" rm.rm_name token)
               ~default:(fun () -> false)
      in
      if inject then begin
        if not (Hashtbl.mem rm.pending token) then Locks.release_all rm.locks ~owner:token;
        Failed
      end
      else begin
        let tx = Tx.begin_ rm.rm_store in
        let ret = svc.Service.body tx ~args in
        if hold then begin
          Hashtbl.replace rm.pending token tx;
          Prepared ret
        end
        else begin
          Tx.commit tx;
          Hashtbl.replace rm.log token { service; args; undo = Tx.undo_entries tx };
          rm.committed_count <- rm.committed_count + 1;
          Locks.release_all rm.locks ~owner:token;
          Committed ret
        end
      end

let invoke rm ~token ~service ?(args = Value.Nil) ?(attempt = 1) ?(now = 0.0) () =
  run rm ~token ~service ~args ~attempt ~now ~hold:false

let prepare rm ~token ~service ?(args = Value.Nil) ?(attempt = 1) ?(now = 0.0) () =
  run rm ~token ~service ~args ~attempt ~now ~hold:true

let commit_prepared rm ~token =
  match Hashtbl.find_opt rm.pending token with
  | None -> invalid_arg (Printf.sprintf "Rm.commit_prepared: unknown token %d" token)
  | Some tx ->
      Tx.commit tx;
      rm.committed_count <- rm.committed_count + 1;
      Hashtbl.remove rm.pending token;
      Hashtbl.remove rm.indoubt token;
      Locks.release_all rm.locks ~owner:token

let abort_prepared rm ~token =
  match Hashtbl.find_opt rm.pending token with
  | None -> invalid_arg (Printf.sprintf "Rm.abort_prepared: unknown token %d" token)
  | Some tx ->
      Tx.abort tx;
      Hashtbl.remove rm.pending token;
      Hashtbl.remove rm.indoubt token;
      Locks.release_all rm.locks ~owner:token

let prepared_tokens rm =
  Hashtbl.fold (fun token _ acc -> token :: acc) rm.pending [] |> List.sort compare

let is_prepared rm ~token = Hashtbl.mem rm.pending token

let mark_in_doubt rm ~token ~cid =
  if is_prepared rm ~token then Hashtbl.replace rm.indoubt token cid

let in_doubt rm =
  Hashtbl.fold (fun token cid acc -> (token, cid) :: acc) rm.indoubt [] |> List.sort compare

let in_doubt_token rm ~cid =
  (* early exit: stop at the first match instead of folding the whole
     table (participants call this on every DECISION and inquiry tick) *)
  let exception Found of int in
  try
    Hashtbl.iter (fun token c -> if c = cid then raise (Found token)) rm.indoubt;
    None
  with Found token -> Some token

let record_decision rm ~cid ~commit = Hashtbl.replace rm.decisions cid commit
let known_decision rm ~cid = Hashtbl.find_opt rm.decisions cid

let resolve_prepared rm ~token ~commit =
  (match Hashtbl.find_opt rm.indoubt token with
  | Some cid -> record_decision rm ~cid ~commit
  | None -> ());
  if is_prepared rm ~token then begin
    if commit then commit_prepared rm ~token else abort_prepared rm ~token;
    true
  end
  else false

let reset_coordination rm =
  Hashtbl.reset rm.indoubt;
  Hashtbl.reset rm.decisions

let compensate rm ~token ?(now = 0.0) () =
  match Hashtbl.find_opt rm.log token with
  | None -> invalid_arg (Printf.sprintf "Rm.compensate: unknown token %d" token)
  | Some record -> (
      let svc = Service.Registry.find rm.rm_registry record.service in
      match svc.Service.compensation with
      | Service.No_compensation ->
          invalid_arg (Printf.sprintf "Rm.compensate: %s is not compensatable" record.service)
      | Service.Inverse_service inv -> (
          let r =
            run rm ~token:(-token - 1) ~service:inv ~args:record.args
              ~attempt:rm.max_failures ~now ~hold:false
          in
          match r with
          | Committed _ ->
              Hashtbl.remove rm.log token;
              r
          | Prepared _ | Failed | Blocked _ | Unavailable -> r)
      | Service.Snapshot_undo ->
          (* same discipline as the inverse-service path: refuse during an
             outage window and take exclusive locks on the undo footprint,
             so the undo cannot clobber keys a concurrent prepared
             transaction holds *)
          if Tpm_sim.Faults.outage_active rm.faults ~subsystem:rm.rm_name ~now then
            Unavailable
          else
            let owner = -token - 1 in
            let acquire =
              List.fold_left
                (fun acc (key, _) ->
                  match acc with
                  | Error _ as e -> e
                  | Ok () -> Locks.acquire rm.locks ~owner ~mode:Locks.Exclusive key)
                (Ok ()) record.undo
            in
            (match acquire with
            | Error owners ->
                Locks.release_all rm.locks ~owner;
                Blocked owners
            | Ok () ->
                List.iter
                  (fun (key, v) ->
                    match v with
                    | Value.Nil -> Store.delete rm.rm_store key
                    | v -> Store.set rm.rm_store key v)
                  record.undo;
                Hashtbl.remove rm.log token;
                Locks.release_all rm.locks ~owner;
                Committed Value.Nil))

let invocations rm = rm.committed_count

let fingerprint rm =
  let b = Buffer.create 128 in
  Buffer.add_string b rm.rm_name;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "|%s=%s" k (Value.to_string v)))
    (Store.snapshot rm.rm_store);
  Buffer.add_string b "|p:";
  List.iter (fun tk -> Buffer.add_string b (Printf.sprintf "%d," tk)) (prepared_tokens rm);
  Buffer.add_string b "|d:";
  List.iter
    (fun (tk, cid) -> Buffer.add_string b (Printf.sprintf "%d@%d," tk cid))
    (in_doubt rm);
  Buffer.add_string b "|k:";
  Hashtbl.fold (fun cid commit acc -> (cid, commit) :: acc) rm.decisions []
  |> List.sort compare
  |> List.iter (fun (cid, commit) ->
         Buffer.add_string b (Printf.sprintf "%d=%b," cid commit));
  Buffer.add_string b "|l:";
  Hashtbl.fold (fun tk _ acc -> tk :: acc) rm.log []
  |> List.sort compare
  |> List.iter (fun tk -> Buffer.add_string b (Printf.sprintf "%d," tk));
  Buffer.add_string b (Printf.sprintf "|c%d" rm.committed_count);
  Buffer.contents b
