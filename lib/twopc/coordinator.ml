module Rm = Tpm_subsys.Rm
module Des = Tpm_sim.Des
module Bus = Tpm_sim.Bus
module Metrics = Tpm_sim.Metrics
module Wal = Tpm_wal.Wal
module Obs = Tpm_obs.Obs

type msg =
  | Prepare of {
      cid : int;
      token : int;
    }
  | Vote of {
      cid : int;
      rm : string;
      yes : bool;
    }
  | Decision of {
      cid : int;
      commit : bool;
    }
  | Ack of {
      cid : int;
      rm : string;
    }
  | Inquiry of {
      cid : int;
      rm : string;
    }

let pp_msg fmt = function
  | Prepare { cid; token } -> Format.fprintf fmt "PREPARE(c%d,#%d)" cid token
  | Vote { cid; rm; yes } -> Format.fprintf fmt "VOTE(c%d,%s,%b)" cid rm yes
  | Decision { cid; commit } ->
      Format.fprintf fmt "DECISION(c%d,%s)" cid (if commit then "commit" else "abort")
  | Ack { cid; rm } -> Format.fprintf fmt "ACK(c%d,%s)" cid rm
  | Inquiry { cid; rm } -> Format.fprintf fmt "INQUIRY(c%d,%s)" cid rm

type phase =
  | Voting
  | Deciding of bool  (* the decision, while the ack is outstanding *)

(* One participant per instance: Lemma 1's 2PC runs between the
   scheduler and the subsystem that holds the prepared activity.  Its
   vote is the decision (yes commits), and its ack closes the instance,
   so the phase alone records both. *)
type instance = {
  i_cid : int;
  i_pid : int;
  i_act : int;
  i_rm : string;
  i_token : int;
  i_started : float;
  mutable i_phase : phase;
  mutable i_durable : bool;
      (* the decision may be (re)sent: true once the commit record's fsync
         completed (aborts are presumed — durable immediately).  Under
         group commit an instance sits in [Deciding] undurable until the
         batch window closes; retransmission and inquiry replies must
         stay silent meanwhile or a DECISION could outrun its record. *)
  i_on_done : commit:bool -> unit;
  mutable i_cancel : unit -> unit;
}

type t = {
  sim : Des.t;
  bus : msg Bus.t;
  log : Wal.record -> unit;
  log_durable : Wal.record -> (unit -> unit) -> unit;
  halted : unit -> bool;
  metrics : Metrics.t option;
  tracer : Obs.Tracer.t;
  retransmit_after : float;
  instances : (int, instance) Hashtbl.t;
  mutable next_cid : int;
}

(* the coordinator's bus endpoint *)
let endpoint = "coord"

let mincr t name = match t.metrics with None -> () | Some m -> Metrics.incr m name

let mobserve t name v =
  match t.metrics with None -> () | Some m -> Metrics.observe m name v

let send t inst msg = Bus.send t.bus ~src:endpoint ~dst:inst.i_rm msg

let retransmit t inst =
  let resend msg =
    mincr t "msg_retransmits";
    if Obs.Tracer.active t.tracer then
      Obs.Tracer.emit t.tracer
        (Obs.Msg
           {
             dir = Obs.Retransmit;
             src = endpoint;
             dst = inst.i_rm;
             payload = lazy (Format.asprintf "%a" pp_msg msg);
           });
    send t inst msg
  in
  match inst.i_phase with
  | Voting -> resend (Prepare { cid = inst.i_cid; token = inst.i_token })
  | Deciding commit -> if inst.i_durable then resend (Decision { cid = inst.i_cid; commit })

let rec arm_timer t inst =
  inst.i_cancel <-
    Des.after_cancellable t.sim t.retransmit_after (fun _ ->
        if (not (t.halted ())) && Hashtbl.mem t.instances inst.i_cid then begin
          retransmit t inst;
          arm_timer t inst
        end)

let finish t inst commit =
  inst.i_cancel ();
  Hashtbl.remove t.instances inst.i_cid;
  (* the participant has applied and acknowledged the decision: the
     instance needs no recovery attention any more *)
  t.log (Wal.Coord_forgotten { cid = inst.i_cid; pid = inst.i_pid });
  mobserve t "twopc_decide_latency" (Des.now t.sim -. inst.i_started);
  inst.i_on_done ~commit

let decide t inst commit =
  (* presumed abort: only the commit decision is made durable — and it is
     durable *before* the DECISION message leaves the coordinator.  The
     phase flips to [Deciding] at once (late votes are no-ops), but under
     group commit the message waits in the continuation the WAL runs when
     the batch's fsync covers the record; until then [i_durable] keeps
     retransmission and inquiry replies silent. *)
  inst.i_phase <- Deciding commit;
  let deliver () =
    inst.i_durable <- true;
    send t inst (Decision { cid = inst.i_cid; commit })
  in
  if commit then
    t.log_durable (Wal.Coord_committed { cid = inst.i_cid; pid = inst.i_pid }) deliver
  else deliver ()

let handle t ~src:_ msg =
  if not (t.halted ()) then
    match msg with
    | Vote { cid; yes; _ } -> (
        match Hashtbl.find_opt t.instances cid with
        | Some ({ i_phase = Voting; _ } as inst) -> decide t inst yes
        | Some { i_phase = Deciding _; _ } | None ->
            ()  (* duplicate vote, or a late one for a forgotten instance *))
    | Ack { cid; _ } -> (
        match Hashtbl.find_opt t.instances cid with
        | Some ({ i_phase = Deciding commit; _ } as inst) -> finish t inst commit
        | Some { i_phase = Voting; _ } | None -> ())
    | Inquiry { cid; rm } -> (
        let reply commit = Bus.send t.bus ~src:endpoint ~dst:rm (Decision { cid; commit }) in
        match Hashtbl.find_opt t.instances cid with
        | Some { i_phase = Deciding commit; i_durable = true; _ } -> reply commit
        | Some { i_phase = Deciding _; i_durable = false; _ } ->
            ()  (* decision not yet durable: answering now could outrun its record *)
        | Some { i_phase = Voting; _ } -> ()  (* still undecided; retransmission will drive it *)
        | None -> reply false  (* no durable trace of this instance: presumed abort *))
    | Prepare _ | Decision _ -> ()  (* participant-addressed; not for us *)

let create ~sim ~bus ~log ?log_durable ?metrics ?(tracer = Obs.Tracer.disabled)
    ?(retransmit_after = 1.0) ?(halted = fun () -> false) () =
  if retransmit_after <= 0.0 then
    invalid_arg "Coordinator.create: retransmit_after must be positive";
  let log_durable =
    match log_durable with
    | Some f -> f
    | None ->
        (* without a group-commit scheduler the plain log is synchronous:
           the record is durable when [log] returns *)
        fun record k ->
          log record;
          k ()
  in
  let t =
    {
      sim;
      bus;
      log;
      log_durable;
      halted;
      metrics;
      tracer;
      retransmit_after;
      instances = Hashtbl.create 16;
      next_cid = 1;
    }
  in
  Bus.register bus endpoint (handle t);
  t

let open_instances t = Hashtbl.length t.instances

let fingerprint t =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "next=%d" t.next_cid);
  Hashtbl.fold (fun cid inst acc -> (cid, inst) :: acc) t.instances []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (cid, inst) ->
         (* the participant's vote and ack: its vote is the decision, and
            an acknowledged instance is already closed *)
         let phase, vote =
           match inst.i_phase with
           | Voting -> ("V", "?")
           | Deciding true -> ((if inst.i_durable then "DC" else "DCu"), "y")
           | Deciding false -> ("DA", "n")
         in
         Buffer.add_string b
           (Printf.sprintf "|c%d:a_{%d_%d}:%s;%s%s-" cid inst.i_pid inst.i_act phase
              inst.i_rm vote));
  Buffer.contents b

let start t ~pid ~act ~rm ~token ~on_done =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  let inst =
    {
      i_cid = cid;
      i_pid = pid;
      i_act = act;
      i_rm = Rm.name rm;
      i_token = token;
      i_started = Des.now t.sim;
      i_phase = Voting;
      i_durable = false;
      i_on_done = on_done;
      i_cancel = ignore;
    }
  in
  t.log (Wal.Coord_begin { cid; pid; act; parts = [ inst.i_rm ] });
  Hashtbl.replace t.instances cid inst;
  send t inst (Prepare { cid; token });
  (* under synchronous (fault-free) delivery the whole round may have
     completed inside the send: only arm the retransmission timer for an
     instance that is still open *)
  if Hashtbl.mem t.instances cid then arm_timer t inst;
  cid

module Participant = struct
  let attach ~sim ~bus ~rm ?metrics ?inquiry_after
      ?(on_resolved = fun ~token:_ ~commit:_ -> ()) ?(halted = fun () -> false) () =
    let name = Rm.name rm in
    let mincr n = match metrics with None -> () | Some m -> Metrics.incr m n in
    let inquiry_cancels : (int, unit -> unit) Hashtbl.t = Hashtbl.create 8 in
    let cancel_inquiry cid =
      match Hashtbl.find_opt inquiry_cancels cid with
      | Some cancel ->
          cancel ();
          Hashtbl.remove inquiry_cancels cid
      | None -> ()
    in
    let arm_inquiry cid coord =
      match inquiry_after with
      | None -> ()
      | Some d ->
          let rec arm () =
            let cancel =
              Des.after_cancellable sim d (fun _ ->
                  if
                    (not (halted ()))
                    && Rm.known_decision rm ~cid = None
                    && Rm.in_doubt_token rm ~cid <> None
                  then begin
                    (* in doubt for too long: run the termination protocol
                       by re-inquiring the coordinator *)
                    mincr "msg_inquiries";
                    Bus.send bus ~src:name ~dst:coord (Inquiry { cid; rm = name });
                    arm ()
                  end
                  else Hashtbl.remove inquiry_cancels cid)
            in
            Hashtbl.replace inquiry_cancels cid cancel
          in
          arm ()
    in
    let handle ~src msg =
      if not (halted ()) then
        match msg with
        | Prepare { cid; token } -> (
            match Rm.known_decision rm ~cid with
            | Some _ ->
                (* duplicate PREPARE arriving after the decision was applied:
                   the coordinator can only be missing our ack *)
                Bus.send bus ~src:name ~dst:src (Ack { cid; rm = name })
            | None ->
                let yes = Rm.is_prepared rm ~token in
                if yes then begin
                  Rm.mark_in_doubt rm ~token ~cid;
                  if not (Hashtbl.mem inquiry_cancels cid) then arm_inquiry cid src
                end;
                Bus.send bus ~src:name ~dst:src (Vote { cid; rm = name; yes }))
        | Decision { cid; commit } ->
            cancel_inquiry cid;
            (match Rm.known_decision rm ~cid with
            | Some _ -> ()  (* duplicate DECISION: already applied *)
            | None -> (
                match Rm.in_doubt_token rm ~cid with
                | Some token ->
                    if Rm.resolve_prepared rm ~token ~commit then begin
                      mincr "indoubt_resolved";
                      on_resolved ~token ~commit
                    end
                | None ->
                    (* we voted no (or never prepared): nothing to apply,
                       but remember the decision for idempotence *)
                    Rm.record_decision rm ~cid ~commit));
            Bus.send bus ~src:name ~dst:src (Ack { cid; rm = name })
        | Vote _ | Ack _ | Inquiry _ -> ()  (* coordinator-addressed *)
    in
    Bus.register bus name handle
end
