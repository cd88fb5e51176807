type record =
  | Process_registered of int
  | Invoked of {
      pid : int;
      act : int;
    }
  | Prepared of {
      pid : int;
      act : int;
    }
  | Prepared_decided of {
      pid : int;
      act : int;
      commit : bool;
    }
  | Compensated of {
      pid : int;
      act : int;
    }
  | Commit_requested of int
  | Process_committed of int
  | Abort_requested of int
  | Process_aborted of int
  | Ckpt_begin of { ckpt : int }
  | Ckpt_end of {
      ckpt : int;
      committed : int list;
      aborted : int list;
    }
  | Coord_begin of {
      cid : int;
      pid : int;
      act : int;
      parts : string list;
    }
  | Coord_committed of {
      cid : int;
      pid : int;
    }
  | Coord_forgotten of {
      cid : int;
      pid : int;
    }
  (* The two page-store record kinds are appended at the end of the
     variant on purpose: Marshal encodes constructors by tag, so adding
     them anywhere else would silently re-tag every record kind after
     the insertion point and make existing on-disk logs unreadable. *)
  | Kv_write of {
      rm : string;
      key : string;
      value : string option;  (* marshaled Value.t; None = delete *)
    }
  | Dirty_pages of {
      rm : string;
      pages : (int * int) list;  (* (page id, rec_lsn) *)
    }

(* Under [Sync_each], the records that witness an effect (an activity,
   a compensation, a 2PC vote or decision) or decide an outcome (a
   termination, a checkpoint) force the log when appended.  The rest
   stay buffered until the next forcing record's fsync, which covers the
   whole prefix.  Most are read by no recovery path ([Process_registered]
   only names a process; losing it with no later effect leaves the plan
   unchanged).  [Kv_write] is read by page redo, but it rides its
   witness's fsync:
   - every local commit's [Kv_write]s are followed, in the same
     synchronous block, by a forcing witness: [Rm.invoke] by [Invoked],
     [Rm.compensate] by [Compensated], [Rm.commit_prepared] by
     [Prepared_decided];
   - the buffer pool's WAL rule still forces the log before a page that
     carries an unforced [Kv_write] reaches disk;
   - so a crash before the witness loses the writes with the witness,
     and page redo rebuilds the store from what is durable.  (If a
     WAL-rule sync made some of the writes durable first, the image is
     the one a crash just after those writes leaves under any policy.)
   [Dirty_pages] keeps forcing: it rides with checkpoints. *)
let forces = function
  | Invoked _ | Prepared _ | Prepared_decided _ | Compensated _ | Process_committed _
  | Process_aborted _ | Ckpt_end _ | Coord_begin _ | Coord_committed _ | Dirty_pages _ ->
      true
  | Process_registered _ | Commit_requested _ | Abort_requested _ | Ckpt_begin _
  | Coord_forgotten _ | Kv_write _ -> false

type sync_policy =
  | No_sync
  | Sync_each
  | Group of float

(* ------------------------------------------------------------------ *)
(* On-disk frame format: len(4, LE) ∥ crc32(payload)(4, LE) ∥ payload.
   Record boundaries come from the explicit length prefix — never from
   the marshal header — and the CRC makes a bit-flipped payload a
   detected corruption instead of a wrong-but-valid record.  The log is
   a sequence of segment files [base.NNNN.seg]; appends never span a
   segment boundary, so an incomplete record can only legitimately sit
   at the tail of the *last* segment (a torn write: the crash cut the
   append short).  Anywhere else it is damage. *)

let frame_header = 8
let max_record_bytes = 1 lsl 28

(* Segment seal: 8 trailer bytes (len = -1 sentinel ∥ magic) written when
   a segment rolls.  A non-final segment that does not end in its seal
   lost bytes — without the seal, truncating a middle segment exactly at
   a frame boundary would load cleanly and silently drop the records
   between the cut and the next segment. *)
let seal_magic = "TPMS"
let seal_bytes = "\xff\xff\xff\xff" ^ seal_magic

let get_u32_le s pos =
  let b i = Int32.of_int (Char.code s.[pos + i]) in
  Int32.logor (b 0)
    (Int32.logor
       (Int32.shift_left (b 1) 8)
       (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))

let put_u32_le b pos v =
  let byte i = Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * i)) 0xFFl)) in
  for i = 0 to 3 do
    Bytes.set b (pos + i) (byte i)
  done

let frame record =
  let payload = Marshal.to_string record [] in
  let len = String.length payload in
  let b = Bytes.create (frame_header + len) in
  put_u32_le b 0 (Int32.of_int len);
  put_u32_le b 4 (Crc32.string payload);
  Bytes.blit_string payload 0 b frame_header len;
  Bytes.unsafe_to_string b

let seg_path base i = Printf.sprintf "%s.%04d.seg" base i

let existing_segments base =
  let dir = Filename.dirname base and name = Filename.basename base in
  let prefix = name ^ "." and suffix = ".seg" in
  let plen = String.length prefix and slen = String.length suffix in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             if
               String.length e > plen + slen
               && String.sub e 0 plen = prefix
               && Filename.check_suffix e suffix
             then
               match int_of_string_opt (String.sub e plen (String.length e - plen - slen)) with
               | Some i -> Some (i, Filename.concat dir e)
               | None -> None
             else None)
      |> List.sort compare

let segment_files base = List.map snd (existing_segments base)

let file_size p =
  let ic = open_in_bin p in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> in_channel_length ic)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)

type disk = {
  base : string;
  segment_bytes : int;
  mutable seg : int;
  mutable oc : out_channel;
  mutable seg_bytes : int;  (* bytes written (possibly still buffered) to the current segment *)
  mutable pending : int;  (* records appended since the last fsync *)
  mutable acked_records : int;  (* records some fsync claimed durable *)
  mutable durable_records : int;  (* records an honest disk actually holds *)
  mutable durable_seg : int;  (* honest durable byte position: a lying *)
  mutable durable_off : int;  (* fsync acks without advancing it *)
  mutable fsyncs : int;
  mutable max_batch : int;
  mutable lie : unit -> bool;
  mutable on_sync : int -> unit;
  mutable closed : bool;
}

type t = {
  mutable rev_records : record list;
  mutable count : int;
  policy : sync_policy;
  disk : disk option;
}

type stats = {
  fsyncs : int;
  acked_records : int;
  durable_records : int;
  max_batch : int;
  segments : int;
}

let open_segment base i =
  (* O_APPEND, never O_TRUNC: even a buggy double-open cannot clobber
     bytes already written *)
  open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 (seg_path base i)

let create ?path ?(sync = Sync_each) ?(segment_bytes = 1 lsl 20) ?(fresh = false) () =
  (match sync with
  | Group w when w < 0.0 -> invalid_arg "Wal.create: negative group-commit window"
  | _ -> ());
  if segment_bytes < 64 then invalid_arg "Wal.create: segment_bytes must be >= 64";
  let disk =
    Option.map
      (fun base ->
        let existing = existing_segments base in
        if fresh then List.iter (fun (_, p) -> Sys.remove p) existing
        else begin
          (* Reopening a path that already holds durable records would
             destroy the only copy of the log.  Refuse loudly: recovery
             reads the old log first, and a genuinely new log belongs at
             a new path (or behind an explicit [~fresh:true]). *)
          if List.exists (fun (_, p) -> file_size p > 0) existing then
            invalid_arg
              (Printf.sprintf
                 "Wal.create: %s already holds a log (%d segment(s)); pass ~fresh:true to \
                  discard it deliberately, or recover from it first"
                 base (List.length existing));
          if Sys.file_exists base && not (Sys.is_directory base) && file_size base > 0 then
            invalid_arg
              (Printf.sprintf "Wal.create: %s is nonempty (pre-existing log?); refusing to reuse"
                 base);
          (* stale empty segments from an aborted create are harmless *)
          List.iter (fun (_, p) -> Sys.remove p) existing
        end;
        {
          base;
          segment_bytes;
          seg = 0;
          oc = open_segment base 0;
          seg_bytes = 0;
          pending = 0;
          acked_records = 0;
          durable_records = 0;
          durable_seg = 0;
          durable_off = 0;
          fsyncs = 0;
          max_batch = 0;
          lie = (fun () -> false);
          on_sync = ignore;
          closed = false;
        })
      path
  in
  { rev_records = []; count = 0; policy = sync; disk }

let sync_disk ?(force = false) d =
  if d.closed || (d.pending = 0 && not force) then 0
  else begin
    flush d.oc;
    Unix.fsync (Unix.descr_of_out_channel d.oc);
    let batch = d.pending in
    d.pending <- 0;
    d.fsyncs <- d.fsyncs + 1;
    d.acked_records <- d.acked_records + batch;
    if batch > d.max_batch then d.max_batch <- batch;
    (* a lying fsync acknowledges the batch without the bytes actually
       reaching stable storage: the honest durable marker stays put, and
       [crash_image] will truncate back to it *)
    if not (d.lie ()) then begin
      d.durable_records <- d.acked_records;
      d.durable_seg <- d.seg;
      d.durable_off <- d.seg_bytes
    end;
    d.on_sync batch;
    batch
  end

let roll d =
  (* seal, then force the sync even if no records are pending: the seal
     itself must be durable before the next segment opens, or a crash
     image could present a clean-looking but short middle segment *)
  output_string d.oc seal_bytes;
  d.seg_bytes <- d.seg_bytes + String.length seal_bytes;
  ignore (sync_disk ~force:true d);
  close_out d.oc;
  let sealed = d.durable_seg = d.seg && d.durable_off = d.seg_bytes in
  d.seg <- d.seg + 1;
  d.oc <- open_segment d.base d.seg;
  d.seg_bytes <- 0;
  (* a durable seal makes the new, empty segment the log's durable tail:
     a crash before its first fsync leaves that empty file, where a torn
     write lands, rather than a sealed segment with bytes after the seal *)
  if sealed then begin
    d.durable_seg <- d.seg;
    d.durable_off <- 0
  end

let append t record =
  (* durability first: the framed record reaches the log — and, under
     [Sync_each] (the default), an fsync if it [forces] — before it is
     applied in memory.  [No_sync] and [Group _] deliberately trade that
     away: the record is buffered and the caller is acknowledged only
     when a later batched fsync covers it. *)
  (match t.disk with
  | Some d ->
      if d.closed then invalid_arg "Wal.append: log is closed";
      let f = frame record in
      let n = String.length f in
      if d.seg_bytes > 0 && d.seg_bytes + n > d.segment_bytes then roll d;
      output_string d.oc f;
      d.seg_bytes <- d.seg_bytes + n;
      d.pending <- d.pending + 1;
      (match t.policy with
      | Sync_each when forces record -> ignore (sync_disk d)
      | Sync_each | No_sync | Group _ -> ())
  | None -> ());
  t.rev_records <- record :: t.rev_records;
  t.count <- t.count + 1

let sync t = match t.disk with None -> 0 | Some d -> sync_disk d
let pending t = match t.disk with None -> 0 | Some d -> d.pending
let set_on_sync t f = match t.disk with None -> () | Some d -> d.on_sync <- f
let set_lie_probe t f = match t.disk with None -> () | Some d -> d.lie <- f

let stats t =
  match t.disk with
  | None ->
      { fsyncs = 0; acked_records = t.count; durable_records = t.count; max_batch = 0; segments = 0 }
  | Some d ->
      {
        fsyncs = d.fsyncs;
        acked_records = d.acked_records;
        durable_records = d.durable_records;
        max_batch = d.max_batch;
        segments = d.seg + 1;
      }

let records t = List.rev t.rev_records
let size t = t.count

let close t =
  match t.disk with
  | None -> ()
  | Some d ->
      if not d.closed then begin
        ignore (sync_disk d);
        close_out d.oc;
        d.closed <- true
      end

let crash_image t =
  match t.disk with
  | None -> ()
  | Some d ->
      if not d.closed then begin
        (try close_out d.oc with Sys_error _ -> ());
        d.closed <- true
      end;
      (* power loss: everything past the honest durable point vanishes,
         including batches a lying fsync acknowledged *)
      List.iter
        (fun (i, p) ->
          if i > d.durable_seg then Sys.remove p
          else if i = d.durable_seg && file_size p > d.durable_off then
            Unix.truncate p d.durable_off)
        (existing_segments d.base)

(* ------------------------------------------------------------------ *)
(* Loading and anomaly classification. *)

type anomaly =
  | Torn_tail of {
      segment : int;
      offset : int;
    }
  | Corrupt_record of {
      segment : int;
      index : int;
      offset : int;
      reason : string;
    }
  | Missing_segment of { segment : int }
  | Short_segment of {
      segment : int;
      offset : int;
    }

let pp_anomaly fmt = function
  | Torn_tail { segment; offset } ->
      Format.fprintf fmt "torn-tail(seg %d @%d)" segment offset
  | Corrupt_record { segment; index; offset; reason } ->
      Format.fprintf fmt "corrupt(seg %d, record %d @%d: %s)" segment index offset reason
  | Missing_segment { segment } -> Format.fprintf fmt "missing-segment(%d)" segment
  | Short_segment { segment; offset } ->
      Format.fprintf fmt "short-segment(%d @%d)" segment offset

type load_policy =
  | Fail_stop
  | Salvage

type load_report = {
  records : record list;
  anomalies : anomaly list;
  quarantined_bytes : int;
  extents : (int * int * int) list;
}

exception Corrupt of {
  segment : int;
  index : int;
  reason : string;
}

let () =
  Printexc.register_printer (function
    | Corrupt { segment; index; reason } ->
        Some (Printf.sprintf "Wal.Corrupt(segment %d, record %d: %s)" segment index reason)
    | _ -> None)

let load ?(policy = Fail_stop) base =
  let segs = existing_segments base in
  let last_seg = List.fold_left (fun _ (i, _) -> i) (-1) segs in
  let records = ref [] and extents = ref [] in
  let anomalies = ref [] and quarantined = ref 0 in
  let index = ref 0 in
  let anomaly a = anomalies := a :: !anomalies in
  (* Corrupt-class damage (anything but a torn tail of the last segment):
     fail-stop raises immediately — truncating there would silently
     shrink the recovery plan; salvage records the anomaly, quarantines
     the rest of the segment and resumes at the next segment boundary
     (the only place re-synchronization is sound: a damaged length
     prefix poisons every frame boundary after it). *)
  let damage ~segment ~bytes_lost a =
    (match (policy, a) with
    | Fail_stop, Corrupt_record { index; reason; _ } -> raise (Corrupt { segment; index; reason })
    | Fail_stop, Missing_segment _ ->
        raise (Corrupt { segment; index = !index; reason = "segment file missing" })
    | Fail_stop, Short_segment _ ->
        raise
          (Corrupt
             { segment; index = !index; reason = "segment ends mid-record (not the log tail)" })
    | Fail_stop, Torn_tail _ | Salvage, _ -> ());
    anomaly a;
    quarantined := !quarantined + bytes_lost
  in
  let next = ref 0 in
  List.iter
    (fun (s, path) ->
      for missing = !next to s - 1 do
        damage ~segment:missing ~bytes_lost:0 (Missing_segment { segment = missing })
      done;
      next := s + 1;
      let bytes = read_file path in
      let n = String.length bytes in
      let is_last = s = last_seg in
      let pos = ref 0 and stop = ref false and sealed = ref false in
      let tail reason_offset =
        (* an incomplete frame: a torn write if this is the log's tail,
           damage anywhere else *)
        if is_last then anomaly (Torn_tail { segment = s; offset = reason_offset })
        else
          damage ~segment:s ~bytes_lost:(n - reason_offset)
            (Short_segment { segment = s; offset = reason_offset });
        stop := true
      in
      let corrupt reason =
        damage ~segment:s ~bytes_lost:(n - !pos)
          (Corrupt_record { segment = s; index = !index; offset = !pos; reason });
        stop := true
      in
      while (not !stop) && !pos < n do
        if n - !pos < frame_header then tail !pos
        else if get_u32_le bytes !pos = -1l then
          (* candidate segment seal (the -1 length sentinel can never be a
             record: real lengths are bounded by [max_record_bytes]) *)
          if String.sub bytes (!pos + 4) 4 = seal_magic then begin
            sealed := true;
            pos := !pos + frame_header;
            if !pos < n then corrupt "bytes after segment seal" else stop := true
          end
          else corrupt "damaged segment seal"
        else
          let len = Int32.to_int (get_u32_le bytes !pos) in
          let crc = get_u32_le bytes (!pos + 4) in
          if len < 0 || len > max_record_bytes then
            (* a length this implausible cannot be a torn write of ours:
               frames are written length-first and atomically buffered *)
            corrupt (Printf.sprintf "implausible record length %d" len)
          else if n - !pos - frame_header < len then tail !pos
          else
            let payload = String.sub bytes (!pos + frame_header) len in
            if Crc32.string payload <> crc then corrupt "crc mismatch"
            else
              match (Marshal.from_string payload 0 : record) with
              | exception _ -> corrupt "crc ok but payload does not unmarshal"
              | r ->
                  records := r :: !records;
                  extents := (s, !pos, frame_header + len) :: !extents;
                  incr index;
                  pos := !pos + frame_header + len
      done;
      (* every segment that was rolled past ends in its seal; a non-final
         segment without one lost its tail — even if every surviving
         frame parses, records between the cut and the next segment are
         gone, and that must never look clean *)
      if (not is_last) && (not !sealed) && not !stop then
        damage ~segment:s ~bytes_lost:0 (Short_segment { segment = s; offset = n }))
    segs;
  {
    records = List.rev !records;
    anomalies = List.rev !anomalies;
    quarantined_bytes = !quarantined;
    extents = List.rev !extents;
  }

let load_records path = (load ~policy:Fail_stop path).records

(* ------------------------------------------------------------------ *)
(* Byte-level disk-fault injection primitives (test/sweep harnesses). *)

module Chaos = struct
  let flip_bit ~path ~byte ~bit =
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let b = Bytes.create 1 in
        ignore (Unix.lseek fd byte Unix.SEEK_SET);
        if Unix.read fd b 0 1 <> 1 then invalid_arg "Chaos.flip_bit: offset past end of file";
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl (bit land 7))));
        ignore (Unix.lseek fd byte Unix.SEEK_SET);
        ignore (Unix.write fd b 0 1))

  let truncate ~path ~bytes = Unix.truncate path bytes

  let copy ~src ~dst =
    let data = read_file src in
    let oc = open_out_bin dst in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc data)
end

(* ------------------------------------------------------------------ *)

let pp_record fmt = function
  | Process_registered pid -> Format.fprintf fmt "register(P_%d)" pid
  | Invoked { pid; act } -> Format.fprintf fmt "invoked(a_{%d_%d})" pid act
  | Prepared { pid; act } -> Format.fprintf fmt "prepared(a_{%d_%d})" pid act
  | Prepared_decided { pid; act; commit } ->
      Format.fprintf fmt "decided(a_{%d_%d}, %s)" pid act (if commit then "commit" else "abort")
  | Compensated { pid; act } -> Format.fprintf fmt "compensated(a_{%d_%d})" pid act
  | Commit_requested pid -> Format.fprintf fmt "commit-requested(P_%d)" pid
  | Process_committed pid -> Format.fprintf fmt "C_%d" pid
  | Abort_requested pid -> Format.fprintf fmt "abort-requested(P_%d)" pid
  | Process_aborted pid -> Format.fprintf fmt "A_%d" pid
  | Ckpt_begin { ckpt } -> Format.fprintf fmt "ckpt-begin(#%d)" ckpt
  | Ckpt_end { ckpt; committed; aborted } ->
      let pp_ints =
        Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",") Format.pp_print_int
      in
      Format.fprintf fmt "ckpt-end(#%d; committed: %a; aborted: %a)" ckpt pp_ints committed
        pp_ints aborted
  | Coord_begin { cid; pid; act; parts } ->
      Format.fprintf fmt "coord-begin(c%d, a_{%d_%d}, [%s])" cid pid act
        (String.concat "," parts)
  | Coord_committed { cid; pid } -> Format.fprintf fmt "coord-committed(c%d, P_%d)" cid pid
  | Coord_forgotten { cid; pid } -> Format.fprintf fmt "coord-forgotten(c%d, P_%d)" cid pid
  | Kv_write { rm; key; value } ->
      Format.fprintf fmt "kv-write(%s, %s%s)" rm key
        (match value with Some _ -> "" | None -> ", delete")
  | Dirty_pages { rm; pages } ->
      Format.fprintf fmt "dirty-pages(%s, [%s])" rm
        (String.concat ","
           (List.map (fun (page, rec_lsn) -> Printf.sprintf "%d@%d" page rec_lsn) pages))

let record_pids = function
  | Process_registered pid
  | Commit_requested pid
  | Process_committed pid
  | Abort_requested pid
  | Process_aborted pid -> [ pid ]
  | Invoked { pid; _ } | Prepared { pid; _ } | Prepared_decided { pid; _ }
  | Compensated { pid; _ } -> [ pid ]
  | Coord_begin { pid; _ } | Coord_committed { pid; _ } | Coord_forgotten { pid; _ } ->
      [ pid ]
  | Ckpt_begin _ | Ckpt_end _ | Kv_write _ | Dirty_pages _ -> []

let compact records =
  (* The last *complete* checkpoint decides the cut: its [Ckpt_end]
     cuts at the matching [Ckpt_begin] — records appended while the
     checkpoint was being taken sit inside the span and must survive
     compaction.  A dangling [Ckpt_end] with no surviving begin cuts at
     its own position. *)
  let begins = Hashtbl.create 4 in
  let last =
    List.fold_left
      (fun (i, acc) r ->
        let acc =
          match r with
          | Ckpt_begin { ckpt } ->
              Hashtbl.replace begins ckpt i;
              acc
          | Ckpt_end { ckpt; committed; aborted } ->
              Some (Option.value ~default:i (Hashtbl.find_opt begins ckpt), committed @ aborted)
          | _ -> acc
        in
        (i + 1, acc))
      (0, None) records
    |> snd
  in
  match last with
  | None -> records
  | Some (cut, closed) ->
      (* hash-set membership: the old per-record [List.mem] over the
         closed pids made compaction quadratic in checkpoint width *)
      let closed_set = Hashtbl.create (List.length closed) in
      List.iter (fun pid -> Hashtbl.replace closed_set pid ()) closed;
      List.filteri
        (fun i r ->
          match r with
          (* [Dirty_pages] describes the buffer pool at the instant it was
             logged; only the latest one matters and it rides with the
             checkpoint that emitted it, so stale ones compact away like
             the checkpoint records.  [Kv_write] falls to the default
             branch: its pid set is empty, so it is always kept — page
             redo needs positional LSNs, which only the uncompacted log
             preserves (see the [compact] doc). *)
          | Ckpt_begin _ | Ckpt_end _ | Dirty_pages _ -> i >= cut
          | _ ->
              i > cut
              || not (List.exists (fun pid -> Hashtbl.mem closed_set pid) (record_pids r)))
        records
