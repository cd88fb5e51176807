exception Corrupt_page of {
  page : int;
  reason : string;
}

let () =
  Printexc.register_printer (function
    | Corrupt_page { page; reason } ->
        Some (Printf.sprintf "Pager.Corrupt_page(page %d: %s)" page reason)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE polynomial), private to the pager: the kv layer stays
   independent of the WAL library, so it carries its own checksum.  The
   table is built eagerly, as in [Crc32]: sharded runs use it from
   several domains. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 buf pos len =
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get buf i)))) 0xFFl) in
    c := Int32.logxor crc_table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)

module Page = struct
  let header = 16
  let slot_size = 6
  let lsn b = Int64.to_int (Bytes.get_int64_le b 4)
  let set_lsn b l = Bytes.set_int64_le b 4 (Int64.of_int l)
  let nslots b = Bytes.get_uint16_le b 12
  let set_nslots b n = Bytes.set_uint16_le b 12 n
  let cell_start b = Bytes.get_uint16_le b 14
  let set_cell_start b v = Bytes.set_uint16_le b 14 v

  let init b =
    Bytes.fill b 0 (Bytes.length b) '\000';
    set_cell_start b (Bytes.length b)

  let slot_pos i = header + (i * slot_size)

  let slot b i =
    let p = slot_pos i in
    (Bytes.get_uint16_le b p, Bytes.get_uint16_le b (p + 2), Bytes.get_uint16_le b (p + 4))

  let set_slot b i off klen vlen =
    let p = slot_pos i in
    Bytes.set_uint16_le b p off;
    Bytes.set_uint16_le b (p + 2) klen;
    Bytes.set_uint16_le b (p + 4) vlen

  let key_at b i =
    let off, klen, _ = slot b i in
    Bytes.sub_string b off klen

  let value_at b i =
    let off, klen, vlen = slot b i in
    Bytes.sub_string b (off + klen) vlen

  let find_slot b key =
    let n = nslots b in
    let rec go i = if i >= n then None else if String.equal (key_at b i) key then Some i else go (i + 1) in
    go 0

  let find b key = Option.map (value_at b) (find_slot b key)
  let entries b = List.init (nslots b) (fun i -> (key_at b i, value_at b i))

  let live_bytes b =
    let n = nslots b in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let _, klen, vlen = slot b i in
      total := !total + klen + vlen
    done;
    !total

  let free_space b = Bytes.length b - header - (nslots b * slot_size) - live_bytes b
  let contiguous b = cell_start b - header - (nslots b * slot_size)
  let capacity page_size = page_size - header

  let compact b =
    (* materialize the cells first: blitting in place while iterating the
       slot directory would overwrite cells not yet moved *)
    let es = entries b in
    let pos = ref (Bytes.length b) in
    List.iteri
      (fun i (k, v) ->
        let kl = String.length k and vl = String.length v in
        pos := !pos - kl - vl;
        Bytes.blit_string k 0 b !pos kl;
        Bytes.blit_string v 0 b (!pos + kl) vl;
        set_slot b i !pos kl vl)
      es;
    set_cell_start b !pos

  let remove b key =
    match find_slot b key with
    | None -> false
    | Some i ->
        let n = nslots b in
        (* last slot fills the hole (order is not part of the contract);
           the cell bytes become a hole reclaimed by the next compaction *)
        if i < n - 1 then begin
          let off, kl, vl = slot b (n - 1) in
          set_slot b i off kl vl
        end;
        set_nslots b (n - 1);
        true

  let insert b key value =
    ignore (remove b key);
    let kl = String.length key and vl = String.length value in
    let need = kl + vl in
    if need + slot_size > free_space b then false
    else begin
      if need + slot_size > contiguous b then compact b;
      let n = nslots b in
      let pos = cell_start b - need in
      Bytes.blit_string key 0 b pos kl;
      Bytes.blit_string value 0 b (pos + kl) vl;
      set_slot b n pos kl vl;
      set_nslots b (n + 1);
      set_cell_start b pos;
      true
    end
end

(* ------------------------------------------------------------------ *)
(* The page file. *)

let file_header = 16
let magic = "TPMPAGE1"

type t = {
  fd : Unix.file_descr;
  fpath : string;
  psize : int;
  mutable next_page : int;  (* allocation high-water mark, >= disk extent *)
  mutable closed : bool;
}

let check_open t op = if t.closed then invalid_arg (Printf.sprintf "Pager.%s: file is closed" op)
let page_size t = t.psize
let path t = t.fpath
let page_offset t pid = file_header + (pid * t.psize)

let file_bytes t = (Unix.fstat t.fd).Unix.st_size

let disk_pages t =
  let data = file_bytes t - file_header in
  if data <= 0 then 0 else (data + t.psize - 1) / t.psize

let npages t =
  check_open t "npages";
  max t.next_page (disk_pages t)

let alloc t =
  check_open t "alloc";
  let pid = npages t in
  t.next_page <- pid + 1;
  pid

let pwrite_all fd off bytes =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd bytes !written (len - !written)
  done

let pread_upto fd off bytes =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let len = Bytes.length bytes in
  let got = ref 0 and eof = ref false in
  while (not !eof) && !got < len do
    let n = Unix.read fd bytes !got (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

let create ?(page_size = 4096) fpath =
  if page_size < 128 || page_size > 32768 then
    invalid_arg "Pager.create: page_size must be within 128..32768";
  let fd = Unix.openfile fpath [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let hdr = Bytes.make file_header '\000' in
  Bytes.blit_string magic 0 hdr 0 (String.length magic);
  Bytes.set_uint16_le hdr 8 page_size;
  pwrite_all fd 0 hdr;
  { fd; fpath; psize = page_size; next_page = 0; closed = false }

let open_ fpath =
  let fd = Unix.openfile fpath [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644 in
  let hdr = Bytes.create file_header in
  let got = pread_upto fd 0 hdr in
  if got < file_header || not (String.equal (Bytes.sub_string hdr 0 (String.length magic)) magic)
  then begin
    Unix.close fd;
    raise (Corrupt_page { page = -1; reason = "damaged page-file header" })
  end;
  let psize = Bytes.get_uint16_le hdr 8 in
  if psize < 128 || psize > 32768 then begin
    Unix.close fd;
    raise (Corrupt_page { page = -1; reason = Printf.sprintf "implausible page size %d" psize })
  end;
  let t = { fd; fpath; psize; next_page = 0; closed = false } in
  t.next_page <- disk_pages t;
  t

let all_zero b =
  let n = Bytes.length b in
  let rec go i = i >= n || (Bytes.get b i = '\000' && go (i + 1)) in
  go 0

let read_result t pid =
  check_open t "read";
  let buf = Bytes.create t.psize in
  let got = pread_upto t.fd (page_offset t pid) buf in
  if got = 0 then begin
    (* past the extent: an [alloc] never flushed, legitimately empty *)
    Page.init buf;
    Ok buf
  end
  else if got < t.psize then Error "short page (torn write or truncated file)"
  else if all_zero buf then begin
    (* a hole left by writes past this page: also never flushed *)
    Page.init buf;
    Ok buf
  end
  else begin
    let stored = Bytes.get_int32_le buf 0 in
    if crc32 buf 4 (t.psize - 4) <> stored then Error "page crc mismatch"
    else
      let ns = Page.nslots buf and cs = Page.cell_start buf in
      if Page.header + (ns * Page.slot_size) > cs || cs > t.psize then
        Error "implausible page header"
      else Ok buf
  end

let read t pid =
  match read_result t pid with
  | Ok buf -> buf
  | Error reason -> raise (Corrupt_page { page = pid; reason })

let write t pid buf =
  check_open t "write";
  if Bytes.length buf <> t.psize then invalid_arg "Pager.write: buffer is not one page";
  Bytes.set_int32_le buf 0 (crc32 buf 4 (t.psize - 4));
  pwrite_all t.fd (page_offset t pid) buf;
  if pid >= t.next_page then t.next_page <- pid + 1

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end
