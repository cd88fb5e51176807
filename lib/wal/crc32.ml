(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven.
   Every WAL frame carries one over its payload: a single flipped bit
   anywhere in the record is guaranteed to be detected (CRC-32 detects
   all 1- and 2-bit errors and any burst up to 32 bits), so a damaged
   record can never unmarshal into a wrong-but-valid value. *)

(* built eagerly: forcing a shared lazy from two domains at once raises
   [CamlinternalLazy.Undefined], and sharded runs log from several *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let update crc s ~pos ~len =
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx = (Int32.to_int (Int32.logand !c 0xFFl) lxor Char.code s.[i]) land 0xFF in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let string s = update 0l s ~pos:0 ~len:(String.length s)
