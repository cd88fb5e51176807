(* Sample statistics and metric records shared by the benchmark and its
   tests.  Percentiles are nearest-rank; a percentile is reported only when
   at least [min_beyond] samples lie beyond it, so a tail figure always
   rests on a tail of real samples. *)

let min_beyond = 10

(* 1-based nearest rank of percentile [p] (in [0, 1]) among [n] samples *)
let rank p n = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank p n - 1)

(* samples strictly after the nearest-rank position of [p] *)
let beyond p n = if n = 0 then 0 else n - rank p n
let reportable p n = beyond p n >= min_beyond
let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* the earlier and the later half of a sequence (the middle sample of an
   odd count belongs to neither) *)
let halves xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = n / 2 in
  (Array.to_list (Array.sub a 0 k), Array.to_list (Array.sub a (n - k) k))

(* how much slower the end of the sequences ran than their start: the
   mean of every later half over the mean of every earlier half *)
let growth seqs =
  let earlier, later = List.split (List.map halves seqs) in
  mean (List.concat later) /. mean (List.concat earlier)

let ratio num den = if den = 0.0 then 0.0 else num /. den
let per n x = ratio (float_of_int x) (float_of_int n)

(* metric names as the result line carries them *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  String.length s > 0 && String.length s <= 64 && alnum s.[0] && String.for_all ok_char s

type clock = Wall | Virtual | Count

let clock_label = function Wall -> "wall" | Virtual -> "virtual" | Count -> "-"

type metric = {
  name : string;
  value : float;
  unit_ : string;
  clock : clock;
}

let metric ?(clock = Wall) name unit_ value = { name; value; unit_; clock }

(* JSON number: full precision, never nan/inf (those become 0 and are
   flagged by the caller's correctness gate instead) *)
let json_number x = if Float.is_finite x then Printf.sprintf "%.12g" x else "0"
