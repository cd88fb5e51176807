(* Disjoint-set forest with union by rank and path halving over the
   dense ints [0 .. n-1].  The shard partition unions conflict-matrix
   rows and per-process service bundles with it, so both operations must
   stay effectively O(α). *)

type t = { parent : int array; rank : int array }

let create n = { parent = Array.init n Fun.id; rank = Array.make n 0 }

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    (* path halving: point at the grandparent on the way up *)
    let g = t.parent.(p) in
    t.parent.(i) <- g;
    if g = p then p else find t g
  end

let union t i j =
  let ri = find t i and rj = find t j in
  if ri <> rj then
    if t.rank.(ri) < t.rank.(rj) then t.parent.(ri) <- rj
    else if t.rank.(ri) > t.rank.(rj) then t.parent.(rj) <- ri
    else begin
      t.parent.(rj) <- ri;
      t.rank.(ri) <- t.rank.(ri) + 1
    end
