(* Order statistics of a run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. Float.of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. Float.of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let maximum xs = List.fold_left Float.max Float.neg_infinity xs

let minimum xs = List.fold_left Float.min Float.infinity xs

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. Float.of_int (List.length xs)
