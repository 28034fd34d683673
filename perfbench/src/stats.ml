(* Order statistics and per-block normalisation used by every workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample such that at least [p]%
   of the samples are at or below it. *)
let rank ~n p =
  (* the epsilon keeps 99.9% of 10000 at rank 9990, not 9991 *)
  let r = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9)) in
  Int.max 1 (Int.min n r)

let percentile xs p =
  match xs with
  | [] -> None
  | _ :: _ ->
    let a = sorted xs in
    Some a.(rank ~n:(Array.length a) p - 1)

let median xs = percentile xs 50.

(* The ten-beyond rule: a tail percentile means something only when at
   least ten samples lie beyond its rank; with fewer it is one or two
   outliers, not a tail. [supported_tail] is the highest such percentile
   a run's sample count allows (every socket run prints it). *)
let beyond = 10

let supports ~n p = n - rank ~n p >= beyond

let candidate_tails = [ 99.9; 99.; 95.; 90.; 50. ]

let supported_tail ~n = List.find_opt (supports ~n) candidate_tails

let mean = function
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

(* Cost per block over a run: the sums are divided once, so an exchange
   that moved no block still charges its cost to the run, and one that
   moved two blocks is not counted twice as one. *)
let per_block ~cost ~blocks =
  let c = List.fold_left ( +. ) 0. cost in
  let b = List.fold_left ( + ) 0 blocks in
  if b = 0 then None else Some (c /. float_of_int b)
