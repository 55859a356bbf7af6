(* Order statistics for the benchmark's timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let min_beyond = 10

(* Nearest-rank percentile [p] (in percent). A percentile is only as
   steady as the samples above it, so it is refused ([None]) unless at
   least [min_beyond] samples lie beyond its rank: p50 needs 20
   samples, p90 needs 100 and p99 needs 1,000. *)
let percentile ~p xs =
  if p <= 0 || p >= 100 then invalid_arg "Pct.percentile: p outside (0, 100)";
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (((p * n) + 99) / 100) in
  if n - rank < min_beyond then None else Some a.(rank - 1)
