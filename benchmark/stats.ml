(* Order statistics over samples. Quantiles use the nearest-rank rule. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* Set-up is repeated at least five times, and up to fifteen while the
   repeats so far took under a second, and the median is reported. *)
let another_setup ~done_ ~elapsed = done_ < 5 || (done_ < 15 && elapsed < 1.)
