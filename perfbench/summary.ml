(* Summary statistics for the benchmark: medians, quartiles, geometric
   means, the tail percentile a sample supports, and the verdict that
   [compare] gives for one metric.

   Quartiles follow Python's [statistics.quantiles values ~n:4] (its
   default "exclusive" method), so a spread computed here matches one
   computed by external tooling from the same samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Cut points of [statistics.quantiles data n=4]: (q1, q2, q3).  One
   sample gives it three times; no sample gives NaNs. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Median of the faster half: the median of the ceil(n/2) smallest
   samples.  Deterministic work can only be slowed by the host, so this
   ignores samples taken while the host was busy as long as they are at
   most half of the sample. *)
let lower_half_median xs =
  let d = sorted xs in
  median (Array.to_list (Array.sub d 0 ((Array.length d + 1) / 2)))

(* Inter-quartile range as a share of the median; 0 for a constant
   sample, infinite when a varying sample has median 0. *)
let rel_spread xs =
  let q1, m, q3 = quartiles xs in
  let iqr = q3 -. q1 in
  if iqr = 0. then 0. else if m = 0. then infinity else iqr /. Float.abs m

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Nearest-rank percentile of [xs] at [permille] / 1000. *)
let percentile xs ~permille =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then nan
  else
    let k = max 1 (((permille * n) + 999) / 1000) in
    d.(k - 1)

(* The highest of p50/p90/p95/p99/p99.9 that leaves at least ten
   samples beyond its nearest rank, as per mille; [None] below twenty
   samples. *)
let tail_permille n =
  List.find_opt
    (fun pm -> n - (((pm * n) + 999) / 1000) >= 10)
    [ 999; 990; 950; 900; 500 ]

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Verdict for [cand] against [base] (samples of one metric on one
   workload).  A spread wider than [bound] leaves the metric unresolved
   unless every candidate sample beats every base sample; otherwise the
   medians decide, with [bound] as the share of the base median either
   way that still counts as unchanged. *)
let verdict ~better ~bound ~base ~cand =
  let mb = median base and mc = median cand in
  let beats x y = match better with Lower -> x < y | Higher -> x > y in
  let all_better =
    base <> [] && List.for_all (fun c -> List.for_all (beats c) base) cand
  in
  let worse_by = match better with Lower -> mc -. mb | Higher -> mb -. mc in
  let rel =
    if worse_by = 0. then 0.
    else if mb = 0. then Float.copy_sign infinity worse_by
    else worse_by /. Float.abs mb
  in
  if Float.max (rel_spread base) (rel_spread cand) > bound then
    if all_better then Better else Unresolved
  else if rel > bound then Worse
  else if -.rel > bound then Better
  else Unchanged
