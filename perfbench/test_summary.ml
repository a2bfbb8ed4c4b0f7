(* Unit tests for the benchmark's summary statistics.  Expected quartiles
   are Python's statistics.quantiles(data, n=4) on the same data. *)

open Summary

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-12 *. (1. +. Float.abs b)

let quartiles_are name xs (e1, e2, e3) =
  let q1, q2, q3 = quartiles xs in
  check name (close q1 e1 && close q2 e2 && close q3 e3)

let () =
  quartiles_are "one sample" [ 1. ] (1., 1., 1.);
  quartiles_are "two samples extrapolate" [ 3.; 1. ] (0.5, 2., 3.5);
  quartiles_are "four samples" [ 1.; 2.; 3.; 4. ] (1.25, 2.5, 3.75);
  quartiles_are "five unsorted" [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3., 4.5);
  quartiles_are "ten samples"
    (List.init 10 (fun i -> float_of_int (i + 1)))
    (2.75, 5.5, 8.25);
  quartiles_are "seven samples"
    [ 2.5; 0.5; 9.0; 4.0; 7.25; 1.0; 3.0 ]
    (1.0, 3.0, 7.25);
  check "median odd" (median [ 3.; 1.; 2. ] = 2.);
  check "median even" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "median empty" (Float.is_nan (median []));
  check "lower half odd" (lower_half_median [ 9.; 1.; 3.; 2.; 8. ] = 2.);
  check "lower half even" (lower_half_median [ 4.; 1.; 3.; 2. ] = 1.5);
  check "lower half single" (lower_half_median [ 5. ] = 5.);
  check "spread constant" (rel_spread [ 2.; 2.; 2. ] = 0.);
  check "spread" (close (rel_spread [ 1.; 2.; 3.; 4. ]) (2.5 /. 2.5));
  check "geomean" (close (geomean [ 1.; 4.; 16. ]) 4.);
  check "geomean single" (close (geomean [ 7. ]) 7.);
  check "tail 19" (tail_permille 19 = None);
  check "tail 20" (tail_permille 20 = Some 500);
  check "tail 199" (tail_permille 199 = Some 900);
  check "tail 200" (tail_permille 200 = Some 950);
  check "tail 1000" (tail_permille 1000 = Some 990);
  check "tail 10000" (tail_permille 10000 = Some 999);
  let xs = List.init 200 (fun i -> float_of_int (i + 1)) in
  check "p95 of 1..200" (percentile xs ~permille:950 = 190.);
  check "p50 of 1..200" (percentile xs ~permille:500 = 100.);
  let v ?(better = Lower) ?(bound = 0.05) base cand =
    verdict ~better ~bound ~base ~cand
  in
  check "unchanged" (v [ 10.; 10.1; 9.9 ] [ 10.2; 10.; 10.1 ] = Unchanged);
  check "worse" (v [ 10.; 10.1; 9.9 ] [ 12.; 12.1; 11.9 ] = Worse);
  check "better" (v [ 10.; 10.1; 9.9 ] [ 8.; 8.1; 7.9 ] = Better);
  check "higher is better"
    (v ~better:Higher [ 10.; 10.1; 9.9 ] [ 8.; 8.1; 7.9 ] = Worse);
  check "unresolved"
    (v [ 10.; 14.; 6.; 10.; 10. ] [ 12.; 16.; 8.; 12.; 12. ] = Unresolved);
  check "wide but disjoint"
    (v [ 10.; 14.; 12.; 13.; 11. ] [ 5.; 7.; 6.; 9.; 8. ] = Better);
  check "exact bound"
    (v ~bound:0. [ 3.; 3. ] [ 3.; 3. ] = Unchanged
    && v ~bound:0. [ 3.; 3. ] [ 3.5; 3.5 ] = Worse);
  check "zero base" (v [ 0.; 0. ] [ 1.; 1. ] = Worse);
  if !failures > 0 then exit 1
