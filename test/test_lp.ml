(* Tests for the LP substrate: bigint/rational arithmetic, the two simplex
   implementations (exact dense reference vs production revised dual), the
   presolver, and branch & bound. *)

open Lp

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Row [i]'s terms, in the order the problem stores them. *)
let row_terms p i =
  List.init
    (Problem.row_end p i - Problem.row_begin p i)
    (fun k ->
      let k = Problem.row_begin p i + k in
      (Problem.term_var p k, Problem.term_coef p k))

(* ------------------------------------------------------------------ *)
(* Bigint                                                              *)
(* ------------------------------------------------------------------ *)

let test_bigint_basic () =
  let open Bigint in
  checks "to_string" "0" (to_string zero);
  checks "of_int round trip" "123456789" (to_string (of_int 123456789));
  checks "negative" "-42" (to_string (of_int (-42)));
  checks "add" "300" (to_string (add (of_int 100) (of_int 200)));
  checks "sub crossing zero" "-50" (to_string (sub (of_int 100) (of_int 150)));
  checks "mul" "-600" (to_string (mul (of_int 30) (of_int (-20))));
  checki "compare" (-1) (compare (of_int 3) (of_int 5));
  checki "to_int" 77 (to_int_exn (of_int 77))

let test_bigint_large () =
  let open Bigint in
  (* (2^100 + 1) * (2^100 - 1) = 2^200 - 1 *)
  let p100 =
    let two = of_int 2 in
    let rec go acc n = if n = 0 then acc else go (mul acc two) (n - 1) in
    go one 100
  in
  let a = add p100 one and b = sub p100 one in
  let prod = mul a b in
  let p200 = mul p100 p100 in
  checkb "2^200-1" true (equal prod (sub p200 one));
  (* division round trip *)
  let q, r = divmod p200 a in
  checkb "divmod identity" true (equal p200 (add (mul q a) r));
  checkb "remainder small" true (compare (abs r) (abs a) < 0)

let test_bigint_string_roundtrip () =
  let open Bigint in
  let s = "123456789012345678901234567890123456789" in
  checks "roundtrip" s (to_string (of_string s));
  checks "negative roundtrip" ("-" ^ s) (to_string (of_string ("-" ^ s)))

let test_bigint_extremes () =
  let open Bigint in
  checks "min_int" (string_of_int min_int) (to_string (of_int min_int));
  checks "max_int" (string_of_int max_int) (to_string (of_int max_int));
  checks "min+max" "-1" (to_string (add (of_int min_int) (of_int max_int)));
  checkb "min_int no native roundtrip overflow" true
    (match to_int_opt (of_int max_int) with Some v -> v = max_int | None -> false)

let test_bigint_gcd () =
  let open Bigint in
  checks "gcd" "6" (to_string (gcd (of_int 54) (of_int 24)));
  checks "gcd with zero" "7" (to_string (gcd zero (of_int 7)));
  checks "gcd negatives" "4" (to_string (gcd (of_int (-12)) (of_int 8)))

let bigint_qcheck =
  let gen = QCheck.int_range (-1_000_000) 1_000_000 in
  [
    QCheck.Test.make ~name:"bigint add/sub agree with int" ~count:500
      (QCheck.pair gen gen) (fun (a, b) ->
        let open Bigint in
        to_int_exn (add (of_int a) (of_int b)) = a + b
        && to_int_exn (sub (of_int a) (of_int b)) = a - b);
    QCheck.Test.make ~name:"bigint mul agrees with int" ~count:500
      (QCheck.pair gen gen) (fun (a, b) ->
        Bigint.(to_int_exn (mul (of_int a) (of_int b))) = a * b);
    QCheck.Test.make ~name:"bigint divmod agrees with int" ~count:500
      (QCheck.pair gen (QCheck.int_range 1 100_000)) (fun (a, b) ->
        let q, r = Bigint.(divmod (of_int a) (of_int b)) in
        Bigint.to_int_exn q = a / b && Bigint.to_int_exn r = a mod b);
    QCheck.Test.make ~name:"bigint mul assoc (large)" ~count:200
      (QCheck.triple gen gen gen) (fun (a, b, c) ->
        let open Bigint in
        let big x = mul (of_int x) (of_int 1_000_000_007) in
        equal (mul (big a) (mul (big b) (big c)))
          (mul (mul (big a) (big b)) (big c)));
  ]

(* ------------------------------------------------------------------ *)
(* Rat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rat_basic () =
  let open Rat in
  checks "normalization" "1/2" (to_string (of_ints 2 4));
  checks "negative denominator" "-1/3" (to_string (of_ints 1 (-3)));
  checks "add" "5/6" (to_string (add (of_ints 1 2) (of_ints 1 3)));
  checks "mul" "1/3" (to_string (mul (of_ints 2 3) (of_ints 1 2)));
  checks "div" "3/2" (to_string (div (of_ints 1 2) (of_ints 1 3)));
  checkb "compare" true (compare (of_ints 1 3) (of_ints 1 2) < 0);
  checkb "floor" true (Bigint.equal (floor (of_ints (-7) 2)) (Bigint.of_int (-4)));
  checkb "ceil" true (Bigint.equal (ceil (of_ints 7 2)) (Bigint.of_int 4))

let test_rat_of_float () =
  let open Rat in
  checks "exact small int" "42" (to_string (of_float 42.));
  checks "half" "1/2" (to_string (of_float 0.5));
  checkb "roundtrip 0.1" true (Float.abs (to_float (of_float 0.1) -. 0.1) < 1e-15)

let rat_qcheck =
  let gen =
    QCheck.map
      (fun (a, b) -> Rat.of_ints a (if b = 0 then 1 else b))
      (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range (-50) 50))
  in
  let gen = QCheck.make ~print:Rat.to_string (QCheck.gen gen) in
  [
    QCheck.Test.make ~name:"rat field laws: distributivity" ~count:300
      (QCheck.triple gen gen gen) (fun (a, b, c) ->
        Rat.(equal (mul a (add b c)) (add (mul a b) (mul a c))));
    QCheck.Test.make ~name:"rat add commutative + inverse" ~count:300
      (QCheck.pair gen gen) (fun (a, b) ->
        Rat.(equal (add a b) (add b a)) && Rat.(is_zero (sub (add a b) (add b a))));
    QCheck.Test.make ~name:"rat mul inverse" ~count:300 gen (fun a ->
        Rat.is_zero a || Rat.(equal one (mul a (inv a))));
  ]

(* ------------------------------------------------------------------ *)
(* Simplex solvers                                                     *)
(* ------------------------------------------------------------------ *)

(* A classic small LP:
     min -3x - 5y  s.t.  x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0
   Optimum at (2, 6) with objective -36. *)
let mk_classic () =
  let p = Problem.create () in
  let x = Problem.add_var p ~lo:0. ~hi:infinity ~obj:(-3.) "x" in
  let y = Problem.add_var p ~lo:0. ~hi:infinity ~obj:(-5.) "y" in
  Problem.add_row p Problem.Le 4. [ (x, 1.) ];
  Problem.add_row p Problem.Le 12. [ (y, 2.) ];
  Problem.add_row p Problem.Le 18. [ (x, 3.); (y, 2.) ];
  p

let test_dense_exact_classic () =
  let module S = Dense_simplex.Exact in
  let r = S.solve (mk_classic ()) in
  checkb "optimal" true (r.S.status = S.Optimal);
  checks "objective" "-36" (Rat.to_string r.S.objective);
  checks "x" "2" (Rat.to_string r.S.solution.(0));
  checks "y" "6" (Rat.to_string r.S.solution.(1))

let test_dense_float_classic () =
  let module S = Dense_simplex.Approx in
  let r = S.solve (mk_classic ()) in
  checkb "optimal" true (r.S.status = S.Optimal);
  check (Alcotest.float 1e-9) "objective" (-36.) r.S.objective

let test_dense_infeasible () =
  let module S = Dense_simplex.Exact in
  let p = Problem.create () in
  let x = Problem.add_var p ~lo:0. ~hi:infinity "x" in
  Problem.add_row p Problem.Ge 3. [ (x, 1.) ];
  Problem.add_row p Problem.Le 1. [ (x, 1.) ];
  let r = S.solve p in
  checkb "infeasible" true (r.S.status = S.Infeasible)

let test_dense_unbounded () =
  let module S = Dense_simplex.Exact in
  let p = Problem.create () in
  let x = Problem.add_var p ~lo:0. ~hi:infinity ~obj:(-1.) "x" in
  Problem.add_row p Problem.Ge 0. [ (x, 1.) ];
  let r = S.solve p in
  checkb "unbounded" true (r.S.status = S.Unbounded)

let test_revised_classic_bounded () =
  (* Same classic LP but with explicit large bounds so the dual solver's
     initial placement is dual-feasible. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~lo:0. ~hi:100. ~obj:(-3.) "x" in
  let y = Problem.add_var p ~lo:0. ~hi:100. ~obj:(-5.) "y" in
  Problem.add_row p Problem.Le 4. [ (x, 1.) ];
  Problem.add_row p Problem.Le 12. [ (y, 2.) ];
  Problem.add_row p Problem.Le 18. [ (x, 3.); (y, 2.) ];
  let s = Revised.create p in
  checkb "optimal" true (Revised.solve s = Revised.Optimal);
  check (Alcotest.float 1e-7) "objective" (-36.) (Revised.objective s);
  let sol = Revised.primal s in
  check (Alcotest.float 1e-7) "x" 2. sol.(0);
  check (Alcotest.float 1e-7) "y" 6. sol.(1)

let test_revised_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_var p ~lo:0. ~hi:1. "x" in
  let y = Problem.add_var p ~lo:0. ~hi:1. "y" in
  Problem.add_row p Problem.Eq 3. [ (x, 1.); (y, 1.) ];
  let s = Revised.create p in
  checkb "infeasible" true (Revised.solve s = Revised.Infeasible)

let test_revised_equality_system () =
  (* min x + 2y  s.t. x + y = 1, x - y = 0  ->  x = y = 1/2, obj 3/2 *)
  let p = Problem.create () in
  let x = Problem.add_var p ~lo:0. ~hi:1. ~obj:1. "x" in
  let y = Problem.add_var p ~lo:0. ~hi:1. ~obj:2. "y" in
  Problem.add_row p Problem.Eq 1. [ (x, 1.); (y, 1.) ];
  Problem.add_row p Problem.Eq 0. [ (x, 1.); (y, -1.) ];
  let s = Revised.create p in
  checkb "optimal" true (Revised.solve s = Revised.Optimal);
  check (Alcotest.float 1e-7) "objective" 1.5 (Revised.objective s)

let test_revised_warm_restart () =
  (* Solve, then tighten a bound and re-solve; expect consistent results. *)
  let p = Problem.create () in
  let x = Problem.add_var p ~lo:0. ~hi:1. ~obj:1. "x" in
  let y = Problem.add_var p ~lo:0. ~hi:1. ~obj:3. "y" in
  Problem.add_row p Problem.Ge 1. [ (x, 1.); (y, 1.) ];
  let s = Revised.create p in
  checkb "optimal 1" true (Revised.solve s = Revised.Optimal);
  check (Alcotest.float 1e-7) "first solve picks cheap x" 1. (Revised.objective s);
  Revised.set_bounds s x ~lo:0. ~hi:0.25;
  checkb "optimal 2" true (Revised.solve s = Revised.Optimal);
  check (Alcotest.float 1e-7) "after tightening" (0.25 +. (3. *. 0.75))
    (Revised.objective s);
  Revised.set_bounds s x ~lo:0. ~hi:1.;
  checkb "optimal 3" true (Revised.solve s = Revised.Optimal);
  check (Alcotest.float 1e-7) "after relaxing back" 1. (Revised.objective s)

(* Random bounded LPs: production revised solver must agree with the exact
   dense reference on both status and optimal objective. *)
let random_lp_gen =
  let open QCheck.Gen in
  let nv = 2 -- 5 and nr = 1 -- 5 in
  let coef = map float_of_int (-3 -- 3) in
  let* n = nv in
  let* m = nr in
  let* costs = list_size (return n) (map float_of_int (-5 -- 5)) in
  let* rows =
    list_size (return m)
      (let* terms = list_size (return n) coef in
       let* rhs = map float_of_int (-4 -- 8) in
       let* sense = oneofl [ Problem.Le; Problem.Ge; Problem.Eq ] in
       return (sense, rhs, terms))
  in
  return (n, costs, rows)

let print_random_lp (n, costs, rows) =
  Fmt.str "n=%d costs=%a rows=%a" n
    Fmt.(Dump.list float)
    costs
    Fmt.(
      Dump.list
        (Dump.pair
           (fun ppf s ->
             Fmt.string ppf
               (match s with Problem.Le -> "<=" | Ge -> ">=" | Eq -> "="))
           (Dump.pair float (Dump.list float))))
    (List.map (fun (s, r, t) -> (s, (r, t))) rows)

let build_random_lp (n, costs, rows) =
  let p = Problem.create () in
  List.iteri
    (fun i c ->
      ignore (Problem.add_var p ~lo:0. ~hi:4. ~obj:c (Printf.sprintf "x%d" i)))
    costs;
  ignore n;
  List.iter
    (fun (sense, rhs, terms) ->
      Problem.add_row p sense rhs (List.mapi (fun i c -> (i, c)) terms))
    rows;
  p

let simplex_cross_check =
  QCheck.Test.make ~name:"revised dual simplex agrees with exact reference"
    ~count:300
    (QCheck.make ~print:print_random_lp random_lp_gen)
    (fun spec ->
      let p = build_random_lp spec in
      let module E = Dense_simplex.Exact in
      let exact = E.solve p in
      let s = Revised.create p in
      match (exact.E.status, Revised.solve s) with
      | E.Optimal, Revised.Optimal ->
          Float.abs (Rat.to_float exact.E.objective -. Revised.objective s)
          < 1e-5
      | E.Infeasible, Revised.Infeasible -> true
      | E.Unbounded, _ ->
          true (* cannot happen: all variables bounded *)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Presolve                                                            *)
(* ------------------------------------------------------------------ *)

let test_presolve_fixed_and_singleton () =
  let p = Problem.create () in
  let x = Problem.add_var p ~lo:2. ~hi:2. ~obj:1. "x" in
  let y = Problem.add_var p ~lo:0. ~hi:10. ~obj:1. "y" in
  Problem.add_row p Problem.Ge 5. [ (y, 1.) ];
  Problem.add_row p Problem.Le 9. [ (x, 1.); (y, 1.) ];
  match Presolve.run p with
  | Presolve.Infeasible_detected -> Alcotest.fail "unexpected infeasible"
  | Presolve.Reduced (r, info) ->
      checkb "x eliminated" true (Problem.num_vars r <= 1);
      (* postsolve round trip: solve tiny remainder by hand: y in [5,7] *)
      let sol =
        if Problem.num_vars r = 0 then Presolve.postsolve info [||]
        else Presolve.postsolve info [| 5. |]
      in
      check (Alcotest.float 1e-9) "x value" 2. sol.(x);
      check (Alcotest.float 1e-9) "y value" 5. sol.(y)

let test_presolve_alias_chain () =
  (* x0 = x1 = x2 = x3 chained by equalities; only one survivor. *)
  let p = Problem.create () in
  let vs =
    Array.init 4 (fun i ->
        Problem.add_binary p ~obj:(float_of_int (i + 1)) (Printf.sprintf "x%d" i))
  in
  for i = 0 to 2 do
    Problem.add_row p Problem.Eq 0. [ (vs.(i), 1.); (vs.(i + 1), -1.) ]
  done;
  Problem.add_row p Problem.Ge 1. [ (vs.(0), 1.) ];
  match Presolve.run p with
  | Presolve.Infeasible_detected -> Alcotest.fail "unexpected infeasible"
  | Presolve.Reduced (r, info) ->
      checki "all aliased away" 0 (Problem.num_vars r);
      let sol = Presolve.postsolve info [||] in
      Array.iter (fun v -> check (Alcotest.float 1e-9) "all ones" 1. sol.(v)) vs

let test_presolve_complement () =
  (* x + y = 1 one-place constraint: y eliminated as 1 - x. *)
  let p = Problem.create () in
  let x = Problem.add_binary p ~obj:1. "x" in
  let y = Problem.add_binary p ~obj:5. "y" in
  Problem.add_row p Problem.Eq 1. [ (x, 1.); (y, 1.) ];
  match Presolve.run p with
  | Presolve.Infeasible_detected -> Alcotest.fail "unexpected infeasible"
  | Presolve.Reduced (r, info) ->
      checki "one var left" 1 (Problem.num_vars r);
      (* Which of x/y is kept is an implementation detail; the complement
         relation must hold either way. *)
      let sol = Presolve.postsolve info [| 1. |] in
      check (Alcotest.float 1e-9) "sum is one" 1. (sol.(x) +. sol.(y));
      let sol0 = Presolve.postsolve info [| 0. |] in
      check (Alcotest.float 1e-9) "sum is one (0 case)" 1. (sol0.(x) +. sol0.(y))

let test_presolve_detects_infeasible () =
  let p = Problem.create () in
  let x = Problem.add_binary p "x" in
  Problem.add_row p Problem.Ge 2. [ (x, 1.) ];
  (match Presolve.run p with
  | Presolve.Infeasible_detected -> ()
  | Presolve.Reduced _ -> Alcotest.fail "should detect infeasibility")

(* The exact reference gives the reduced LP the original's status and
   optimum, and postsolve maps the reduced optimum to a feasible point. *)
let presolve_keeps_lp_optimum spec =
  let p = build_random_lp spec in
  let module E = Dense_simplex.Exact in
  let before = E.solve p in
  match Presolve.run p with
  | Presolve.Infeasible_detected -> before.E.status = E.Infeasible
  | Presolve.Reduced (r, info) -> (
      let after = E.solve r in
      match (before.E.status, after.E.status) with
      | E.Optimal, E.Optimal ->
          (* objective values agree, and postsolve yields feasible pt *)
          let reduced_sol = Array.map Rat.to_float after.E.solution in
          let full = Presolve.postsolve info reduced_sol in
          Float.abs
            (Rat.to_float before.E.objective -. Problem.objective_value p full)
          < 1e-6
          && Problem.check_feasible ~eps:1e-6 p full
      | E.Infeasible, E.Infeasible -> true
      | E.Optimal, E.Infeasible | E.Infeasible, E.Optimal -> false
      | _ -> true)

let presolve_preserves_optimum =
  QCheck.Test.make ~name:"presolve preserves LP optimum" ~count:200
    (QCheck.make ~print:print_random_lp random_lp_gen)
    presolve_keeps_lp_optimum

(* The row 3 x0 <= 4 bounds x0 by 4/3, whose nearest float lies below
   it, while the other rows force x0 >= 4/3 exactly: a bound taken at
   that float makes the reduced LP infeasible in exact arithmetic. *)
let test_presolve_inexact_bound () =
  checkb "presolve keeps the optimum" true
    (presolve_keeps_lp_optimum
       ( 2,
         [ -1.; -3. ],
         [
           (Problem.Le, 7., [ -2.; -2. ]);
           (Problem.Le, -1., [ -3.; -3. ]);
           (Problem.Le, -4., [ -3.; 3. ]);
           (Problem.Le, 2., [ -2.; 3. ]);
           (Problem.Le, 4., [ 3.; 0. ]);
         ] ))

(* ------------------------------------------------------------------ *)
(* Branch & bound / MIP                                                *)
(* ------------------------------------------------------------------ *)

let test_bb_knapsack () =
  (* max 10a + 6b + 4c st a+b+c<=2 (binaries)  == min negated *)
  let p = Problem.create () in
  let a = Problem.add_binary p ~obj:(-10.) "a" in
  let b = Problem.add_binary p ~obj:(-6.) "b" in
  let c = Problem.add_binary p ~obj:(-4.) "c" in
  Problem.add_row p Problem.Le 2. [ (a, 1.); (b, 1.); (c, 1.) ];
  let r = Mip.solve p in
  checkb "optimal" true (r.Mip.status = Mip.Optimal);
  check (Alcotest.float 1e-6) "objective" (-16.) r.Mip.objective;
  check (Alcotest.float 1e-6) "a" 1. (Option.get r.Mip.solution).(a);
  check (Alcotest.float 1e-6) "b" 1. (Option.get r.Mip.solution).(b);
  check (Alcotest.float 1e-6) "c" 0. (Option.get r.Mip.solution).(c)

(* A budget hit before any incumbent is no solution: 2 x1 + ... + 2 x9
   = 9 has a fractional relaxation and no 0-1 point, and one node cannot
   prove that, so the solve stops at its limit with nothing to decode,
   both from [Mip] and from the branch and bound underneath it. *)
let test_bb_limit_without_incumbent () =
  let p = Problem.create () in
  let xs = List.init 9 (fun i -> Problem.add_binary p ~obj:1. (Printf.sprintf "x%d" i)) in
  Problem.add_row p Problem.Eq 9. (List.map (fun x -> (x, 2.)) xs);
  let r = Mip.solve ~node_limit:1 p in
  checkb "limit" true (r.Mip.status = Mip.Limit);
  checkb "no solution" true (r.Mip.solution = None);
  checkb "no objective" true (r.Mip.objective = infinity);
  let b = Branch_bound.solve ~node_limit:1 ~root:(Mip.solve_root p) p in
  checkb "branch and bound: limit" true
    (b.Branch_bound.status = Branch_bound.Limit);
  checkb "branch and bound: no solution" true (b.Branch_bound.solution = None);
  checkb "branch and bound: no objective" true
    (b.Branch_bound.objective = infinity)

let test_bb_assignment () =
  (* 3x3 assignment problem with distinct costs; optimum is a permutation. *)
  let costs = [| [| 4.; 2.; 8. |]; [| 4.; 3.; 7. |]; [| 3.; 1.; 6. |] |] in
  let p = Problem.create () in
  let v = Array.make_matrix 3 3 0 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      v.(i).(j) <-
        Problem.add_binary p ~obj:costs.(i).(j) (Printf.sprintf "x%d%d" i j)
    done
  done;
  for i = 0 to 2 do
    Problem.add_row p Problem.Eq 1. (List.init 3 (fun j -> (v.(i).(j), 1.)));
    Problem.add_row p Problem.Eq 1. (List.init 3 (fun j -> (v.(j).(i), 1.)))
  done;
  let r = Mip.solve p in
  checkb "optimal" true (r.Mip.status = Mip.Optimal);
  (* optimal: row0->col1? enumerate: perms costs:
     (0,1,2):4+3+6=13 (0,2,1):4+7+1=12 (1,0,2):2+4+6=12
     (1,2,0):2+7+3=12 (2,0,1):8+4+1=13 (2,1,0):8+3+3=14; min = 12 *)
  check (Alcotest.float 1e-6) "objective" 12. r.Mip.objective

let test_bb_infeasible () =
  let p = Problem.create () in
  let a = Problem.add_binary p "a" in
  let b = Problem.add_binary p "b" in
  Problem.add_row p Problem.Eq 1. [ (a, 2.); (b, 2.) ];
  let r = Mip.solve p in
  checkb "infeasible" true (r.Mip.status = Mip.Infeasible)

(* Brute force 0-1 enumeration as ground truth. *)
let brute_force_binary p =
  let n = Problem.num_vars p in
  let best = ref None in
  let x = Array.make n 0. in
  let rec go i =
    if i = n then begin
      if Problem.check_feasible ~eps:1e-9 p x then begin
        let obj = Problem.objective_value p x in
        match !best with
        | Some (b, _) when b <= obj -> ()
        | _ -> best := Some (obj, Array.copy x)
      end
    end
    else begin
      x.(i) <- 0.;
      go (i + 1);
      x.(i) <- 1.;
      go (i + 1)
    end
  in
  go 0;
  !best

let random_binary_gen =
  let open QCheck.Gen in
  let* n = 2 -- 7 in
  let* m = 1 -- 5 in
  let* costs = list_size (return n) (map float_of_int (0 -- 9)) in
  let* rows =
    list_size (return m)
      (let* terms = list_size (return n) (map float_of_int (-2 -- 2)) in
       let* rhs = map float_of_int (-1 -- 3) in
       let* sense = oneofl [ Problem.Le; Problem.Ge; Problem.Eq ] in
       return (sense, rhs, terms))
  in
  return (n, costs, rows)

let build_random_binary (n, costs, rows) =
  let p = Problem.create () in
  List.iteri
    (fun i c -> ignore (Problem.add_binary p ~obj:c (Printf.sprintf "b%d" i)))
    costs;
  ignore n;
  List.iter
    (fun (sense, rhs, terms) ->
      Problem.add_row p sense rhs (List.mapi (fun i c -> (i, c)) terms))
    rows;
  p

let bb_matches_brute_force =
  QCheck.Test.make ~name:"branch&bound matches brute force on 0-1 programs"
    ~count:200
    (QCheck.make ~print:print_random_lp random_binary_gen)
    (fun spec ->
      let p = build_random_binary spec in
      let r = Mip.solve ~rel_gap:0. p in
      match (brute_force_binary p, r.Mip.status) with
      | None, Mip.Infeasible -> true
      | Some (obj, _), Mip.Optimal ->
          Float.abs (obj -. r.Mip.objective) < 1e-6
          && Problem.check_feasible ~eps:1e-6 p (Option.get r.Mip.solution)
      | None, Mip.Optimal -> false
      | Some _, Mip.Infeasible -> false
      | _, Mip.Limit -> false)

(* ------------------------------------------------------------------ *)
(* Presolve on 0-1 programs: written order, oracle, scale             *)
(* ------------------------------------------------------------------ *)

(* Presolve's reductions, worked by hand from the order rules in
   presolve.ml.  Eight binaries x0..x7 of cost 1, but x5 is continuous
   in [0, 1]:
     alias    : x0 - x1 = 0            le1 : x1 + x5 + x7 <= 2
     tie      : x2 + x3 = 1            le2 : x0 + x5 + x6 + x7 <= 2
     fallback : x4 - x5 = 0            ge1 : x0 + x2 + x7 >= 0
     single   : x6 >= 1                ge2 : x0 - x3 + x7 >= 0
   The rows are popped in order:
   - alias: x0 has 4 live entries, x1 has 2, so x1 := x0 although x1 is
     the higher index.  In le1, x0 takes x1's slot; the search for x0
     scans le1's 3 slots, shorter than x0's 4 entries.  x0's cost is 2.
     Reads: x1's 2 entries + 3 slots.
   - tie: x2 and x3 have 2 live entries each, so the lower index goes:
     x2 := 1 - x3.  A search along x3's 2 entries misses ge1, so x3
     takes x2's slot and ge1 becomes x0 - x3 + x7 >= -1; the objective
     takes the constant 1 and x3's cost falls to 0.  Reads: 2 entries
     + 2.
   - fallback: x4 has 1 live entry, x5 has 3, but x4 is integral and x5
     is not, so x5 := x4 instead (cost 2 for x4).  le1 and le2 gain x4
     in x5's slot, searched along x4's 1 and then 2 entries.  Reads: 3
     entries + 3.
   - single: x6 >= 1 meets x6's upper bound, so x6 := 1: le2 becomes
     x0 + x4 + x7 <= 1 and the objective constant rises to 2.  Reads: 2
     entries.
   No other row reduces.  The kept variables x0, x3, x4, x7 become 0..3;
   le2 merges into the earlier le1 with the smaller rhs 1, and ge2 into
   ge1 with the larger rhs 0.  The reduced point (1, 1, 0, 0) postsolves
   to x1 = x0 = 1, x2 = 1 - x3 = 0, x5 = x4 = 0 and x6 = 1.  Reads in
   all: 5 + 4 + 6 + 2 = 17. *)
let test_presolve_written_order () =
  let p = Problem.create () in
  let x =
    Array.init 8 (fun i ->
        Problem.add_var p ~lo:0. ~hi:1. ~obj:1. ~integer:(i <> 5)
          (Printf.sprintf "x%d" i))
  in
  let row name sense rhs terms =
    Problem.add_row p ~name sense rhs
      (List.map (fun (i, c) -> (x.(i), c)) terms)
  in
  row "alias" Problem.Eq 0. [ (0, 1.); (1, -1.) ];
  row "tie" Problem.Eq 1. [ (2, 1.); (3, 1.) ];
  row "fallback" Problem.Eq 0. [ (4, 1.); (5, -1.) ];
  row "single" Problem.Ge 1. [ (6, 1.) ];
  row "le1" Problem.Le 2. [ (1, 1.); (5, 1.); (7, 1.) ];
  row "le2" Problem.Le 2. [ (0, 1.); (5, 1.); (6, 1.); (7, 1.) ];
  row "ge1" Problem.Ge 0. [ (0, 1.); (2, 1.); (7, 1.) ];
  row "ge2" Problem.Ge 0. [ (0, 1.); (3, -1.); (7, 1.) ];
  let reads = Support.Metrics.counter "lp.presolve.reads" in
  let reads0 = Support.Metrics.counter_value reads in
  match Presolve.run p with
  | Presolve.Infeasible_detected -> Alcotest.fail "unexpected infeasible"
  | Presolve.Reduced (r, info) ->
      checki "reads" 17 (Support.Metrics.counter_value reads - reads0);
      check
        Alcotest.(list (pair string (float 0.)))
        "reduced variables and costs"
        [ ("x0", 2.); ("x3", 0.); ("x4", 2.); ("x7", 1.) ]
        (List.init (Problem.num_vars r) (fun v ->
             (Problem.var_name r v, Problem.var_obj r v)));
      check Alcotest.(array int) "keep map" [| 0; -1; -1; 1; 2; -1; -1; 3 |]
        info.Presolve.keep_map;
      check (Alcotest.float 0.) "objective constant" 2.
        info.Presolve.obj_constant;
      let sense = function
        | Problem.Le -> "<="
        | Problem.Ge -> ">="
        | Problem.Eq -> "="
      in
      check
        Alcotest.(
          list
            (pair (pair string string)
               (pair (float 0.) (list (pair int (float 0.))))))
        "reduced rows"
        [
          (("le1", "<="), (1., [ (0, 1.); (2, 1.); (3, 1.) ]));
          (("ge1", ">="), (0., [ (0, 1.); (1, -1.); (3, 1.) ]));
        ]
        (List.init (Problem.num_rows r) (fun i ->
             ( (Problem.row_name r i, sense (Problem.row_sense r i)),
               (Problem.row_rhs r i, row_terms r i) )));
      check
        Alcotest.(array (float 0.))
        "postsolve"
        [| 1.; 1.; 0.; 1.; 0.; 0.; 1.; 0. |]
        (Presolve.postsolve info [| 1.; 1.; 0.; 0. |])

(* Seeded 0-1 programs of at most 10 binaries, built from the rows
   presolve reduces: aliases, complements, x + y = 1.5 (which only the
   integrality guard keeps), singletons, fixed variables, and packing,
   covering and equality rows repeated with different rhs (which the
   merge of duplicate rows must resolve). *)
let presolve_mip_gen =
  let open QCheck.Gen in
  let* n = 2 -- 10 in
  let var = 0 -- (n - 1) in
  let* costs = list_size (return n) (map float_of_int (-3 -- 3)) in
  let* fixed = list_size (0 -- 2) (pair var (oneofl [ 0.; 1. ])) in
  let doubleton rhs c =
    map
      (fun (i, j) -> [ (Problem.Eq, rhs, [ (i, 1.); (j, c) ]) ])
      (pair var var)
  in
  let singleton =
    map2
      (fun i (sense, rhs, c) -> [ (sense, rhs, [ (i, c) ]) ])
      var
      (oneofl
         Problem.
           [
             (Le, 0., 1.); (Ge, 1., 1.); (Eq, 0., 1.); (Eq, 1., 1.);
             (Le, 1., 2.); (Ge, -1., -1.); (Eq, 0.5, 1.);
           ])
  in
  let repeated =
    let* sense = oneofl Problem.[ Le; Ge; Eq ] in
    let* vars = list_size (2 -- 4) var in
    let* rhss = list_size (2 -- 3) (map float_of_int (0 -- 3)) in
    let terms = List.map (fun v -> (v, 1.)) vars in
    return (List.map (fun rhs -> (sense, rhs, terms)) rhss)
  in
  let* rows =
    list_size (1 -- 8)
      (frequency
         [
           (3, doubleton 0. (-1.)); (3, doubleton 1. 1.); (1, doubleton 1.5 1.);
           (2, singleton); (3, repeated);
         ])
  in
  return (costs, fixed, List.concat rows)

let build_presolve_mip (costs, fixed, rows) =
  let p = Problem.create () in
  List.iteri
    (fun i c ->
      let lo, hi =
        match List.assoc_opt i fixed with Some v -> (v, v) | None -> (0., 1.)
      in
      ignore
        (Problem.add_var p ~lo ~hi ~obj:c ~integer:true
           (Printf.sprintf "b%d" i)))
    costs;
  List.iter (fun (sense, rhs, terms) -> Problem.add_row p sense rhs terms) rows;
  p

(* Every assignment of the original and of the reduced program is
   enumerated.  [Infeasible_detected] must mean the original has no
   feasible point; a reduced program is infeasible exactly when the
   original is, and otherwise its optimum postsolves to a feasible point
   of the original at the original's optimal objective. *)
let presolve_matches_mip_oracle =
  QCheck.Test.make ~name:"presolve keeps 0-1 optima (brute-force oracle)"
    ~count:1000
    (QCheck.make
       ~print:(fun spec -> Lp_format.to_string (build_presolve_mip spec))
       presolve_mip_gen)
    (fun spec ->
      let p = build_presolve_mip spec in
      let best = brute_force_binary p in
      match Presolve.run p with
      | Presolve.Infeasible_detected -> best = None
      | Presolve.Reduced (r, info) -> (
          match (brute_force_binary r, best) with
          | None, None -> true
          | Some (_, reduced), Some (obj, _) ->
              let full = Presolve.postsolve info reduced in
              Problem.check_feasible ~eps:1e-9 p full
              && Float.abs (Problem.objective_value p full -. obj) < 1e-9
          | _ -> false))

(* Substitutions read list entries and slots in proportion to the
   nonzeros, on the two shapes where a careless order goes quadratic:
   (a) one 100 000-term packing row over continuous variables, each
   aliased to a fresh binary, so every row variable is the one
   eliminated and the search for the binary's slot must walk its one
   entry rather than the long row; (b) a 100 000-variable alias chain,
   each variable also in its own packing row, where a survivor that is
   always the same side of each alias would re-absorb every packing row
   collected so far. *)
let test_presolve_scales_linearly () =
  let n = 100_000 in
  let reads = Support.Metrics.counter "lp.presolve.reads" in
  let measure what p ~vars ~rows =
    let nnz = (Problem.stats p).Problem.n_nonzeros in
    let reads0 = Support.Metrics.counter_value reads in
    let t0 = Clock.now () in
    let result = Presolve.run p in
    let secs = Clock.since t0 in
    let read = Support.Metrics.counter_value reads - reads0 in
    (match result with
    | Presolve.Infeasible_detected -> Alcotest.failf "%s: infeasible" what
    | Presolve.Reduced (r, _) ->
        checki (what ^ ": reduced variables") vars (Problem.num_vars r);
        checki (what ^ ": reduced rows") rows (Problem.num_rows r));
    if read > 4 * nnz then
      Alcotest.failf "%s: presolve read %d entries for %d nonzeros (limit %d)"
        what read nnz (4 * nnz);
    if secs >= 2. then
      Alcotest.failf "%s: presolve took %.2f s (limit 2 s)" what secs
  in
  let a = Problem.create () in
  let xs =
    Array.init n (fun i ->
        Problem.add_var a ~lo:0. ~hi:1. (Printf.sprintf "x%d" i))
  in
  Problem.add_row a Problem.Le 1.
    (Array.to_list (Array.map (fun v -> (v, 1.)) xs));
  Array.iteri
    (fun i v ->
      let y = Problem.add_binary a (Printf.sprintf "y%d" i) in
      Problem.add_row a Problem.Eq 0. [ (v, 1.); (y, -1.) ])
    xs;
  measure "packing row" a ~vars:n ~rows:1;
  let b = Problem.create () in
  let xs =
    Array.init n (fun i ->
        Problem.add_binary b ~obj:1. (Printf.sprintf "x%d" i))
  in
  Array.iteri
    (fun i v ->
      let z = Problem.add_binary b (Printf.sprintf "z%d" i) in
      Problem.add_row b Problem.Le 1. [ (v, 1.); (z, 1.) ];
      if i + 1 < n then
        Problem.add_row b Problem.Eq 0. [ (v, 1.); (xs.(i + 1), -1.) ])
    xs;
  measure "alias chain" b ~vars:(n + 1) ~rows:n

(* ------------------------------------------------------------------ *)
(* Branch-and-bound budgets                                            *)
(* ------------------------------------------------------------------ *)

(* Seeded random set-covering instance: positive costs, >=1 rows over
   random subsets.  Always feasible (all-ones covers), fractional at the
   root, and large enough that the search pops several open nodes
   instead of finishing inside the root dive. *)
let seeded_cover_mip seed =
  let nvars = 40 and nrows = 60 in
  let st = Random.State.make [| seed |] in
  let p = Problem.create () in
  for j = 0 to nvars - 1 do
    (* near-uniform costs keep the instance symmetric enough to force a
       real tree (tens of nodes) instead of a lucky root dive *)
    ignore
      (Problem.add_binary p
         ~obj:(float_of_int (3 + Random.State.int st 4))
         (Printf.sprintf "b%d" j))
  done;
  for _ = 1 to nrows do
    let terms = ref [] in
    for j = 0 to nvars - 1 do
      if Random.State.int st 5 = 0 then terms := (j, 1.) :: !terms
    done;
    (* never emit an uncoverable (empty) row *)
    if !terms = [] then terms := [ (Random.State.int st nvars, 1.) ];
    Problem.add_row p Problem.Ge 1. !terms
  done;
  p

(* Pigeonhole with pairwise conflicts: 11 pigeons, 10 holes, each pigeon
   in exactly one hole, no two pigeons sharing one.  Integer infeasible,
   but the LP relaxation (every x = 1/10) is feasible at every node until
   the fixings pile up, so proving infeasibility takes an exponential
   tree: no search finishes it in half a second. *)
let pigeonhole_mip () =
  let pigeons = 11 and holes = 10 in
  let p = Problem.create () in
  let x i j = (i * holes) + j in
  for i = 0 to pigeons - 1 do
    for j = 0 to holes - 1 do
      ignore (Problem.add_binary p ~obj:0. (Printf.sprintf "x_%d_%d" i j))
    done
  done;
  for i = 0 to pigeons - 1 do
    Problem.add_row p Problem.Eq 1. (List.init holes (fun j -> (x i j, 1.)))
  done;
  for j = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for k = i + 1 to pigeons - 1 do
        Problem.add_row p Problem.Le 1. [ (x i j, 1.); (x k j, 1.) ]
      done
    done
  done;
  p

(* The wall-clock budget is checked before every node, inside dives: a
   search that cannot finish stops with [Limit] within half a second of
   its limit. *)
let test_bb_time_limit_honoured () =
  let p = pigeonhole_mip () in
  let r = Branch_bound.solve ~time_limit:0.5 ~root:(Mip.solve_root p) p in
  checkb "stopped by the limit" true
    (r.Branch_bound.status = Branch_bound.Limit);
  if r.Branch_bound.total_time > 1.0 then
    Alcotest.failf "ran %.3f s against a 0.5 s limit" r.Branch_bound.total_time

(* Seeded random packing instance: negative costs, <= 1 or <= 2 rows
   over small random subsets. *)
let seeded_packing_mip seed =
  let st = Random.State.make [| seed |] in
  let p = Problem.create () in
  let n = 20 in
  for j = 0 to n - 1 do
    ignore
      (Problem.add_binary p
         ~obj:(-.float_of_int (1 + Random.State.int st 9))
         (Printf.sprintf "x%d" j))
  done;
  for _ = 1 to 25 do
    let k = 3 + Random.State.int st 4 in
    let terms = List.init k (fun _ -> (Random.State.int st n, 1.)) in
    Problem.add_row p Problem.Le
      (float_of_int (1 + Random.State.int st 2))
      (List.sort_uniq compare terms)
  done;
  p

(* A solve never writes to the caller's problem: presolve reads it into
   working arrays of its own and builds the reduced problem anew, so the
   caller's problem keeps its rows, and solving it again proves the same
   optimum. *)
let test_mip_leaves_problem_untouched () =
  let p = seeded_packing_mip 11 in
  let rows = Problem.num_rows p in
  let r = Mip.solve p in
  checki "caller's rows unchanged" rows (Problem.num_rows p);
  let again = Mip.solve p in
  check (Alcotest.float 1e-9) "re-solve proves the same optimum"
    r.Mip.objective again.Mip.objective

(* The root LP is solved once: on a fractional root, branch and bound
   starts from the solver [Mip] solved the root with. *)
let test_mip_root_solved_once () =
  let solves = Support.Metrics.counter "lp.root_solves" in
  let before = Support.Metrics.counter_value solves in
  let r = Mip.solve (seeded_cover_mip 11) in
  let s = r.Mip.stats in
  checkb "optimal" true (r.Mip.status = Mip.Optimal);
  checkb "root is fractional" true
    (s.Mip.root_objective < r.Mip.objective -. 1e-6);
  checki "root LP solved once" 1
    (Support.Metrics.counter_value solves - before)

(* Warm starts: re-solving a slightly edited instance seeded with the
   previous solve's solution and pseudocost history must prove exactly
   the objective a cold solve of the edited instance proves, and must
   report its bookkeeping honestly ([warm_start_used],
   [incumbent_source]).  The edit bumps a few objective coefficients, so
   the previous solution stays feasible and the seed can land. *)
let test_mip_warm_start_equivalence () =
  List.iter
    (fun seed ->
      let cold = Mip.solve ~rel_gap:0. (seeded_cover_mip seed) in
      checkb
        (Printf.sprintf "seed %d: baseline optimal" seed)
        true
        (cold.Mip.status = Mip.Optimal);
      checkb
        (Printf.sprintf "seed %d: cold solve not warm-started" seed)
        false cold.Mip.stats.Mip.warm_start_used;
      checkb
        (Printf.sprintf "seed %d: cold solve exports hints" seed)
        true
        (cold.Mip.ws_out.Mip.ws_values <> []);
      let edited () =
        let p = seeded_cover_mip seed in
        let st = Random.State.make [| (seed * 7) + 1 |] in
        for _ = 1 to 3 do
          let j = Random.State.int st (Problem.num_vars p) in
          Problem.set_obj p j (Problem.var_obj p j +. 1.)
        done;
        p
      in
      let warm_r =
        Mip.solve ~rel_gap:0. ~warm:cold.Mip.ws_out (edited ())
      in
      let cold_r = Mip.solve ~rel_gap:0. (edited ()) in
      checkb
        (Printf.sprintf "seed %d: warm solve optimal" seed)
        true
        (warm_r.Mip.status = Mip.Optimal);
      check (Alcotest.float 1e-6)
        (Printf.sprintf "seed %d: warm proves the cold objective" seed)
        cold_r.Mip.objective warm_r.Mip.objective;
      checkb
        (Printf.sprintf "seed %d: warm start reported as used" seed)
        true warm_r.Mip.stats.Mip.warm_start_used;
      checkb
        (Printf.sprintf "seed %d: incumbent source reported (%s)" seed
           warm_r.Mip.stats.Mip.incumbent_source)
        true
        (List.mem warm_r.Mip.stats.Mip.incumbent_source
           [ "seeded"; "heuristic"; "branch"; "presolve" ]))
    [ 7; 21; 42; 99 ]

(* A node budget of k stops the search after exactly its first k nodes,
   and a larger budget expands the same nodes first, so the best
   objective at budget k never rises as k grows. *)
let test_bb_incumbent_monotone () =
  let p = seeded_cover_mip 11 in
  let last = ref infinity in
  for k = 1 to 40 do
    let r =
      Branch_bound.solve ~rel_gap:0. ~node_limit:k ~root:(Mip.solve_root p) p
    in
    if r.Branch_bound.nodes > k then
      Alcotest.failf "%d nodes against a budget of %d" r.Branch_bound.nodes k;
    let obj = r.Branch_bound.objective in
    if obj > !last then
      Alcotest.failf "objective %g at %d nodes after %g" obj k !last;
    last := obj
  done

(* ------------------------------------------------------------------ *)
(* Sparse LU kernel                                                    *)
(* ------------------------------------------------------------------ *)

(* Factor the basis whose position j holds the sparse column [cols.(j)]. *)
let factorize cols =
  Sparse_lu.factorize (Array.length cols) (fun j f ->
      Array.iter (fun (i, v) -> f i v) cols.(j))

(* Run the hypersparse [solve] on a copy of the dense vector [v], its
   nonzeros listed by a scan; returns the result and the positions the
   solve listed. *)
let hyper solve lu v =
  let x = Array.copy v in
  let nz = Array.make (Array.length v) 0 in
  let n = solve lu x nz (Dense_solves.nonzeros x nz) in
  (x, Array.sub nz 0 n)

(* On random sparse right-hand sides of 1, up to 8 and up to m/3
   entries, FTRAN and BTRAN must equal the dense passes of
   [Dense_solves] on every entry under [=] (so only a zero's sign may
   differ), and list exactly the result's nonzeros, ascending. *)
let check_exact ~tag rs lu =
  let m = lu.Sparse_lu.m in
  List.iter
    (fun k ->
      let v = Array.make m 0. in
      for _ = 1 to k do
        v.(Random.State.int rs m) <- Random.State.float rs 4. -. 2.
      done;
      List.iter
        (fun (what, solve, dense) ->
          let x, listed = hyper solve lu v in
          let y = Array.copy v in
          dense { lu with Sparse_lu.ws = Array.make m 0. } y;
          Array.iteri
            (fun i xi ->
              if not (xi = y.(i)) then
                Alcotest.failf
                  "%s: %s differs from the dense pass at %d: %h vs %h" tag
                  what i xi y.(i))
            x;
          let nz = Array.make m 0 in
          let n = Dense_solves.nonzeros x nz in
          if Array.sub nz 0 n <> listed then
            Alcotest.failf
              "%s: %s listed %d positions, not its %d nonzeros ascending" tag
              what (Array.length listed) n)
        [
          ("ftran", Sparse_lu.ftran, Dense_solves.ftran);
          ("btran", Sparse_lu.btran, Dense_solves.btran);
        ])
    [ 1; 1 + Random.State.int rs 8; 1 + Random.State.int rs ((m / 3) + 1) ]

(* FTRAN and BTRAN must invert a multiply by the basis [cols] (one
   sparse column per basis position), both on the base factors and
   after each of [updates] product-form eta updates, which replace a
   random position [r] by [fresh_col r]; and they must equal the dense
   passes exactly ([check_exact], on a random stream of its own).
   Returns the number of updates the kernel refused as singular. *)
let lu_roundtrip st ~tag cols ~fresh_col ~updates =
  let m = Array.length cols in
  let lu = factorize cols in
  let rs = Random.State.make [| 19; m |] in
  let mat_vec x =
    let b = Array.make m 0. in
    Array.iteri
      (fun j col ->
        Array.iter (fun (i, v) -> b.(i) <- b.(i) +. (v *. x.(j))) col)
      cols;
    b
  in
  let mat_tvec y =
    Array.map
      (fun col -> Array.fold_left (fun s (i, v) -> s +. (v *. y.(i))) 0. col)
      cols
  in
  let check_roundtrip stage =
    let expect what truth got =
      Array.iteri
        (fun i v ->
          if Float.abs (v -. truth.(i)) > 1e-6 then
            Alcotest.failf "%s %s %s drift %g at %d (m=%d)" tag stage what
              (Float.abs (v -. truth.(i)))
              i m)
        got
    in
    let x_true = Array.init m (fun _ -> Random.State.float st 4. -. 2.) in
    expect "ftran" x_true (fst (hyper Sparse_lu.ftran lu (mat_vec x_true)));
    let y_true = Array.init m (fun _ -> Random.State.float st 4. -. 2.) in
    expect "btran" y_true (fst (hyper Sparse_lu.btran lu (mat_tvec y_true)));
    check_exact ~tag:(tag ^ " " ^ stage) rs lu
  in
  check_roundtrip "base";
  let refused = ref 0 in
  for _u = 1 to updates do
    let r = Random.State.int st m in
    let newcol = fresh_col r in
    let a = Array.make m 0. in
    Array.iter (fun (i, v) -> a.(i) <- a.(i) +. v) newcol;
    let w, nz = hyper Sparse_lu.ftran lu a in
    (* the random replacement can make B singular; the kernel must
       refuse it, and skipping keeps the reference basis in sync *)
    match Sparse_lu.update lu ~r ~w ~nz ~nnz:(Array.length nz) with
    | () ->
        cols.(r) <- newcol;
        check_roundtrip "eta"
    | exception Sparse_lu.Singular -> incr refused
  done;
  !refused

let shuffled st m =
  let perm = Array.init m (fun i -> i) in
  for i = m - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  perm

(* A column with [diag] at row [row] plus [k] entries in [-0.5, 0.5) at
   random rows. *)
let noisy_col st m ~row ~diag k =
  Array.append
    [| (row, diag) |]
    (Array.init k (fun _ ->
         (Random.State.int st m, Random.State.float st 1. -. 0.5)))

(* The nonzeros of a dense column, by row. *)
let sparse_of_dense col =
  let entries = ref [] in
  for i = Array.length col - 1 downto 0 do
    if col.(i) <> 0. then entries := (i, col.(i)) :: !entries
  done;
  Array.of_list !entries

(* Two families of sparse bases, each a shuffled permutation diagonal
   plus a little off-diagonal noise:
   - small random matrices (m <= 12), diagonal entries in [1, 3].  A
     replacement column has its dominant entry at row [r], not at the
     leaving column's diagonal row, and noise on a quarter of the other
     rows, so updates often change the basis structure or make it
     singular;
   - slack-heavy bases of 200 to 2 000 rows shaped like the allocation
     models': about four columns in five are unit slack columns, the
     rest short structural columns.  30 eta updates each; a third of the
     entering columns put their dominant entry on a random row, so some
     updates leave the leaving column's row uncovered and are refused. *)
let test_sparse_lu_roundtrip () =
  let st = Random.State.make [| 42 |] in
  for case = 1 to 25 do
    let m = 1 + Random.State.int st 12 in
    let perm = shuffled st m in
    let dense = Array.make_matrix m m 0. in
    for j = 0 to m - 1 do
      dense.(j).(perm.(j)) <- 1. +. Random.State.float st 2.;
      if m > 1 && Random.State.bool st then begin
        let r = Random.State.int st m in
        dense.(j).(r) <- dense.(j).(r) +. Random.State.float st 1. -. 0.5
      end
    done;
    ignore
      (lu_roundtrip st
         ~tag:(Printf.sprintf "small case %d" case)
         (Array.map sparse_of_dense dense)
         ~updates:3
         ~fresh_col:(fun r ->
           sparse_of_dense
             (Array.init m (fun i ->
                  if i = r then 1.5 +. Random.State.float st 1.
                  else if Random.State.int st 4 = 0 then
                    Random.State.float st 1. -. 0.5
                  else 0.))))
  done;
  let refused =
    List.fold_left
      (fun refused m ->
        let perm = shuffled st m in
        let structural ~row =
          noisy_col st m ~row
            ~diag:(1. +. Random.State.float st 2.)
            (1 + Random.State.int st 3)
        in
        let col j =
          if Random.State.int st 5 > 0 then [| (perm.(j), 1.) |]
          else structural ~row:perm.(j)
        in
        let fresh_col r =
          if Random.State.int st 3 = 0 then
            structural ~row:(Random.State.int st m)
          else col r
        in
        refused
        + lu_roundtrip st
            ~tag:(Printf.sprintf "slack-heavy m=%d" m)
            (Array.init m col) ~fresh_col ~updates:30)
      0 [ 200; 700; 2000 ]
  in
  checkb "some slack-heavy updates refused" true (refused > 0)

(* [Sparse_lu.sort_prefix] orders the solves' index lists (a quicksort
   into runs, then one insertion pass).  Against [Array.sort]: random
   prefixes with repeats, ascending, descending and organ-pipe inputs;
   entries past the prefix stay. *)
let test_sort_prefix () =
  let st = Random.State.make [| 23 |] in
  let check what a n =
    let want = Array.sub a 0 n and got = Array.copy a in
    Array.sort Int.compare want;
    Sparse_lu.sort_prefix got n;
    if Array.sub got 0 n <> want then
      Alcotest.failf "%s (n = %d): not sorted" what n;
    let rest x = Array.sub x n (Array.length a - n) in
    if rest got <> rest a then
      Alcotest.failf "%s (n = %d): entries past the prefix moved" what n
  in
  for n = 0 to 300 do
    check "repeats"
      (Array.init (n + 5) (fun _ -> Random.State.int st (1 + (n / 2))))
      n
  done;
  List.iter
    (fun n ->
      check "ascending" (Array.init n (fun i -> i)) n;
      check "descending" (Array.init n (fun i -> n - i)) n;
      check "organ pipe" (Array.init n (fun i -> min i (n - i))) n;
      check "random" (Array.init n (fun _ -> Random.State.int st 1_000_000)) n)
    [ 17; 100; 1000; 5000 ]

(* The Markowitz search reads a bounded number of column entries per
   pivot, so a 50 000-row basis of unit columns plus short structural
   columns factors in a fraction of a second.  A search that re-read the
   whole count-1 bucket for every pivot would read about m^2 / 2 entries
   and take tens of seconds. *)
let test_sparse_lu_scale () =
  let m = 50_000 in
  let st = Random.State.make [| 7 |] in
  let perm = shuffled st m in
  let cols =
    Array.init m (fun j ->
        if Random.State.int st 10 > 0 then [| (perm.(j), 1.) |]
        else noisy_col st m ~row:perm.(j) ~diag:2. 2)
  in
  let reads = Support.Metrics.counter "lp.lu.search_reads" in
  let reads0 = Support.Metrics.counter_value reads in
  let t0 = Clock.now () in
  let lu = factorize cols in
  let secs = Clock.since t0 in
  let read = Support.Metrics.counter_value reads - reads0 in
  if read > 4 * m then
    Alcotest.failf "pivot search read %d entries for %d rows (limit %d)" read
      m (4 * m);
  if secs >= 2. then
    Alcotest.failf "factorizing %d rows took %.2f s (limit 2 s)" m secs;
  (* and the factors solve: B x = B 1 gives x = 1 *)
  let b = Array.make m 0. in
  Array.iter (Array.iter (fun (i, v) -> b.(i) <- b.(i) +. v)) cols;
  Array.iteri
    (fun i v ->
      if Float.abs (v -. 1.) > 1e-9 then
        Alcotest.failf "ftran drift %g at %d" (Float.abs (v -. 1.)) i)
    (fst (hyper Sparse_lu.ftran lu b))

(* The rank of the m x m matrix whose nonzeros [b] maps (row, column)
   to, by Gaussian elimination over exact rationals.  Each column's
   pivot is an unused row with the fewest nonzeros: any nonzero pivot
   gives the rank, and this one keeps an arrow's fill-in small. *)
let exact_rank m b =
  let a = Array.make_matrix m m Rat.zero in
  Hashtbl.iter (fun (i, j) v -> a.(i).(j) <- Rat.of_float v) b;
  let nonzeros row =
    Array.fold_left (fun n x -> if Rat.is_zero x then n else n + 1) 0 row
  in
  let used = Array.make m false and rank = ref 0 in
  for j = 0 to m - 1 do
    let p = ref (-1) in
    for i = 0 to m - 1 do
      if
        (not used.(i))
        && (not (Rat.is_zero a.(i).(j)))
        && (!p < 0 || nonzeros a.(i) < nonzeros a.(!p))
      then p := i
    done;
    if !p >= 0 then begin
      let prow = a.(!p) in
      used.(!p) <- true;
      incr rank;
      for i = 0 to m - 1 do
        if (not used.(i)) && not (Rat.is_zero a.(i).(j)) then begin
          let f = Rat.div a.(i).(j) prow.(j) in
          for l = j to m - 1 do
            if not (Rat.is_zero prow.(l)) then
              a.(i).(l) <- Rat.sub a.(i).(l) (Rat.mul f prow.(l))
          done
        end
      done
    end
  done;
  !rank

(* Check [Sparse_lu.factorize] on the basis [cols] without reference to
   the order it pivots in, and return whether the basis factored:

   - [pr] and [pc] are permutations;
   - L and U are triangular in step order: step k's multipliers are in
     rows pivoted after step k, and U row k's entries in columns
     pivoted after it;
   - P B Q = L U at every entry to within 1e-9 of |B| + |L| |U| there,
     plus 1e-12 for entries dropped at the drop tolerance.  Row a and
     column l of P B Q are row [pr.(a)] and column [pc.(l)] of B; L is
     unit lower triangular with step k's multipliers in column k, and U
     has the pivots on its diagonal;
   - a basis whose entries are all integers raises [Singular] exactly
     when its exact rank is below m. *)
let check_factorization ~tag cols =
  let m = Array.length cols in
  let bump tbl key v =
    Hashtbl.replace tbl key
      (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))
  in
  let b = Hashtbl.create 64 in
  Array.iteri (fun j -> Array.iter (fun (i, v) -> bump b (i, j) v)) cols;
  let got = try Some (factorize cols) with Sparse_lu.Singular -> None in
  if Hashtbl.fold (fun _ v ok -> ok && Float.is_integer v) b true then begin
    let rank = exact_rank m b and factored = got <> None in
    if factored <> (rank = m) then
      Alcotest.failf "%s: exact rank %d of %d, but factored = %b" tag rank m
        factored
  end;
  match got with
  | None -> false
  | Some lu ->
      let open Sparse_lu in
      let inverse what p =
        let inv = Array.make m (-1) in
        Array.iteri
          (fun k x ->
            if x < 0 || x >= m || inv.(x) >= 0 then
              Alcotest.failf "%s: %s is not a permutation" tag what;
            inv.(x) <- k)
          p;
        inv
      in
      let step_of_row = inverse "pr" lu.pr in
      let step_of_col = inverse "pc" lu.pc in
      let res = Hashtbl.create 64 and scale = Hashtbl.create 64 in
      let add key v =
        bump res key v;
        bump scale key (Float.abs v)
      in
      Hashtbl.iter
        (fun (i, j) v -> add (step_of_row.(i), step_of_col.(j)) v)
        b;
      for k = 0 to m - 1 do
        let entries start step value =
          List.init (start.(k + 1) - start.(k)) (fun q ->
              let p = start.(k) + q in
              (step p, value.(p)))
        in
        let l_col =
          entries lu.l_start (fun p -> step_of_row.(lu.l_row.(p))) lu.l_mult
        in
        let u_row = entries lu.u_start (fun p -> lu.u_step.(p)) lu.u_val in
        if List.exists (fun (s, _) -> s <= k) (l_col @ u_row) then
          Alcotest.failf "%s: step %d is not triangular" tag k;
        List.iter
          (fun (a, lv) ->
            List.iter
              (fun (l, uv) -> add (a, l) (-.(lv *. uv)))
              ((k, lu.pivots.(k)) :: u_row))
          ((k, 1.) :: l_col)
      done;
      Hashtbl.iter
        (fun (a, l) r ->
          let s = Hashtbl.find scale (a, l) in
          if Float.abs r > (1e-9 *. s) +. 1e-12 then
            Alcotest.failf "%s: P B Q - L U is %g at (%d, %d), scale %g" tag r
              a l s)
        res;
      true

(* A random sparse column: [k] entries at random rows, values from
   [value]. *)
let random_col st m k value =
  Array.init k (fun _ -> (Random.State.int st m, value st))

let small_int st = float_of_int (Random.State.int st 5 - 2)

(* [check_factorization] on seeded families of bases. *)
let test_sparse_lu_oracle () =
  let st = Random.State.make [| 15 |] in
  let factored = ref 0 and singular = ref 0 in
  let run tag cols =
    if check_factorization ~tag cols then incr factored else incr singular
  in
  (* slack-heavy, nearly triangular bases like the allocation models' *)
  List.iter
    (fun m ->
      for case = 1 to 4 do
        let perm = shuffled st m in
        run
          (Printf.sprintf "slack-heavy m=%d case %d" m case)
          (Array.init m (fun j ->
               if Random.State.int st 5 > 0 then [| (perm.(j), 1.) |]
               else
                 noisy_col st m ~row:perm.(j)
                   ~diag:(1. +. Random.State.float st 2.)
                   (1 + Random.State.int st 3)))
      done)
    [ 40; 300; 1500 ];
  (* small-integer matrices: heavy fill-in, and exact cancellation to
     zero that drops entries and re-adds them later; a shuffled
     diagonal keeps most of them nonsingular *)
  for case = 1 to 150 do
    let m = 2 + Random.State.int st 30 in
    let perm = shuffled st m in
    let k = 1 + Random.State.int st (max 1 (m / 3)) in
    run
      (Printf.sprintf "small-integer case %d" case)
      (Array.init m (fun j ->
           let diag = 1. +. float_of_int (Random.State.int st 2) in
           Array.append [| (perm.(j), diag) |] (random_col st m k small_int)))
  done;
  (* values whose eliminations leave rounding residue at or below the
     drop tolerance *)
  for case = 1 to 60 do
    let m = 3 + Random.State.int st 15 in
    let perm = shuffled st m in
    let tenth st = 0.1 *. float_of_int (1 + Random.State.int st 3) in
    run
      (Printf.sprintf "decimal case %d" case)
      (Array.init m (fun j ->
           Array.append [| (perm.(j), tenth st) |] (random_col st m 3 tenth)))
  done;
  (* rows passed more than once in a column, summing to zero or not,
     and explicit zeros *)
  for case = 1 to 60 do
    let m = 2 + Random.State.int st 20 in
    let perm = shuffled st m in
    run
      (Printf.sprintf "duplicate-entry case %d" case)
      (Array.init m (fun j ->
           let r = Random.State.int st m in
           let v = small_int st in
           Array.concat
             [
               [| (perm.(j), 2.); (r, v) |];
               random_col st m 2 small_int;
               [| (r, -.v); (Random.State.int st m, 0.); (perm.(j), 0.5) |];
             ]))
  done;
  (* dense columns and rows, and heavy fill-in *)
  List.iter
    (fun (m, density, case) ->
      let perm = shuffled st m in
      run
        (Printf.sprintf "dense m=%d density %.2f case %d" m density case)
        (Array.init m (fun j ->
             let entries = ref [ (perm.(j), 4. +. Random.State.float st 1.) ] in
             for i = 0 to m - 1 do
               if Random.State.float st 1. < density then
                 entries := (i, small_int st) :: !entries
             done;
             Array.of_list (List.rev !entries))))
    [ (80, 0.5, 1); (100, 0.75, 2); (150, 0.05, 3); (70, 0.95, 4) ];
  List.iter
    (fun m ->
      (* an arrow: one full row and one full column over a diagonal *)
      run
        (Printf.sprintf "arrow m=%d" m)
        (Array.init m (fun j ->
             if j = 0 then Array.init m (fun i -> (i, 1. +. float_of_int i))
             else [| (0, 1.); (j, 2.) |])))
    [ 33; 65; 140 ];
  (* singular bases: an empty column, an all-zero column, two equal
     columns, a column below the pivot tolerance *)
  List.iter
    (fun (tag, cols) ->
      if check_factorization ~tag cols then
        Alcotest.failf "%s: factored, expected Singular" tag
      else incr singular)
    [
      ("empty column", [| [| (0, 1.) |]; [||]; [| (2, 1.) |] |]);
      ( "cancelled column",
        [| [| (0, 1.) |]; [| (1, 3.); (1, -3.) |]; [| (2, 1.) |] |] );
      ( "equal columns",
        [| [| (0, 1.); (1, 2.) |]; [| (0, 1.); (1, 2.) |]; [| (2, 1.) |] |] );
      ("tiny column", [| [| (0, 1.) |]; [| (1, 1e-12) |] |]);
      ("uncovered row", [| [| (0, 1.) |]; [| (0, 2.) |]; [| (2, 1.) |] |]);
    ];
  for case = 1 to 40 do
    let m = 2 + Random.State.int st 12 in
    run
      (Printf.sprintf "rank-deficient case %d" case)
      (Array.init m (fun _ ->
           random_col st m (1 + Random.State.int st 2) small_int))
  done;
  checkb "most bases factored" true (!factored > 250);
  checkb "some bases singular" true (!singular >= 20)

(* The pivot order of one small basis, worked by hand from the rules in
   [Sparse_lu.factorize] (rows 0-2 against columns 0-2, and rows 3-4
   against columns 3-4):

     col 0: (2, 1) (1, 1) (0, -1)      col 3: (3, 1) (4, 1)
     col 1: (0, 2) (1, 1) (2, 1)       col 4: (4, 2) (3, 1)
     col 2: (1, 1) (2, 2) (0, 1)

   The count lists start as 2: [3; 4] and 3: [0; 1; 2].
   - Step 0 reads columns 3 and 4 (cost 1 each; the first stays).  In
     column 3 rows 3 and 4 tie on count and value, so row 3, the earlier
     entry, is the pivot.  L: row 4 x 1.  U: column 4's 1; column 4
     becomes (4, 1) and moves to list 1.
   - Step 1 takes column 4 at row 4.
   - Step 2 reads columns 0, 1 and 2, all of cost 4, and takes column 0.
     Its three entries tie on count and magnitude: row 2 comes first.
     L in column order: row 1 x 1, row 0 x -1.  U in row 2's order:
     column 1's 1 (which cancels row 1 and leaves (0, 3), count 1) and
     column 2's 2 (leaving (1, -1) (0, 3), count 2).
   - Step 3 takes column 1 at row 0, pivot 3; U: column 2's 3.
   - Step 4 takes column 2 at row 1, pivot -1.
   The search reads 2 + 1 + 3 + 1 + 1 = 8 list entries. *)
let test_sparse_lu_written_order () =
  let cols =
    [|
      [| (2, 1.); (1, 1.); (0, -1.) |];
      [| (0, 2.); (1, 1.); (2, 1.) |];
      [| (1, 1.); (2, 2.); (0, 1.) |];
      [| (3, 1.); (4, 1.) |];
      [| (4, 2.); (3, 1.) |];
    |]
  in
  let reads = Support.Metrics.counter "lp.lu.search_reads" in
  let reads0 = Support.Metrics.counter_value reads in
  let lu = factorize cols in
  let ints what want got = check Alcotest.(array int) what want got in
  let floats what want got = check Alcotest.(array (float 0.)) what want got in
  ints "pivot rows" [| 3; 4; 2; 0; 1 |] lu.Sparse_lu.pr;
  ints "pivot columns" [| 3; 4; 0; 1; 2 |] lu.Sparse_lu.pc;
  floats "pivots" [| 1.; 1.; 1.; 3.; -1. |] lu.Sparse_lu.pivots;
  ints "L starts" [| 0; 1; 1; 3; 3; 3 |] lu.Sparse_lu.l_start;
  ints "L rows" [| 4; 1; 0 |] lu.Sparse_lu.l_row;
  floats "L multipliers" [| 1.; 1.; -1. |] lu.Sparse_lu.l_mult;
  ints "U starts" [| 0; 1; 1; 3; 4; 4 |] lu.Sparse_lu.u_start;
  ints "U steps" [| 1; 3; 4; 4 |] lu.Sparse_lu.u_step;
  floats "U values" [| 1.; 1.; 2.; 3. |] lu.Sparse_lu.u_val;
  checki "search reads" 8 (Support.Metrics.counter_value reads - reads0)

(* The pivot row is built from the nonzeros of rho = e_r' Binv alone.
   On a 20 000-row LP whose bases stay mostly slack -- 400 covering rows
   spread among packing rows, each row over three of 20 000 binaries --
   rho has a handful of nonzeros, so the pivot-row pass reads a tiny
   share of the iterations x nnz(A) entries that a dot product down
   every column would read.  The guard counts entries, not seconds. *)
let test_revised_pivot_row_hypersparse () =
  let n = 20_000 and m = 20_000 in
  let st = Random.State.make [| 5 |] in
  let p = Problem.create () in
  for j = 0 to n - 1 do
    ignore
      (Problem.add_binary p
         ~obj:(1. +. Random.State.float st 1.)
         (Printf.sprintf "x%d" j))
  done;
  for i = 0 to m - 1 do
    let terms = List.init 3 (fun _ -> (Random.State.int st n, 1.)) in
    if i mod 50 = 0 then Problem.add_row p Problem.Ge 1. terms
    else Problem.add_row p Problem.Le 1. terms
  done;
  let nnz = (Problem.stats p).Problem.n_nonzeros in
  let counter = Support.Metrics.counter in
  let reads = counter "lp.simplex.row_reads" in
  let lu_reads = counter "lp.lu.solve_reads" in
  let u_nnz = counter "lp.lu.u_nnz" in
  let refactorizations = counter "lp.lu.refactorizations" in
  let value = Support.Metrics.counter_value in
  let reads0 = value reads and lu_reads0 = value lu_reads in
  let u_nnz0 = value u_nnz and refactorizations0 = value refactorizations in
  let lp = Revised.create p in
  checkb "optimal" true (Revised.solve lp = Revised.Optimal);
  let read = value reads - reads0 in
  let iters = Revised.iterations lp in
  checkb "the covering rows take hundreds of pivots" true (iters >= 200);
  if 1000 * read > iters * nnz then
    Alcotest.failf
      "pivot-row pass read %d row entries in %d iterations (nnz(A) = %d, \
       limit 0.1%% of iterations x nnz(A))"
      read iters nnz;
  (* FTRAN and BTRAN read the factor and eta entries their right-hand
     sides reach: a small share of one pass over the rows and U per
     iteration.  U is its mean size over the factorizations, the first
     included. *)
  let lu_read = value lu_reads - lu_reads0 in
  let u =
    (value u_nnz - u_nnz0) / (value refactorizations - refactorizations0 + 1)
  in
  if 100 * lu_read > iters * (m + u) then
    Alcotest.failf
      "FTRAN and BTRAN read %d entries in %d iterations (m = %d, mean \
       nnz(U) = %d, limit 1%% of iterations x (m + nnz(U)))"
      lu_read iters m u

(* ------------------------------------------------------------------ *)
(* Seeded float-vs-rational cross-check (larger LPs)                   *)
(* ------------------------------------------------------------------ *)

(* Bigger than the QCheck instances above: enough rows and pivots to
   exercise the sparse factors, eta file, and the incremental dual
   updates; deterministic seed so failures reproduce. *)
let seeded_lp st =
  let n = 8 + Random.State.int st 11 in
  let m = 6 + Random.State.int st 9 in
  let p = Problem.create () in
  for i = 0 to n - 1 do
    let hi = float_of_int (1 + Random.State.int st 6) in
    let obj = float_of_int (Random.State.int st 11 - 5) in
    ignore (Problem.add_var p ~lo:0. ~hi ~obj (Printf.sprintf "x%d" i))
  done;
  for _ = 1 to m do
    let terms =
      List.init n (fun j ->
          if Random.State.int st 10 < 4 then
            (j, float_of_int (Random.State.int st 7 - 3))
          else (j, 0.))
      |> List.filter (fun (_, c) -> c <> 0.)
    in
    let sense =
      match Random.State.int st 20 with
      | 0 | 1 -> Problem.Eq
      | 2 | 3 | 4 -> Problem.Ge
      | _ -> Problem.Le
    in
    (* keep the origin feasible for most inequality rows so a healthy
       fraction of instances is solvable; Eq rows supply infeasibles *)
    let rhs =
      match sense with
      | Problem.Le -> float_of_int (Random.State.int st 13)
      | Problem.Ge -> float_of_int (-Random.State.int st 7)
      | Problem.Eq -> float_of_int (Random.State.int st 3)
    in
    if terms <> [] then Problem.add_row p sense rhs terms
  done;
  p

let test_revised_vs_exact_seeded () =
  let st = Random.State.make [| 0x5eed |] in
  let module E = Dense_simplex.Exact in
  let optimal = ref 0 in
  for case = 1 to 100 do
    let p = seeded_lp st in
    let exact = E.solve p in
    let s = Revised.create p in
    let rs = Revised.solve s in
    match (exact.E.status, rs) with
    | E.Optimal, Revised.Optimal ->
        incr optimal;
        let diff =
          Float.abs (Rat.to_float exact.E.objective -. Revised.objective s)
        in
        if diff > 1e-5 then
          Alcotest.failf "case %d: objective mismatch by %g" case diff
    | E.Infeasible, Revised.Infeasible -> ()
    | E.Unbounded, _ -> () (* cannot happen: all variables bounded *)
    | _, _ -> Alcotest.failf "case %d: status mismatch" case
  done;
  (* the generator must actually produce solvable instances *)
  checkb "enough optimal cases" true (!optimal > 30)

(* Warm-restart chains: random bound tightenings/relaxations re-solved
   incrementally must agree with a cold solver given identical bounds.
   This exercises exactly the delta path branch and bound relies on. *)
let test_revised_warm_chain_seeded () =
  let st = Random.State.make [| 0xa11e5 |] in
  for _case = 1 to 10 do
    let p = seeded_lp st in
    let n = Problem.num_vars p in
    let s = Revised.create p in
    ignore (Revised.solve s);
    for _step = 1 to 25 do
      let j = Random.State.int st n in
      let lo0 = Problem.var_lo p j and hi0 = Problem.var_hi p j in
      (match Random.State.int st 3 with
      | 0 ->
          let v = float_of_int (Random.State.int st (int_of_float hi0 + 1)) in
          Revised.set_bounds s j ~lo:v ~hi:v
      | 1 -> Revised.set_bounds s j ~lo:lo0 ~hi:hi0
      | _ ->
          let mid = float_of_int (Random.State.int st (int_of_float hi0 + 1)) in
          Revised.set_bounds s j ~lo:lo0 ~hi:mid);
      let fresh = Revised.create p in
      for k = 0 to n - 1 do
        let l, h = Revised.bounds s k in
        Revised.set_bounds fresh k ~lo:l ~hi:h
      done;
      match (Revised.solve s, Revised.solve fresh) with
      | Revised.Optimal, Revised.Optimal ->
          let d = Float.abs (Revised.objective s -. Revised.objective fresh) in
          if d > 1e-6 then
            Alcotest.failf "warm vs fresh objective drift %g" d
      | Revised.Infeasible, Revised.Infeasible -> ()
      | _, _ -> Alcotest.fail "warm vs fresh status mismatch"
    done
  done

(* ------------------------------------------------------------------ *)
(* The primal heuristic                                               *)
(* ------------------------------------------------------------------ *)

(* The diving heuristic must return feasible integral solutions and
   restore every bound it touched. *)
let heuristic_is_sound =
  QCheck.Test.make ~name:"diving heuristic is feasible and restores bounds"
    ~count:200
    (QCheck.make ~print:print_random_lp random_binary_gen)
    (fun spec ->
      let p = build_random_binary spec in
      let n = Problem.num_vars p in
      let s = Revised.create p in
      match Revised.solve s with
      | Revised.Infeasible | Revised.Iteration_limit -> true
      | Revised.Optimal ->
          let r = Heuristic.dive s p in
          let bounds_ok = ref true in
          for j = 0 to n - 1 do
            let l, h = Revised.bounds s j in
            if l <> Problem.var_lo p j || h <> Problem.var_hi p j then
              bounds_ok := false
          done;
          !bounds_ok
          &&
          (match r with
          | None -> true
          | Some (obj, x) ->
              Problem.check_feasible ~eps:1e-6 p x
              && Array.for_all
                   (fun v -> Float.abs (v -. Float.round v) < 1e-9)
                   x
              && Float.abs (obj -. Problem.objective_value p x) < 1e-6))

(* With rel_gap 0 the solver must report a best bound equal to the
   optimum it proves. *)
let test_bb_best_bound () =
  let p = Problem.create () in
  let a = Problem.add_binary p ~obj:(-10.) "a" in
  let b = Problem.add_binary p ~obj:(-6.) "b" in
  let c = Problem.add_binary p ~obj:(-4.) "c" in
  Problem.add_row p Problem.Le 2. [ (a, 1.); (b, 1.); (c, 1.) ];
  let r = Mip.solve ~rel_gap:0. p in
  checkb "optimal" true (r.Mip.status = Mip.Optimal);
  check (Alcotest.float 1e-6) "best bound meets objective" r.Mip.objective
    r.Mip.stats.Mip.best_bound

(* ------------------------------------------------------------------ *)
(* LP format                                                           *)
(* ------------------------------------------------------------------ *)

(* The Hashtbl fold [Problem.add_row] normalized rows with before it
   became a sort-and-merge, kept verbatim as the oracle. *)
let hashtbl_normalize terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (v, c) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (prev +. c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0. then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Rows compare bit for bit: same variables, same coefficient bits. *)
let show_row terms =
  String.concat " "
    (List.map (fun (v, c) -> Printf.sprintf "%d:%h" v c) terms)

let test_add_row_normalization () =
  let check_row what terms =
    let n = List.fold_left (fun n (v, _) -> max n (v + 1)) 0 terms in
    let p = Problem.create () in
    for j = 0 to n - 1 do
      ignore (Problem.add_var p (string_of_int j))
    done;
    Problem.add_row p Problem.Le 0. terms;
    checks what
      (show_row (hashtbl_normalize terms))
      (show_row (row_terms p 0))
  in
  (* hand cases: empty, explicit zeros of both signs, exact cancellation,
     and a sum whose rounding depends on the order of its terms *)
  List.iteri
    (fun i terms -> check_row (Printf.sprintf "hand case %d" i) terms)
    [
      [];
      [ (0, 0.) ];
      [ (1, -0.); (0, 2.) ];
      [ (2, 1.); (0, 3.); (2, -1.) ];
      [ (0, 0.1); (0, 0.2); (0, -0.3) ];
      [ (0, -0.3); (0, 0.1); (0, 0.2) ];
      [ (3, 1e-7); (1, 1.); (3, 1.); (3, -1.) ];
      [ (4, 1.); (3, 1.); (2, 1.); (1, 1.); (0, 1.) ];
    ];
  (* seeded, unsorted term lists with duplicates: few variables make
     duplicates and cancellations to 0 common *)
  let rng = Random.State.make [| 2024 |] in
  let coefs =
    [| 0.; -0.; 1.; -1.; 2.; -2.; 0.5; 0.1; 0.2; -0.3; 1e-7; -1e-7; 3.25 |]
  in
  for case = 1 to 3000 do
    let nvars = 1 + Random.State.int rng (if case mod 3 = 0 then 40 else 5) in
    let len = Random.State.int rng 25 in
    let terms =
      List.init len (fun _ ->
          ( Random.State.int rng nvars,
            coefs.(Random.State.int rng (Array.length coefs)) ))
    in
    check_row (Printf.sprintf "seeded case %d" case) terms
  done

(* ------------------------------------------------------------------ *)

(* tiny substring helper *)
let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_lp_format () =
  let p = Problem.create () in
  let x = Problem.add_binary p ~obj:2. "move[p1,v,A,B]" in
  Problem.add_row p ~name:"one" Problem.Eq 1. [ (x, 1.) ];
  let s = Lp_format.to_string p in
  checkb "mentions sanitized var" true (is_infix ~affix:"move_p1_v_A_B" s)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* The solver budgets meter wall-clock time through [Clock]; it must be
   monotonic (a wall-clock step must not blow or extend a budget). *)
let test_clock () =
  let t0 = Clock.now () in
  let samples = Array.init 1000 (fun _ -> Clock.now ()) in
  Array.iteri
    (fun i t ->
      if i > 0 then
        checkb "monotone non-decreasing" true (t >= samples.(i - 1)))
    samples;
  checkb "since non-negative" true (Clock.since t0 >= 0.);
  (* a t0 in the future (as after a backwards wall-clock step with a
     non-monotonic source) must clamp to zero, not go negative *)
  checkb "since clamps future origins" true
    (Clock.since (Clock.now () +. 100.) = 0.);
  (* the clock advances at all (spin briefly) *)
  let rec spin n = if Clock.since t0 <= 0. && n > 0 then spin (n - 1) in
  spin 10_000_000;
  checkb "clock advances" true (Clock.since t0 > 0.)

let suites =
  [
    ( "lp.bigint",
      [
        Alcotest.test_case "basic ops" `Quick test_bigint_basic;
        Alcotest.test_case "large values" `Quick test_bigint_large;
        Alcotest.test_case "string roundtrip" `Quick test_bigint_string_roundtrip;
        Alcotest.test_case "native extremes" `Quick test_bigint_extremes;
        Alcotest.test_case "gcd" `Quick test_bigint_gcd;
      ]
      @ List.map QCheck_alcotest.to_alcotest bigint_qcheck );
    ( "lp.rat",
      [
        Alcotest.test_case "basic ops" `Quick test_rat_basic;
        Alcotest.test_case "of_float" `Quick test_rat_of_float;
      ]
      @ List.map QCheck_alcotest.to_alcotest rat_qcheck );
    ( "lp.simplex",
      [
        Alcotest.test_case "dense exact classic" `Quick test_dense_exact_classic;
        Alcotest.test_case "dense float classic" `Quick test_dense_float_classic;
        Alcotest.test_case "dense infeasible" `Quick test_dense_infeasible;
        Alcotest.test_case "dense unbounded" `Quick test_dense_unbounded;
        Alcotest.test_case "revised classic" `Quick test_revised_classic_bounded;
        Alcotest.test_case "revised infeasible" `Quick test_revised_infeasible;
        Alcotest.test_case "revised equality system" `Quick
          test_revised_equality_system;
        Alcotest.test_case "revised warm restart" `Quick test_revised_warm_restart;
        Alcotest.test_case "sparse LU roundtrip" `Quick test_sparse_lu_roundtrip;
        Alcotest.test_case "sparse LU scales linearly" `Quick
          test_sparse_lu_scale;
        Alcotest.test_case "index sort matches Array.sort" `Quick
          test_sort_prefix;
        Alcotest.test_case "sparse LU factors reproduce the basis" `Quick
          test_sparse_lu_oracle;
        Alcotest.test_case "sparse LU written order" `Quick
          test_sparse_lu_written_order;
        Alcotest.test_case "pivot row reads only rho's rows" `Quick
          test_revised_pivot_row_hypersparse;
        Alcotest.test_case "revised vs exact (seeded, large)" `Quick
          test_revised_vs_exact_seeded;
        Alcotest.test_case "warm-restart chains match cold solves" `Quick
          test_revised_warm_chain_seeded;
        QCheck_alcotest.to_alcotest simplex_cross_check;
      ] );
    ( "lp.presolve",
      [
        Alcotest.test_case "fixed + singleton" `Quick
          test_presolve_fixed_and_singleton;
        Alcotest.test_case "alias chain" `Quick test_presolve_alias_chain;
        Alcotest.test_case "complement x+y=1" `Quick test_presolve_complement;
        Alcotest.test_case "detects infeasible" `Quick
          test_presolve_detects_infeasible;
        QCheck_alcotest.to_alcotest presolve_preserves_optimum;
        Alcotest.test_case "continuous bound rounds outward" `Quick
          test_presolve_inexact_bound;
        Alcotest.test_case "presolve written order" `Quick
          test_presolve_written_order;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 22 |])
          presolve_matches_mip_oracle;
        Alcotest.test_case "presolve scales linearly" `Quick
          test_presolve_scales_linearly;
      ] );
    ( "lp.mip",
      [
        Alcotest.test_case "knapsack" `Quick test_bb_knapsack;
        Alcotest.test_case "limit before any incumbent" `Quick
          test_bb_limit_without_incumbent;
        Alcotest.test_case "assignment" `Quick test_bb_assignment;
        Alcotest.test_case "infeasible" `Quick test_bb_infeasible;
        Alcotest.test_case "best bound at optimality" `Quick test_bb_best_bound;
        QCheck_alcotest.to_alcotest bb_matches_brute_force;
        QCheck_alcotest.to_alcotest heuristic_is_sound;
        Alcotest.test_case "time limit honoured inside dives" `Quick
          test_bb_time_limit_honoured;
        Alcotest.test_case "warm start proves the cold objective" `Quick
          test_mip_warm_start_equivalence;
        Alcotest.test_case "solve leaves the caller's problem untouched"
          `Quick test_mip_leaves_problem_untouched;
        Alcotest.test_case "root LP solved once" `Quick
          test_mip_root_solved_once;
        Alcotest.test_case "node budget exact, incumbent never rises" `Quick
          test_bb_incumbent_monotone;
      ] );
    ( "lp.problem",
      [
        Alcotest.test_case "add_row matches the Hashtbl fold" `Quick
          test_add_row_normalization;
      ] );
    ( "lp.format",
      [ Alcotest.test_case "writer sanitizes names" `Quick test_lp_format ] );
    ( "lp.clock",
      [ Alcotest.test_case "monotonic budget clock" `Quick test_clock ] );
  ]
