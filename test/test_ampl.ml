(* Tests for the AMPL-style modeling layer. *)

module D = Ampl.Dataset
module M = Ampl.Model

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_dataset_basics () =
  let s = D.of_list 2 [ [ D.S "a"; D.I 1 ]; [ D.S "b"; D.I 2 ]; [ D.S "a"; D.I 1 ] ] in
  checki "dedup" 2 (D.size s);
  checkb "mem" true (D.mem s [ D.S "a"; D.I 1 ]);
  checkb "not mem" false (D.mem s [ D.S "a"; D.I 2 ]);
  let p = D.product (D.of_strings [ "x"; "y" ]) (D.of_ints [ 1; 2; 3 ]) in
  checki "product" 6 (D.size p);
  checki "arity" 2 (D.arity p);
  let proj = D.project [ 0 ] p in
  checki "project" 2 (D.size proj)

let test_dataset_ops () =
  let a = D.of_ints [ 1; 2; 3 ] and b = D.of_ints [ 3; 4 ] in
  checki "union" 4 (D.size (D.union a b));
  checki "inter" 1 (D.size (D.inter a b));
  checki "diff" 2 (D.size (D.diff a b));
  checkb "arity mismatch" true
    (try
       ignore (D.union a (D.product a a));
       false
     with Invalid_argument _ -> true)

(* [lhs = rhs] over members of [fam], each with coefficient 1. *)
let sum_eq model ~name fam tuples rhs =
  List.iter (fun tup -> M.term model 1. (M.member fam tup)) tuples;
  M.row model ~name Lp.Problem.Eq rhs

(* A small assignment problem through the modeling layer. *)
let test_model_assignment () =
  let model = M.create () in
  let tasks = D.of_strings [ "t1"; "t2" ] in
  let workers = D.of_strings [ "w1"; "w2" ] in
  let idx = D.product tasks workers in
  let x = M.declare_binary_family model "X" ~index:idx in
  (* each task to exactly one worker and vice versa *)
  D.iter
    (fun t ->
      sum_eq model ~name:"task" x
        (List.map (fun w -> t @ w) (D.elements workers))
        1.)
    tasks;
  D.iter
    (fun w ->
      sum_eq model ~name:"worker" x
        (List.map (fun t -> t @ w) (D.elements tasks))
        1.)
    workers;
  (* costs: t1/w1 = 5, t1/w2 = 1, t2/w1 = 2, t2/w2 = 9 *)
  let cost c tup = M.objective_term model c (M.member x tup) in
  cost 5. [ D.S "t1"; D.S "w1" ];
  cost 1. [ D.S "t1"; D.S "w2" ];
  cost 2. [ D.S "t2"; D.S "w1" ];
  cost 9. [ D.S "t2"; D.S "w2" ];
  let inst = M.instantiate model in
  let r = Lp.Mip.solve inst.M.problem in
  checkb "optimal" true (r.Lp.Mip.status = Lp.Mip.Optimal);
  Alcotest.(check (float 1e-6)) "objective" 3. r.Lp.Mip.objective;
  checkb "t1->w2" true
    (M.is_one inst (Option.get r.Lp.Mip.solution) x [ D.S "t1"; D.S "w2" ]);
  checkb "t2->w1" true
    (M.is_one inst (Option.get r.Lp.Mip.solution) x [ D.S "t2"; D.S "w1" ])

(* The member table is the membership check: an out-of-set reference
   is an internal error whether it is the family's first reference or
   comes after members already have LP variables, in the objective or
   in a row, and whatever the tuple's arity.  A member of another
   model's family is an internal error too. *)
let test_model_strictness () =
  let rejects what ~msg build =
    let model = M.create () in
    let y =
      M.declare_binary_family model "Y"
        ~index:(D.product (D.of_ints [ 1; 2 ]) (D.of_strings [ "a"; "b" ]))
    in
    build model y;
    match M.instantiate model with
    | _ -> Alcotest.failf "%s: bad reference accepted" what
    | exception Support.Diag.Compile_error d ->
        Alcotest.(check string)
          what
          ("internal compiler error: Ampl: " ^ msg)
          d.Support.Diag.message
  in
  let outside culprit = culprit ^ " is outside the index set of Y" in
  let ok = [ D.I 1; D.S "a" ] in
  rejects "first reference" ~msg:(outside "Y[3,a]") (fun model y ->
      sum_eq model ~name:"bad" y [ [ D.I 3; D.S "a" ] ] 1.);
  rejects "after members" ~msg:(outside "Y[1,c]") (fun model y ->
      sum_eq model ~name:"good" y [ ok ] 1.;
      M.term model 1. (M.member y ok);
      M.term model 1. (M.member y [ D.I 1; D.S "c" ]);
      M.row model ~name:"bad" Lp.Problem.Le 1.);
  rejects "objective after members" ~msg:(outside "Y[a,1]") (fun model y ->
      M.objective_term model 1. (M.member y ok);
      M.objective_term model 1. (M.member y [ D.S "a"; D.I 1 ]));
  rejects "wrong arity" ~msg:(outside "Y[1]") (fun model y ->
      sum_eq model ~name:"good" y [ ok ] 1.;
      sum_eq model ~name:"bad" y [ [ D.I 1 ] ] 1.);
  rejects "another model's family"
    ~msg:"family W belongs to another model" (fun model _ ->
      let other = M.create () in
      let w =
        M.declare_binary_family other "W" ~index:(D.of_ints [ 1 ])
      in
      sum_eq model ~name:"foreign" w [ [ D.I 1 ] ] 1.)

let test_unreferenced_default () =
  let model = M.create () in
  let z = M.declare_binary_family model "Z" ~index:(D.of_ints [ 1; 2; 3 ]) in
  sum_eq model ~name:"only_one" z [ [ D.I 1 ] ] 1.;
  let inst = M.instantiate model in
  let r = Lp.Mip.solve inst.M.problem in
  checkb "optimal" true (r.Lp.Mip.status = Lp.Mip.Optimal);
  (* Z[2] was never referenced: reported as 0 *)
  Alcotest.(check (float 0.)) "default zero" 0.
    (M.value inst (Option.get r.Lp.Mip.solution) z [ D.I 2 ]);
  Alcotest.(check (float 0.)) "referenced member" 1.
    (M.value inst (Option.get r.Lp.Mip.solution) z [ D.I 1 ]);
  checki "only referenced members get variables" 1
    (Lp.Problem.num_vars inst.M.problem)

let suites =
  [
    ( "ampl",
      [
        Alcotest.test_case "dataset basics" `Quick test_dataset_basics;
        Alcotest.test_case "dataset ops" `Quick test_dataset_ops;
        Alcotest.test_case "assignment model" `Quick test_model_assignment;
        Alcotest.test_case "index strictness" `Quick test_model_strictness;
        Alcotest.test_case "unreferenced default" `Quick test_unreferenced_default;
      ] );
  ]
