(* Tests for the AMPL-style modeling layer. *)

module M = Ampl.Model

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* [lhs = rhs] over the listed members, each with coefficient 1. *)
let sum_eq model ~name members rhs =
  List.iter (M.term model 1.) members;
  M.row model ~name Lp.Problem.Eq rhs

(* A small assignment problem through the modeling layer: member
   [2 * t + w] assigns task t to worker w. *)
let test_model_assignment () =
  let model = M.create () in
  let names = [| "t1,w1"; "t1,w2"; "t2,w1"; "t2,w2" |] in
  let x =
    M.members
      (M.declare_binary model "X" 4 ~index:(fun b j ->
           Buffer.add_string b names.(j)))
  in
  let at t w = x.((2 * t) + w) in
  (* each task to exactly one worker and vice versa *)
  for t = 0 to 1 do
    sum_eq model ~name:"task" [ at t 0; at t 1 ] 1.
  done;
  for w = 0 to 1 do
    sum_eq model ~name:"worker" [ at 0 w; at 1 w ] 1.
  done;
  (* costs: t1/w1 = 5, t1/w2 = 1, t2/w1 = 2, t2/w2 = 9 *)
  List.iteri (fun j c -> M.objective_term model c x.(j)) [ 5.; 1.; 2.; 9. ];
  let p = M.problem model in
  checkb "variable named by its printed index" true
    (Lp.Problem.var_name p 0 = "X[t1,w1]");
  let r = Lp.Mip.solve p in
  checkb "optimal" true (r.Lp.Mip.status = Lp.Mip.Optimal);
  Alcotest.(check (float 1e-6)) "objective" 3. r.Lp.Mip.objective;
  let one = M.member_is_one model (Option.get r.Lp.Mip.solution) in
  checkb "t1->w2" true (one (at 0 1));
  checkb "t2->w1" true (one (at 1 0));
  checkb "t1->w1 unset" false (one (at 0 0))

(* A member of another model's family is an internal error, whether it
   is stated in a row, in the objective or read back. *)
let test_model_strictness () =
  let rejects what ~msg f =
    match f () with
    | _ -> Alcotest.failf "%s: foreign member accepted" what
    | exception Support.Diag.Compile_error d ->
        Alcotest.(check string)
          what
          ("internal compiler error: Ampl: " ^ msg)
          d.Support.Diag.message
  in
  let model = M.create () and other = M.create () in
  let w =
    (M.members (M.declare_binary other "W" 1 ~index:(fun _ _ -> ()))).(0)
  in
  let msg = "family W belongs to another model" in
  rejects "row" ~msg (fun () -> sum_eq model ~name:"foreign" [ w ] 1.);
  rejects "objective" ~msg (fun () -> M.objective_term model 1. w);
  M.objective_term other 1. w;
  rejects "read back" ~msg (fun () -> M.member_is_one model [| 1. |] w);
  rejects "duplicate family" ~msg:"duplicate variable family W" (fun () ->
      M.declare_binary other "W" 1 ~index:(fun _ _ -> ()))

let test_unreferenced_default () =
  let model = M.create () in
  let z =
    M.members
      (M.declare_binary model "Z" 3 ~index:(fun b j -> M.add_nat b (j + 1)))
  in
  sum_eq model ~name:"only_one" [ z.(0) ] 1.;
  let p = M.problem model in
  let r = Lp.Mip.solve p in
  checkb "optimal" true (r.Lp.Mip.status = Lp.Mip.Optimal);
  let one = M.member_is_one model (Option.get r.Lp.Mip.solution) in
  (* Z[2] was never referenced: reported as 0 *)
  checkb "default zero" false (one z.(1));
  checkb "referenced member" true (one z.(0));
  checki "only referenced members get variables" 1 (Lp.Problem.num_vars p)

let suites =
  [
    ( "ampl",
      [
        Alcotest.test_case "assignment model" `Quick test_model_assignment;
        Alcotest.test_case "index strictness" `Quick test_model_strictness;
        Alcotest.test_case "unreferenced default" `Quick test_unreferenced_default;
      ] );
  ]
