(* Remaining corners: diagnostics, source locations, the LP-format
   writer, interpreter guards, frequency on irreducible graphs, and the
   AMPL model summary printer. *)

open Support
module Insn = Ixp.Insn
module FG = Ixp.Flowgraph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ---------------- diagnostics and locations ---------------- *)

let test_diag_formatting () =
  match
    Diag.protect (fun () ->
        Diag.error
          ~loc:
            (Srcloc.make ~file:"foo.nova"
               ~start_pos:{ Srcloc.line = 3; col = 7; offset = 42 }
               ~end_pos:{ Srcloc.line = 3; col = 9; offset = 44 })
          "bad %s" "thing")
  with
  | Ok _ -> Alcotest.fail "no error raised"
  | Error d ->
      let s = Diag.to_string d in
      checkb "mentions file" true (is_infix ~affix:"foo.nova:3.7-9" s);
      checkb "mentions message" true (is_infix ~affix:"bad thing" s)

let test_parse_error_has_location () =
  match
    Diag.protect (fun () ->
        Nova.Parser.parse_string ~file:"err.nova" "fun f () {\n  let x = ;\n}")
  with
  | Ok _ -> Alcotest.fail "accepted"
  | Error d ->
      checkb "line 2" true (is_infix ~affix:"err.nova:2" (Diag.to_string d))

(* ---------------- LP-format writer ---------------- *)

let test_lp_format_sections () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_binary p ~obj:2. "x" in
  let y = Lp.Problem.add_var p ~lo:0. ~hi:10. ~obj:(-1.) "y" in
  Lp.Problem.add_row p ~name:"cap" Lp.Problem.Le 5. [ (x, 1.); (y, 1.) ];
  let s = Lp.Lp_format.to_string p in
  List.iter
    (fun sec -> checkb sec true (is_infix ~affix:sec s))
    [ "Minimize"; "Subject To"; "Bounds"; "Binaries"; "End"; "cap:" ]

(* ---------------- interpreter guards ---------------- *)

let test_interp_step_limit () =
  let f = Ident.fresh "f" in
  let loop =
    Cps.Ir.Fix
      ( [ { Cps.Ir.name = f; params = []; kind = Cps.Ir.Cont;
            body = Cps.Ir.App (Cps.Ir.Var f, []) } ],
        Cps.Ir.App (Cps.Ir.Var f, []) )
  in
  checkb "diverging program hits the step limit" true
    (try
       ignore (Cps.Interp.run_term ~max_steps:1000 loop);
       false
     with Cps.Interp.Interp_error _ -> true)

let test_interp_memory_fault () =
  let x = Ident.fresh "x" in
  let t =
    Cps.Ir.MemRead
      (Nova.Ast.Sram, Cps.Ir.Int 2 (* misaligned *), [| x |], Cps.Ir.Halt [])
  in
  checkb "misaligned read faults" true
    (try
       ignore (Cps.Interp.run_term t);
       false
     with Ixp.Memory.Fault _ -> true)

(* ---------------- frequency on an irreducible graph ---------------- *)

let test_frequency_irreducible () =
  (* two blocks jumping into each other's middle: classic irreducible
     shape; the estimator must terminate and give finite weights *)
  let g = FG.create () in
  let x = Ident.fresh "x" in
  ignore
    (FG.add_block g ~label:"entry" ~insns:[ Insn.Imm { dst = x; value = 0 } ]
       ~term:
         (Insn.Branch
            { cond = Insn.Eq; x; y = Insn.Lit 0; ifso = "a"; ifnot = "b" }));
  ignore
    (FG.add_block g ~label:"a" ~insns:[]
       ~term:
         (Insn.Branch
            { cond = Insn.Ne; x; y = Insn.Lit 1; ifso = "b"; ifnot = "out" }));
  ignore
    (FG.add_block g ~label:"b" ~insns:[]
       ~term:
         (Insn.Branch
            { cond = Insn.Ne; x; y = Insn.Lit 2; ifso = "a"; ifnot = "out" }));
  ignore (FG.add_block g ~label:"out" ~insns:[] ~term:Insn.Halt);
  let freq = Ixp.Frequency.compute g in
  List.iter
    (fun l ->
      let f = Ixp.Frequency.block_frequency freq l in
      checkb (l ^ " finite") true (Float.is_finite f && f >= 0.))
    [ "entry"; "a"; "b"; "out" ];
  checkb "cycle blocks hotter than entry" true
    (Ixp.Frequency.block_frequency freq "a" > 0.)

(* ---------------- model summary printer ---------------- *)

let test_model_summary () =
  let m = Ampl.Model.create () in
  ignore (Ampl.Model.declare_binary m "Move" 3 ~index:Ampl.Model.add_nat);
  let s = Fmt.str "%a" Ampl.Model.pp_summary m in
  checkb "mentions family" true (is_infix ~affix:"var Move {3 tuples} binary" s)

(* ---------------- vec / srcloc odds ---------------- *)

let test_srcloc_merge () =
  let mk l c o = { Srcloc.line = l; col = c; offset = o } in
  let a = Srcloc.make ~file:"f" ~start_pos:(mk 1 1 0) ~end_pos:(mk 1 5 4) in
  let b = Srcloc.make ~file:"f" ~start_pos:(mk 2 1 10) ~end_pos:(mk 2 8 17) in
  let m = Srcloc.merge a b in
  checki "start line" 1 (Srcloc.start_line m);
  checks "spans lines" "f:1.1-2.8" (Srcloc.to_string m)

let suites =
  [
    ( "misc",
      [
        Alcotest.test_case "diagnostic formatting" `Quick test_diag_formatting;
        Alcotest.test_case "parse error location" `Quick
          test_parse_error_has_location;
        Alcotest.test_case "lp format sections" `Quick test_lp_format_sections;
        Alcotest.test_case "interp step limit" `Quick test_interp_step_limit;
        Alcotest.test_case "interp memory fault" `Quick test_interp_memory_fault;
        Alcotest.test_case "irreducible frequency" `Quick
          test_frequency_irreducible;
        Alcotest.test_case "model summary" `Quick test_model_summary;
        Alcotest.test_case "srcloc merge" `Quick test_srcloc_merge;
      ] );
  ]
