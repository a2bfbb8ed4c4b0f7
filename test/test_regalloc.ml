(* Integration tests for the ILP register allocator: model generation,
   the §9 SSA/SSU impossibility examples, solution validity, emission,
   and end-to-end simulator-vs-interpreter equivalence. *)

module Insn = Ixp.Insn

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let compile ?(options = Regalloc.Driver.default_options) src =
  Regalloc.Driver.compile ~options ~file:"test.nova" src

(* run compiled code on the simulator and the CPS interpreter; both must
   agree on the result words *)
let check_equivalence ?(init_sram = [||]) ?(label = "equivalence") src =
  let c = compile src in
  let interp_result, _ =
    Regalloc.Driver.interpret
      ~init:(fun st ->
        Array.iteri
          (fun i v -> Ixp.Memory.poke (Cps.Interp.memory st) Insn.Sram (25 + i) v)
          init_sram)
      c
  in
  let _, sim_results, _ =
    Regalloc.Driver.simulate
      ~init:(fun sim ->
        Array.iteri
          (fun i v ->
            Ixp.Memory.poke (Ixp.Simulator.shared_memory sim) Insn.Sram (25 + i) v)
          init_sram)
      c
  in
  List.iteri
    (fun i v -> checki (Printf.sprintf "%s[%d]" label i) v sim_results.(i))
    interp_result;
  c

(* ---------------- whole-pipeline equivalence ---------------- *)

let test_alloc_arith () =
  ignore (check_equivalence "fun main () : word { (3 + 4) * 5 - 6 }")

let test_alloc_loop_and_memory () =
  let c =
    check_equivalence ~init_sram:[| 10; 20; 30; 40 |]
      {|
fun main () : word {
  let (a, b, c, d) = sram(100);
  var acc = 0;
  var i = 0;
  while (i < 3) {
    acc := acc + a + b - c;
    i := i + 1;
  }
  sram(200) <- (acc, d);
  acc + d
}
|}
  in
  checki "no spills" 0 c.Regalloc.Driver.stats.Regalloc.Driver.spills_inserted

let test_alloc_aggregate_pressure () =
  (* two 4-word reads whose values overlap: the first read's values must
     vacate the transfer bank (the paper's §2.1 mini-IXP example) *)
  ignore
    (check_equivalence
       ~init_sram:[| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 |]
       {|
fun main () : word {
  let (u, v, w, x) = sram(100);
  let (e, f, g, h) = sram(116);
  let (i, j, k, l) = sram(132);
  sram(200) <- (u, e, i, x);
  sram(216) <- (v, f, j, w);
  (u + e + i) * 1000 + (g + h + k + l)
}
|})

let test_alloc_write_conflict_needs_clone () =
  (* same temporary at two different positions of two stores: impossible
     without cloning (§9's write-side example) *)
  ignore
    (check_equivalence ~init_sram:[| 7; 8; 9; 10 |]
       {|
fun main () : word {
  let (x, a, b) = sram(100);
  let (c, _d, _e) = sram(112);
  sram(200) <- (x, a, b, c);
  sram(216) <- (a, x, b, c);
  x
}
|})

let test_alloc_hash_same_reg () =
  ignore
    (check_equivalence ~init_sram:[| 0xBEEF |]
       {|
fun main () : word {
  let v = sram(100, 1);
  let h = hash(v);
  h & 0xFFFF
}
|})

let test_alloc_exceptions_and_control () =
  ignore
    (check_equivalence ~init_sram:[| 42 |]
       {|
fun f (e : exn([v : word]), x : word) : word {
  if (x > 100) { raise e [v = x]; }
  x + 1
}
fun main () : word {
  let a = sram(100, 1);
  try { f(Big, a) + f(Big2, a * 10) }
  handle Big [v] { v }
  handle Big2 [v] { v - 1 }
}
|})

(* ---------------- machine validity ---------------- *)

let test_checker_runs_on_output () =
  let c =
    compile
      {|
fun main () : word {
  let (a, b) = sram(100);
  sdram(0) <- (a, b);
  a ^ b
}
|}
  in
  checki "no checker violations" 0
    (List.length (Ixp.Checker.check c.Regalloc.Driver.physical))

let test_assignment_validates () =
  let c =
    compile
      {|
fun main () : word {
  let (a, b, c, d) = sram(64);
  let s = a + b;
  let t = c + d;
  sram(128) <- (s, t);
  s * t
}
|}
  in
  checkb "assignment valid" true
    (Regalloc.Assignment.validate c.Regalloc.Driver.assignment = [])

(* ---------------- §9: SSA makes colorings consistent ---------------- *)

let test_ssa_makes_coloring_feasible () =
  (* The paper's §9 example: (a,b,X,Y) <- sram(..); (Y,X,u,v) <- sram(..)
     has no consistent coloring pre-SSA.  Our pipeline is SSA by
     construction, so the Nova equivalent (rebinding names) compiles. *)
  ignore
    (check_equivalence ~init_sram:(Array.init 8 (fun i -> i * 3))
       {|
fun main () : word {
  let (a, b, x, y) = sram(100);
  let (y2, x2, u, v) = sram(116);
  (a + b + x + y) * 10000 + (y2 + x2 + u + v)
}
|})

(* ---------------- baseline allocator ---------------- *)

let test_baseline_allocates_and_agrees () =
  let options =
    {
      Regalloc.Driver.default_options with
      allocator = Regalloc.Driver.Baseline_allocator;
    }
  in
  let src =
    {|
fun main () : word {
  let (a, b, c) = sram(100);
  let s = a + b;
  sram(200) <- (s, c);
  s - c
}
|}
  in
  let c = compile ~options src in
  checki "baseline passes the machine checker" 0
    (List.length (Ixp.Checker.check c.Regalloc.Driver.physical));
  let interp_result, _ =
    Regalloc.Driver.interpret
      ~init:(fun st ->
        Array.iteri
          (fun i v -> Ixp.Memory.poke (Cps.Interp.memory st) Insn.Sram (25 + i) v)
          [| 5; 6; 7 |])
      c
  in
  let _, sim_results, _ =
    Regalloc.Driver.simulate
      ~init:(fun sim ->
        Array.iteri
          (fun i v ->
            Ixp.Memory.poke (Ixp.Simulator.shared_memory sim) Insn.Sram (25 + i) v)
          [| 5; 6; 7 |])
      c
  in
  List.iteri (fun i v -> checki "baseline result" v sim_results.(i)) interp_result

let test_ilp_beats_baseline () =
  let src =
    {|
fun main () : word {
  let (a, b, c, d) = sram(100);
  var acc = 0;
  var i = 0;
  while (i < 10) {
    acc := acc + a + b + c + d;
    i := i + 1;
  }
  acc
}
|}
  in
  let ilp = compile src in
  let base =
    compile
      ~options:
        {
          Regalloc.Driver.default_options with
          allocator = Regalloc.Driver.Baseline_allocator;
        }
      src
  in
  checkb "ILP cost <= baseline cost" true
    (ilp.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost
    <= base.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost +. 1e-6)

(* ---------------- model statistics ---------------- *)

let test_model_stats () =
  let front =
    Regalloc.Driver.front_end ~file:"t.nova"
      {|
fun main () : word {
  let (a, b, c, d) = sram(100);
  let (e, f) = sdram(0);
  sram(200) <- (a, b);
  sdram(8) <- (c & e, d & f);
  0
}
|}
  in
  let mg = Regalloc.Modelgen.build front.Regalloc.Driver.f_graph in
  let c = Regalloc.Modelgen.coloring_stats mg in
  checki "DefL members" 4 c.Regalloc.Modelgen.def_l;
  checki "DefLD members" 2 c.Regalloc.Modelgen.def_ld;
  (* 2 from the sram store + 1 from the scratch write of main's result *)
  checki "UseS members" 3 c.Regalloc.Modelgen.use_s;
  checki "UseSD members" 2 c.Regalloc.Modelgen.use_sd

let test_spill_fallback () =
  (* enormous register pressure: 20 values live across a loop forces the
     two-phase driver into the spill-enabled model or heavy B moves; the
     result must still validate and agree. *)
  let src =
    {|
fun main () : word {
  let (a1, a2, a3, a4, a5, a6, a7, a8) = sram(0, 8);
  let (b1, b2, b3, b4, b5, b6, b7, b8) = sram(32, 8);
  let (c1, c2, c3, c4, c5, c6, c7, c8) = sram(64, 8);
  let (d1, d2, d3, d4, d5, d6, d7, d8) = sram(96, 8);
  var acc = 0;
  var i = 0;
  while (i < 2) {
    acc := acc + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8;
    acc := acc + b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8;
    acc := acc + c1 + c2 + c3 + c4 + c5 + c6 + c7 + c8;
    acc := acc + d1 + d2 + d3 + d4 + d5 + d6 + d7 + d8;
    i := i + 1;
  }
  acc
}
|}
  in
  let c = compile src in
  checki "machine-checked" 0
    (List.length (Ixp.Checker.check c.Regalloc.Driver.physical));
  let init st =
    for i = 0 to 31 do
      Ixp.Memory.poke (Cps.Interp.memory st) Insn.Sram i (i * 7)
    done
  in
  let interp_result, _ = Regalloc.Driver.interpret ~init c in
  let _, sim_results, _ =
    Regalloc.Driver.simulate
      ~init:(fun sim ->
        for i = 0 to 31 do
          Ixp.Memory.poke (Ixp.Simulator.shared_memory sim) Insn.Sram i (i * 7)
        done)
      c
  in
  List.iteri (fun i v -> checki "high-pressure result" v sim_results.(i))
    interp_result

let test_fifo_and_csr_path () =
  (* the receive/transmit harness instructions: rfifo -> sdram -> tfifo,
     with csr reads and a voluntary thread swap *)
  let src =
    {|
fun main () : word {
  let me = csr(ctx);
  let (w0, w1, w2, w3) = rfifo(0, 4);
  sdram(64) <- (w0, w1, w2, w3);
  ctx_arb();
  let (r0, r1) = sdram(64);
  tfifo(0) <- (r0 ^ me, r1);
  csr(status) <- r0;
  r0 + r1
}
|}
  in
  let c = compile src in
  checki "machine-legal" 0
    (List.length (Ixp.Checker.check c.Regalloc.Driver.physical));
  let packet = [| 0xAA; 0xBB; 0xCC; 0xDD |] in
  let sim = Ixp.Simulator.create c.Regalloc.Driver.physical in
  Ixp.Simulator.set_rfifo sim ~thread:0 packet;
  ignore (Ixp.Simulator.run_single sim);
  let out = Ixp.Simulator.read_tfifo sim ~thread:0 in
  checki "tfifo words" 2 (Array.length out);
  checki "tfifo[0]" 0xAA out.(0);
  checki "tfifo[1]" 0xBB out.(1);
  (* interpreter agrees on the result *)
  let interp_result, _ =
    Regalloc.Driver.interpret
      ~init:(fun st -> st.Cps.Interp.rfifo <- packet)
      c
  in
  checkb "result agrees" true (interp_result = [ 0xAA + 0xBB ])

(* ---------------- §12 rematerialization ---------------- *)

(* The deterministic solver budget the pinned searches below run under:
   AES and NAT stop at it with an incumbent. *)
let node_budget = 128

let test_rematerialization () =
  let src =
    {|
fun main () : word {
  var acc = 0;
  var i = 0;
  while (i < 6) {
    acc := (acc + 0xDEAD01) ^ (i * 0xBEEF02);
    i := i + 1;
  }
  acc
}
|}
  in
  let plain = compile src in
  let remat =
    compile
      ~options:
        { Regalloc.Driver.default_options with rematerialize = true }
      src
  in
  (* identical semantics *)
  let run c =
    let _, results, _ = Regalloc.Driver.simulate c in
    results.(0)
  in
  checki "same result" (run plain) (run remat);
  checki "remat passes the checker" 0
    (List.length (Ixp.Checker.check remat.Regalloc.Driver.physical));
  (* the rematerialized version must not be slower: the constants stay
     in registers across the loop instead of being re-materialized *)
  let cycles c =
    let sim = Ixp.Simulator.create c.Regalloc.Driver.physical in
    Ixp.Simulator.run_single sim
  in
  checkb "remat not slower" true (cycles remat <= cycles plain);
  (* the workloads: block parameters that an [Imm] initializes on one
     path and a move on another (LPM), an aggregate write of three equal
     constants (NAT) *)
  List.iter
    (fun (name, source) ->
      let c =
        Regalloc.Driver.compile
          ~options:
            {
              Regalloc.Driver.default_options with
              rematerialize = true;
              node_limit = node_budget;
              time_limit = 1e9;
            }
          ~file:name source
      in
      checki (name ^ ": remat passes the checker") 0
        (List.length (Ixp.Checker.check c.Regalloc.Driver.physical)))
    [
      ("kasumi.nova", Workloads.Kasumi.source);
      ("lpm.nova", Workloads.Lpm.source);
      ("firewall.nova", Workloads.Firewall.source);
      ("csum.nova", Workloads.Csum.source);
      ("qos.nova", Workloads.Qos.source);
      ("aes.nova", Workloads.Aes.source);
      ("nat.nova", Workloads.Nat.source);
    ]

(* Under rematerialization a constant reaches a register through an
   immediate load out of bank C.  Those are counted apart from the
   register-to-register moves: every [Imm] of the emitted code is either
   an immediate load or one of the program's own non-constant [Imm]s,
   and every [Move] either a counted move or the second half of a
   parallel-copy cycle broken through A15 (Kasumi spills nothing). *)
let test_remat_counts_imms_apart () =
  let count pred g =
    let n = ref 0 in
    Ixp.Flowgraph.iter_blocks
      (fun b -> Array.iter (fun i -> if pred i then incr n) b.Ixp.Flowgraph.insns)
      g;
    !n
  in
  let is_imm = function Insn.Imm _ -> true | _ -> false in
  let is_move = function Insn.Move _ -> true | _ -> false in
  let is_cycle_break = function
    | Insn.Move { dst; _ } -> Ixp.Reg.equal dst (Ixp.Reg.make Ixp.Bank.A 15)
    | _ -> false
  in
  List.iter
    (fun (what, rematerialize) ->
      let c =
        Regalloc.Driver.compile
          ~options:
            {
              Regalloc.Driver.default_options with
              rematerialize;
              node_limit = node_budget;
              time_limit = 1e9;
            }
          ~file:"kasumi.nova" Workloads.Kasumi.source
      in
      let s = c.Regalloc.Driver.stats in
      let mg = c.Regalloc.Driver.mg in
      let own_imms =
        count
          (function
            | Insn.Imm { dst; _ } -> Regalloc.Modelgen.const_of mg dst = None
            | _ -> false)
          c.Regalloc.Driver.virtual_graph
      in
      let physical = c.Regalloc.Driver.physical in
      checki (what ^ ": spills") 0 s.Regalloc.Driver.spills_inserted;
      checki (what ^ ": every other Imm is an immediate load")
        (count is_imm physical - own_imms)
        s.Regalloc.Driver.imms_inserted;
      checki (what ^ ": moves count register moves only")
        (count is_move physical - count is_cycle_break physical)
        s.Regalloc.Driver.moves_inserted;
      if rematerialize then
        checkb (what ^ ": constants loaded") true (s.Regalloc.Driver.imms_inserted > 0)
      else checki (what ^ ": no immediate loads") 0 s.Regalloc.Driver.imms_inserted)
    [ ("plain", false); ("remat", true) ]

(* An infeasible remat model is not a failed compile: the driver
   allocates without rematerialization, through the plain spill-free
   model, and emits what the plain compile emits. *)
let test_remat_infeasible_falls_back () =
  let options =
    {
      Regalloc.Driver.default_options with
      rematerialize = true;
      node_limit = node_budget;
      time_limit = 1e9;
    }
  in
  let front =
    Regalloc.Driver.front_end ~rematerialize:true ~file:"kasumi.nova"
      Workloads.Kasumi.source
  in
  let direct = Regalloc.Driver.direct_model_solve options in
  let asked = ref [] in
  let model_solve ~variant graph =
    asked := variant :: !asked;
    if variant = "remat" then
      (Regalloc.Modelgen.build ~rematerialize:true graph, Error `Infeasible)
    else direct ~variant graph
  in
  let c = Regalloc.Driver.allocate_with ~model_solve options front in
  Alcotest.(check (list string)) "variants asked" [ "remat"; "nospill" ]
    (List.rev !asked);
  let plain =
    Regalloc.Driver.compile
      ~options:{ options with rematerialize = false }
      ~file:"kasumi.nova" Workloads.Kasumi.source
  in
  let cost (c : Regalloc.Driver.compiled) =
    c.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost
  in
  if cost c <> cost plain then
    Alcotest.failf "move cost %.17g, plain compile %.17g" (cost c) (cost plain);
  checki "no immediate loads" 0
    c.Regalloc.Driver.stats.Regalloc.Driver.imms_inserted;
  checkb "the plain compile's code" true
    (String.equal
       (Ixp.Asm.program_to_string c.Regalloc.Driver.physical)
       (Ixp.Asm.program_to_string plain.Regalloc.Driver.physical))

(* The stage spans every compile must record: the front end, each
   middle-end pass, model build, the solver's phases and emit. *)
let required_spans =
  [
    "parse"; "typecheck"; "cps-convert"; "contract"; "deproc"; "ssu"; "isel";
    "modelgen"; "ilp-build"; "presolve"; "root-lp"; "branch-and-bound"; "emit";
  ]

(* Cold compiles of all seven workloads, as a fresh `novac compile` runs
   them on one domain: the five dataplane and Kasumi models are proved
   optimal at the root along one fixed pivot path; AES and NAT branch
   until the node budget stops them.  The outcome, node and simplex
   iteration counts, moves and move costs are pinned exactly: a solver
   change that reorders a floating-point sum, breaks a ratio-test tie
   differently or visits the tree in another order moves them.  Each
   compile runs traced and must record every stage span. *)
let test_cold_pivot_path () =
  let options =
    {
      Regalloc.Driver.default_options with
      node_limit = node_budget;
      time_limit = 1e9;
    }
  in
  List.iter
    (fun (name, source, outcome, nodes, iters, moves, cost) ->
      Support.Trace.enable ();
      let c =
        Fun.protect ~finally:Support.Trace.disable (fun () ->
            Regalloc.Driver.compile ~options ~file:name source)
      in
      let spans = Support.Trace.span_totals () in
      Support.Trace.reset ();
      List.iter
        (fun span ->
          if not (List.mem_assoc span spans) then
            Alcotest.failf "%s: no %S span in the trace" name span)
        required_spans;
      let s = c.Regalloc.Driver.stats in
      let mip = Option.get s.Regalloc.Driver.mip in
      Alcotest.(check string)
        (name ^ ": outcome")
        (Regalloc.Driver.solver_outcome_to_string outcome)
        (Regalloc.Driver.solver_outcome_to_string
           s.Regalloc.Driver.solver_outcome);
      checki (name ^ ": simplex iterations") iters mip.Lp.Mip.simplex_iterations;
      checki (name ^ ": nodes") nodes mip.Lp.Mip.nodes;
      checki (name ^ ": moves inserted") moves s.Regalloc.Driver.moves_inserted;
      let got = s.Regalloc.Driver.weighted_move_cost in
      if got <> cost then
        Alcotest.failf "%s: move cost %.17g, expected %.17g" name got cost)
    Regalloc.Driver.
      [
        ( "kasumi.nova", Workloads.Kasumi.source, Outcome_optimal, 1, 353, 4,
          0.14308868091327917 );
        ( "lpm.nova", Workloads.Lpm.source, Outcome_optimal, 1, 94, 2,
          0.1018688700318731 );
        ( "firewall.nova", Workloads.Firewall.source, Outcome_optimal, 1, 141,
          3, 0.019305567728240509 );
        ( "csum.nova", Workloads.Csum.source, Outcome_optimal, 1, 228, 2,
          0.0060890768694370941 );
        ( "qos.nova", Workloads.Qos.source, Outcome_optimal, 1, 1081, 5,
          0.63312208153367688 );
        (* branching searches, stopped by the node budget *)
        ( "aes.nova", Workloads.Aes.source, Outcome_incumbent, 128, 2366, 16,
          0.023630614772156427 );
        ( "nat.nova", Workloads.Nat.source, Outcome_incumbent, 128, 5882, 27,
          4.4873869440000007 );
      ]

(* A compile's result depends on its source and options alone, not on
   what the process compiled before: five workloads compiled in forward
   order, then in reverse order, then each once more through the stage-
   cached path the daemon serves (empty memos, fresh store) emit the same
   code along the same search. *)
let test_history_independent () =
  let options =
    {
      Regalloc.Driver.default_options with
      node_limit = node_budget;
      time_limit = 1e9;
    }
  in
  let workloads =
    [
      ("kasumi.nova", Workloads.Kasumi.source);
      ("lpm.nova", Workloads.Lpm.source);
      ("firewall.nova", Workloads.Firewall.source);
      ("csum.nova", Workloads.Csum.source);
      ("qos.nova", Workloads.Qos.source);
    ]
  in
  let summary (c : Regalloc.Driver.compiled) =
    let s = c.Regalloc.Driver.stats in
    let mip = Option.get s.Regalloc.Driver.mip in
    ( Ixp.Asm.program_to_string c.Regalloc.Driver.physical,
      mip.Lp.Mip.simplex_iterations,
      mip.Lp.Mip.nodes,
      s.Regalloc.Driver.weighted_move_cost )
  in
  let run order =
    List.map
      (fun (name, source) ->
        (name, summary (Regalloc.Driver.compile ~options ~file:name source)))
      order
  in
  let forward = run workloads in
  let reverse = List.rev (run (List.rev workloads)) in
  Regalloc.Driver.clear_memos ();
  let incremental =
    Test_cache.with_dir @@ fun dir ->
    let store = Cache.Store.create ~dir () in
    List.map
      (fun (name, source) ->
        ( name,
          summary
            (fst
               (Regalloc.Driver.compile_incremental ~options ~store ~file:name
                  source)) ))
      workloads
  in
  let agree label (name, (asm, iters, nodes, cost))
      (_, (asm', iters', nodes', cost')) =
    let what = Printf.sprintf "%s: %s" name label in
    checkb (what ^ ": asm") true (String.equal asm asm');
    checki (what ^ ": simplex iterations") iters iters';
    checki (what ^ ": nodes") nodes nodes';
    if cost <> cost' then
      Alcotest.failf "%s: move cost %.17g against %.17g" what cost cost'
  in
  List.iter2 (agree "reverse order") forward reverse;
  List.iter2 (agree "incremental") forward incremental

(* A budget that ends before any incumbent: 48 SRAM words live across a
   loop need spills, one node finds no allocation, and the baseline the
   driver then falls back to cannot spill.  The compile ends in an
   allocation failure, not an internal error from decoding a solution
   that does not exist. *)
let test_no_incumbent_fails_cleanly () =
  let src =
    {|
fun main () : word {
  let (a1, a2, a3, a4, a5, a6, a7, a8) = sram(0, 8);
  let (b1, b2, b3, b4, b5, b6, b7, b8) = sram(32, 8);
  let (c1, c2, c3, c4, c5, c6, c7, c8) = sram(64, 8);
  let (d1, d2, d3, d4, d5, d6, d7, d8) = sram(96, 8);
  let (e1, e2, e3, e4, e5, e6, e7, e8) = sram(128, 8);
  let (f1, f2, f3, f4, f5, f6, f7, f8) = sram(160, 8);
  var acc = 0;
  var i = 0;
  while (i < 2) {
    acc := acc + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8;
    acc := acc + b1 + b2 + b3 + b4 + b5 + b6 + b7 + b8;
    acc := acc + c1 + c2 + c3 + c4 + c5 + c6 + c7 + c8;
    acc := acc + d1 + d2 + d3 + d4 + d5 + d6 + d7 + d8;
    acc := acc + e1 + e2 + e3 + e4 + e5 + e6 + e7 + e8;
    acc := acc + f1 + f2 + f3 + f4 + f5 + f6 + f7 + f8;
    i := i + 1;
  }
  acc
}
|}
  in
  let options =
    { Regalloc.Driver.default_options with node_limit = 1; time_limit = 1e9 }
  in
  match compile ~options src with
  | _ -> Alcotest.fail "compiled without an incumbent"
  | exception Regalloc.Driver.Allocation_failed msg ->
      checkb ("baseline diagnostic: " ^ msg) true
        (String.starts_with ~prefix:"baseline allocation failed" msg)

(* In-order digest of an LP: every variable's name, bounds, cost and
   integrality and every row's name, sense, rhs and terms, by index.
   Floats print in hex, so every bit counts. *)
let lp_digest (p : Lp.Problem.t) =
  let module P = Lp.Problem in
  let b = Buffer.create 4096 in
  for j = 0 to P.num_vars p - 1 do
    Printf.bprintf b "v%d|%s|%h|%h|%h|%b\n" j (P.var_name p j) (P.var_lo p j)
      (P.var_hi p j) (P.var_obj p j) (P.var_integer p j)
  done;
  for i = 0 to P.num_rows p - 1 do
    Printf.bprintf b "r%d|%s|%s|%h" i (P.row_name p i)
      (match P.row_sense p i with P.Le -> "<=" | P.Ge -> ">=" | P.Eq -> "=")
      (P.row_rhs p i);
    P.iter_row (fun v c -> Printf.bprintf b "|%d*%h" v c) p i;
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The model each workload instantiates, pinned by its in-order digest: a
   reordering of variables or rows moves pivots and budget-limited
   incumbents. *)
let test_model_identity () =
  List.iter
    (fun (name, source, digest) ->
      let f = Regalloc.Driver.front_end ~file:name source in
      let mg = Regalloc.Modelgen.build f.Regalloc.Driver.f_graph in
      let ilp = Regalloc.Ilp.build mg in
      let p = ilp.Regalloc.Ilp.problem in
      Alcotest.(check string) (name ^ ": in-order LP digest") digest
        (lp_digest p))
    [
      ("aes.nova", Workloads.Aes.source, "a90a6a86be86cda00578c329da9e9161");
      ( "kasumi.nova", Workloads.Kasumi.source,
        "31b7667a039cdbd19192fdecac743792" );
      ("lpm.nova", Workloads.Lpm.source, "37877266bb31fb97b84d393b86d898bf");
      ( "firewall.nova", Workloads.Firewall.source,
        "5f2540784365c63b928ff049dabea6c3" );
      ("csum.nova", Workloads.Csum.source, "9d3a74a541c22e3006c38d6908674864");
      ("qos.nova", Workloads.Qos.source, "d31a409008945e538429f141011a008f");
      ("nat.nova", Workloads.Nat.source, "b5097f33d72cc72a87f3b296aae6168d");
    ]

let workloads =
  [
    ("aes.nova", Workloads.Aes.source);
    ("kasumi.nova", Workloads.Kasumi.source);
    ("lpm.nova", Workloads.Lpm.source);
    ("firewall.nova", Workloads.Firewall.source);
    ("csum.nova", Workloads.Csum.source);
    ("qos.nova", Workloads.Qos.source);
    ("nat.nova", Workloads.Nat.source);
  ]

(* The other three models a compile can build, pinned the same way: the
   spill model (scratch M allowed: the NeedsSpill/Occ headroom rows and
   spill moves), the remat model (constants through bank C, built on the
   constant-sharing graph) and the spill model under the
   spill-feasibility objective. *)
let variant_models ~file source =
  let module R = Regalloc in
  let f = R.Driver.front_end ~file source in
  let fr = R.Driver.front_end ~rematerialize:true ~file source in
  let spill = R.Modelgen.build ~allow_spill:true f.R.Driver.f_graph in
  let remat = R.Modelgen.build ~rematerialize:true fr.R.Driver.f_graph in
  let problem ?objective_mode mg =
    (R.Ilp.build ?objective_mode mg).R.Ilp.problem
  in
  [
    ("spill", problem spill);
    ("remat", problem remat);
    ( "spill feasibility",
      problem ~objective_mode:R.Ilp.Spill_feasibility spill );
  ]

let test_model_variants_pinned () =
  List.iter
    (fun (name, source, digests) ->
      List.iter2
        (fun (variant, p) digest ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s model digest" name variant)
            digest (lp_digest p))
        (variant_models ~file:name source)
        digests)
    [
      ( "aes.nova", Workloads.Aes.source,
        [
          "e79bf9db733acbaf28937ac850c62cd8";
          "4efd8d03a0489f59e64262184467256b";
          "0e05d8ac574aa9fdbafdf940136255e4";
        ] );
      ( "kasumi.nova", Workloads.Kasumi.source,
        [
          "2e1e945724dc81803f606db4ba911092";
          "021afc6bab3547391e63a87fc90180e7";
          "450582b127fe6a6f04f605d90e96b1f8";
        ] );
      ( "lpm.nova", Workloads.Lpm.source,
        [
          "5e63aebf159a9d9461f61b0006280143";
          "af0cfb673ec1b93af12676f75c5392c5";
          "9ec1c7ce1d653fe46f278470db2a2bb4";
        ] );
      ( "firewall.nova", Workloads.Firewall.source,
        [
          "8dfb9fe85eb9309a7d936fea04038fd0";
          "c9cc0f690de35c43fa442210b7b21a1d";
          "71d93071c569b3f475d609c9a8220288";
        ] );
      ( "csum.nova", Workloads.Csum.source,
        [
          "e5c48e28cace93333e6f32bc42b470fc";
          "e12e6c3d405696b7984bf3fcb37b0c1c";
          "407bfd4b9a56f74a92ffddaa97ed86d1";
        ] );
      ( "qos.nova", Workloads.Qos.source,
        [
          "8bdb7e85fa9da8d400daa6a18d73680a";
          "d486eca6edea4b219a3e663c9dd7cf8d";
          "445c6413e9bdbeeff80610c0ccc47e5b";
        ] );
      ( "nat.nova", Workloads.Nat.source,
        [
          "baeb2ee408d1ff4dcccd098901f9c7ed";
          "924974695edffb3ab19cbf824b90e4fe";
          "5b2ead4c1eb2bb3a08120fa131308539";
        ] );
    ]

(* The fingerprint that keys solve artifacts means what [lp_digest]
   means, computed without printing: over the four models of every
   workload, each built twice, two fingerprints are equal exactly when
   the two digests are. *)
let test_fingerprint_matches_digest () =
  let models =
    List.concat_map
      (fun (name, source) ->
        List.concat_map
          (fun build ->
            let f = Regalloc.Driver.front_end ~file:name source in
            let plain = Regalloc.Modelgen.build f.Regalloc.Driver.f_graph in
            ( build ^ " spill-free",
              (Regalloc.Ilp.build plain).Regalloc.Ilp.problem )
            :: variant_models ~file:name source
            |> List.map (fun (variant, p) ->
                   ( Printf.sprintf "%s %s %s" name build variant,
                     lp_digest p,
                     Regalloc.Modelhash.fingerprint p )))
          [ "first"; "second" ])
      workloads
  in
  checki "models" 56 (List.length models);
  List.iter
    (fun (a, da, fa) ->
      List.iter
        (fun (b, db, fb) ->
          if String.equal da db <> String.equal fa fb then
            Alcotest.failf "%s and %s: digests %s, fingerprints %s" a b
              (if da = db then "equal" else "differ")
              (if fa = fb then "equal" else "differ"))
        models)
    models

(* A deterministic work bound on the model stage: the words allocated,
   minor plus direct major, while Kasumi's model is built, instantiated
   and fingerprinted, per LP nonzero.  Flushing the minor heap first
   makes the count exact.  The flat builder allocates 52 words per
   nonzero (58 when the fingerprint's buffer is first made); the builder
   on tuples and row lists before it allocated 99. *)
let test_model_stage_allocation () =
  let f = Regalloc.Driver.front_end ~file:"kasumi.nova" Workloads.Kasumi.source in
  let allocated () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = allocated () in
  let mg = Regalloc.Modelgen.build f.Regalloc.Driver.f_graph in
  let p = (Regalloc.Ilp.build mg).Regalloc.Ilp.problem in
  ignore (Regalloc.Modelhash.fingerprint p);
  let per_nonzero =
    (allocated () -. before) /. float_of_int (Lp.Problem.num_nonzeros p)
  in
  if per_nonzero > 75. then
    Alcotest.failf "model stage allocated %.1f words per nonzero (bound 75)"
      per_nonzero

(* The code each workload compiles to, pinned by the MD5 of its assembly
   text under both allocators: the ILP one cold on one domain under the
   node budget, and the baseline heuristic.  A change to how the
   solution is read back or emitted that moves a single register or
   reorders a single move changes a digest. *)
let test_emitted_code_pinned () =
  let ilp =
    {
      Regalloc.Driver.default_options with
      node_limit = node_budget;
      time_limit = 1e9;
    }
  in
  let baseline =
    {
      Regalloc.Driver.default_options with
      allocator = Regalloc.Driver.Baseline_allocator;
    }
  in
  List.iter
    (fun (name, source, ilp_md5, baseline_md5) ->
      let md5 options =
        let c = Regalloc.Driver.compile ~options ~file:name source in
        Digest.to_hex
          (Digest.string (Ixp.Asm.program_to_string c.Regalloc.Driver.physical))
      in
      Alcotest.(check string) (name ^ ": ILP code") ilp_md5 (md5 ilp);
      Alcotest.(check string)
        (name ^ ": baseline code") baseline_md5 (md5 baseline))
    [
      ( "aes.nova", Workloads.Aes.source,
        "dabb44ee2715e99ca8cb8692c2fdc19a", "3263079d39414773fe27dac3aabb097b" );
      ( "kasumi.nova", Workloads.Kasumi.source,
        "ed15aab06b693161acba4673a37180cd", "2037edfaedad8f4770e42e25fed850cb" );
      ( "lpm.nova", Workloads.Lpm.source,
        "be9369c7e54477732db982805bc56041", "6de5daf2ee6f79fb9e062916862f7284" );
      ( "firewall.nova", Workloads.Firewall.source,
        "e42def278bb1d2e52ad3ce379b4d51fb", "aa0ad3657d948f695aa3781cc85a409f" );
      ( "csum.nova", Workloads.Csum.source,
        "ffe3fdc5536b52c84885fe18ba3bd9c0", "7f2c9d2c3371edd2efdc44cca198fe20" );
      ( "qos.nova", Workloads.Qos.source,
        "246e4bb862b7a72c4040e1f753e8c1a6", "6a56f95e3f26785f56c622cb98ca846f" );
      ( "nat.nova", Workloads.Nat.source,
        "5a3acf052a92f2c56683bb2dc3528f6c", "1d844129dfc3ba4ec45047b6fbfa0ad0" );
    ]

(* The decoded assignment against a reference reader that looks every
   variable up by its printed LP name ("Before[p,v,b]", "After[p,v,b]",
   "Move[p,v,b1,b2]", "Color[v,b,r]") in a table of the problem's
   variable names: each Exists pair's banks (the first allowed bank
   whose variable is set; a fixed temporary's own bank), each point's
   moves (every Move variable set, listed by descending temporary and,
   within one, by descending (source, destination) in allowed-bank
   order) and every transfer temporary's colors (the lowest register
   set, or none).  A name with no variable reads as 0. *)
let test_decode_matches_reference () =
  let module Bank = Ixp.Bank in
  List.iter
    (fun (name, source) ->
      let f = Regalloc.Driver.front_end ~file:name source in
      let mg = Regalloc.Modelgen.build f.Regalloc.Driver.f_graph in
      let ilp = Regalloc.Ilp.build mg in
      let sol =
        match
          Regalloc.Ilp.solve ~time_limit:1e9 ~node_limit:node_budget ilp
        with
        | Ok sol -> sol
        | Error _ -> Alcotest.failf "%s: no solution" name
      in
      let a = Regalloc.Assignment.of_ilp sol in
      let p = ilp.Regalloc.Ilp.problem in
      let by_name = Hashtbl.create (Lp.Problem.num_vars p) in
      for j = 0 to Lp.Problem.num_vars p - 1 do
        Hashtbl.replace by_name (Lp.Problem.var_name p j) j
      done;
      let set fam index =
        match
          Hashtbl.find_opt by_name
            (Printf.sprintf "%s[%s]" fam (String.concat "," index))
        with
        | Some j -> sol.Regalloc.Ilp.assignment.(j) > 0.5
        | None -> false
      in
      let v_atom = Support.Ident.name and b_atom = Bank.to_string in
      let bank fam p v =
        match Regalloc.Modelgen.fixed_bank mg v with
        | Some b -> Some b
        | None ->
            List.find_opt
              (fun b -> set fam [ string_of_int p; v_atom v; b_atom b ])
              (Regalloc.Modelgen.allowed_banks mg v)
      in
      let bank_name = function Some b -> Bank.to_string b | None -> "none" in
      let ex_start = mg.Regalloc.Modelgen.ex_start in
      Array.iteri
        (fun p _ ->
          let moves = ref [] in
          List.iter
            (fun v ->
              let what side =
                Fmt.str "%s: %s of %a at point %d" name side Support.Ident.pp v p
              in
              Alcotest.(check string) (what "bank before")
                (bank_name (bank "Before" p v))
                (Bank.to_string (Regalloc.Assignment.bank_before a p v));
              Alcotest.(check string) (what "bank after")
                (bank_name (bank "After" p v))
                (Bank.to_string (Regalloc.Assignment.bank_after a p v));
              let banks = Regalloc.Modelgen.allowed_banks mg v in
              List.iter
                (fun b1 ->
                  List.iter
                    (fun b2 ->
                      if
                        (not (Bank.equal b1 b2))
                        && set "Move"
                             [ string_of_int p; v_atom v; b_atom b1; b_atom b2 ]
                      then moves := (v, b1, b2) :: !moves)
                    banks)
                banks)
            (List.init
               (ex_start.(p + 1) - ex_start.(p))
               (fun j ->
                 mg.Regalloc.Modelgen.temps.(mg.Regalloc.Modelgen.ex_temp.(ex_start.(p) + j))));
          let show l =
            String.concat "; "
              (List.map
                 (fun (v, b1, b2) ->
                   Fmt.str "%a %s->%s" Support.Ident.pp v (Bank.to_string b1)
                     (Bank.to_string b2))
                 l)
          in
          Alcotest.(check string)
            (Fmt.str "%s: moves at point %d" name p)
            (show !moves)
            (show a.Regalloc.Assignment.moves.(p)))
        mg.Regalloc.Modelgen.points;
      Array.iteri
        (fun i v ->
          List.iter
            (fun b ->
              let expected =
                Option.value ~default:(-1)
                  (List.find_opt
                     (fun r ->
                       set "Color" [ v_atom v; b_atom b; string_of_int r ])
                     [ 0; 1; 2; 3; 4; 5; 6; 7 ])
              in
              Alcotest.(check int)
                (Fmt.str "%s: %s color of %a" name (Bank.to_string b)
                   Support.Ident.pp v)
                expected
                a.Regalloc.Assignment.colors.(Regalloc.Assignment.color_index i b))
            (List.filter Bank.is_transfer
               (Regalloc.Modelgen.allowed_banks mg v)))
        mg.Regalloc.Modelgen.temps)
    [
      ("aes.nova", Workloads.Aes.source);
      ("kasumi.nova", Workloads.Kasumi.source);
      ("lpm.nova", Workloads.Lpm.source);
      ("firewall.nova", Workloads.Firewall.source);
      ("csum.nova", Workloads.Csum.source);
      ("qos.nova", Workloads.Qos.source);
      ("nat.nova", Workloads.Nat.source);
    ]

let suites =
  [
    ( "regalloc.pipeline",
      [
        Alcotest.test_case "arith" `Quick test_alloc_arith;
        Alcotest.test_case "loop + memory" `Quick test_alloc_loop_and_memory;
        Alcotest.test_case "aggregate pressure" `Quick
          test_alloc_aggregate_pressure;
        Alcotest.test_case "write conflicts (clones)" `Quick
          test_alloc_write_conflict_needs_clone;
        Alcotest.test_case "hash same-reg" `Quick test_alloc_hash_same_reg;
        Alcotest.test_case "exceptions" `Quick test_alloc_exceptions_and_control;
        Alcotest.test_case "ssa coloring feasible" `Quick
          test_ssa_makes_coloring_feasible;
        Alcotest.test_case "high pressure" `Slow test_spill_fallback;
        Alcotest.test_case "no incumbent ends in a diagnostic" `Slow
          test_no_incumbent_fails_cleanly;
        Alcotest.test_case "cold compiles pin the pivot path" `Quick
          test_cold_pivot_path;
        Alcotest.test_case "compiles are history-independent" `Quick
          test_history_independent;
      ] );
    ( "regalloc.validity",
      [
        Alcotest.test_case "checker clean" `Quick test_checker_runs_on_output;
        Alcotest.test_case "assignment valid" `Quick test_assignment_validates;
        Alcotest.test_case "model stats" `Quick test_model_stats;
        Alcotest.test_case "model identity pinned on all 7 workloads" `Quick
          test_model_identity;
        Alcotest.test_case "spill, remat and spill-feasibility models pinned"
          `Quick test_model_variants_pinned;
        Alcotest.test_case "fingerprints equal exactly when digests are"
          `Quick test_fingerprint_matches_digest;
        Alcotest.test_case "model stage allocation bounded" `Quick
          test_model_stage_allocation;
        Alcotest.test_case "emitted code pinned on all 7 workloads" `Quick
          test_emitted_code_pinned;
        Alcotest.test_case "decoded assignment matches a reference reader"
          `Quick test_decode_matches_reference;
      ] );
    ( "regalloc.hardware",
      [ Alcotest.test_case "fifo + csr + ctx_arb" `Quick test_fifo_and_csr_path ] );
    ( "regalloc.remat",
      [
        Alcotest.test_case "constants via bank C" `Quick test_rematerialization;
        Alcotest.test_case "immediate loads counted apart" `Quick
          test_remat_counts_imms_apart;
        Alcotest.test_case "infeasible remat model falls back" `Quick
          test_remat_infeasible_falls_back;
      ] );
    ( "regalloc.baseline",
      [
        Alcotest.test_case "baseline valid + agrees" `Quick
          test_baseline_allocates_and_agrees;
        Alcotest.test_case "ilp beats baseline" `Quick test_ilp_beats_baseline;
      ] );
  ]
