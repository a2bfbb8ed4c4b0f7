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
  checkb "remat not slower" true (cycles remat <= cycles plain)

(* The deterministic solver budget the pinned searches below run under:
   AES and NAT stop at it with an incumbent. *)
let node_budget = 128

(* The stage spans every compile must record: the front end, each
   middle-end pass, model build, the solver's phases and emit. *)
let required_spans =
  [
    "parse"; "typecheck"; "cps-convert"; "contract"; "deproc"; "ssu"; "isel";
    "modelgen"; "ilp-build"; "presolve"; "root-cuts"; "root-lp";
    "branch-and-bound"; "emit";
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

(* Two deterministic 2-domain searches of the AES model under the node
   budget expand the same tree, pinned exactly: the fixed round schedule
   decides which node each domain takes, so neither the count nor the
   reproduction may depend on thread timing. *)
let test_two_domain_aes_pinned () =
  let f = Regalloc.Driver.front_end ~file:"aes.nova" Workloads.Aes.source in
  let mg =
    Regalloc.Modelgen.build ~allow_spill:false f.Regalloc.Driver.f_graph
  in
  let p = (Regalloc.Ilp.build mg).Regalloc.Ilp.instance.Ampl.Model.problem in
  let solve run =
    let r =
      Lp.Mip.solve ~time_limit:1e9 ~node_limit:node_budget ~domains:2
        ~deterministic:true p
    in
    let s = r.Lp.Mip.stats in
    checki (run ^ ": nodes") 176 s.Lp.Mip.nodes;
    checki (run ^ ": simplex iterations") 4053 s.Lp.Mip.simplex_iterations
  in
  solve "first run";
  solve "second run"

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
  let i = ref 0 in
  P.iter_rows
    (fun r ->
      Printf.bprintf b "r%d|%s|%s|%h" !i r.P.row_name
        (match r.P.sense with P.Le -> "<=" | P.Ge -> ">=" | P.Eq -> "=")
        r.P.rhs;
      List.iter (fun (v, c) -> Printf.bprintf b "|%d*%h" v c) r.P.terms;
      Buffer.add_char b '\n';
      incr i)
    p;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The model each workload instantiates, pinned by its in-order digest: a
   reordering of variables or rows moves pivots and budget-limited
   incumbents.  The fingerprint that keys solve artifacts is the same
   digest, computed faster; [lp_digest] is the reference it must match. *)
let test_model_identity () =
  List.iter
    (fun (name, source, digest) ->
      let f = Regalloc.Driver.front_end ~file:name source in
      let mg = Regalloc.Modelgen.build f.Regalloc.Driver.f_graph in
      let ilp = Regalloc.Ilp.build mg in
      let p = ilp.Regalloc.Ilp.instance.Ampl.Model.problem in
      Alcotest.(check string) (name ^ ": in-order LP digest") digest
        (lp_digest p);
      Alcotest.(check string)
        (name ^ ": fingerprint") digest
        (Regalloc.Modelhash.fingerprint p))
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
        Alcotest.test_case "cold compiles pin the pivot path" `Quick
          test_cold_pivot_path;
        Alcotest.test_case "2-domain deterministic AES search pinned" `Quick
          test_two_domain_aes_pinned;
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
      ] );
    ( "regalloc.hardware",
      [ Alcotest.test_case "fifo + csr + ctx_arb" `Quick test_fifo_and_csr_path ] );
    ( "regalloc.remat",
      [ Alcotest.test_case "constants via bank C" `Quick test_rematerialization ] );
    ( "regalloc.baseline",
      [
        Alcotest.test_case "baseline valid + agrees" `Quick
          test_baseline_allocates_and_agrees;
        Alcotest.test_case "ilp beats baseline" `Quick test_ilp_beats_baseline;
      ] );
  ]
