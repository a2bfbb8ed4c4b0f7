(* Tests for the static-analysis suite (lib/analysis): the dataflow
   framework and its widening discipline, interval soundness, memory
   effects and the cross-context race detector (including a seeded
   racy/raceless corpus with a differential chip-level witness), the
   machine- and assignment-level validators, the dead-store lint, and
   the ctx_arb CFG-shape pin from Ixp.Flowgraph. *)

module FG = Ixp.Flowgraph
module Insn = Ixp.Insn
module Reg = Ixp.Reg
module Bank = Ixp.Bank
module Interval = Analysis.Interval
module Effects = Analysis.Effects
module Race = Analysis.Race

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let baseline_options =
  { Regalloc.Driver.default_options with allocator = Regalloc.Driver.Baseline_allocator }

let compile_baseline src =
  Regalloc.Driver.compile ~options:baseline_options ~file:"t.nova" src

let front src = Regalloc.Driver.front_end ~file:"t.nova" src

(* ---------------- interval soundness (qcheck) ---------------- *)

(* Every abstract operation must contain the concrete result of any
   members of its argument intervals. *)
let arb_interval =
  QCheck.map
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Interval.make lo hi)
    QCheck.(pair (int_range (-2000) 2000) (int_range (-2000) 2000))

let arb_member =
  QCheck.map
    (fun (itv, f) ->
      let lo = itv.Interval.lo and hi = itv.Interval.hi in
      (itv, lo + (f mod (hi - lo + 1))))
    QCheck.(pair arb_interval (int_range 0 4000))

let interval_sound_prop =
  QCheck.Test.make ~count:500 ~name:"interval ops over-approximate"
    QCheck.(pair arb_member arb_member)
    (fun (((ia, a), (ib, b)) : (Interval.t * int) * (Interval.t * int)) ->
      let mem n itv = Interval.mem n itv in
      mem (a + b) (Interval.add ia ib)
      && mem (a - b) (Interval.sub ia ib)
      && mem (-a) (Interval.neg ia)
      && (a < 0 || b < 0 || mem (a land b) (Interval.and_ ia ib))
      && (a < 0 || b < 0 || mem (a lor b) (Interval.or_ ia ib))
      && (a < 0 || b < 0 || mem (a lxor b) (Interval.xor ia ib))
      && (a < 0 || b < 0 || b > 8 || mem (a lsl b) (Interval.shl ia ib))
      && (a < 0 || b < 0 || mem (a lsr b) (Interval.shr ia ib))
      && mem a (Interval.join ia ib)
      && mem b (Interval.join ia ib)
      && mem a (Interval.widen ~old:ia ib))

(* ---------------- widening discipline ---------------- *)

(* A counted inner loop nested in an outer loop: the inner index is
   refined by the loop branch, and only the loop heads may widen --
   widening at the ordinary join below the branch would destroy the
   bound and report an unknown address.  This pins the back-edge-only
   widening of Analysis.Dataflow. *)
let nested_loop_src =
  {|
fun main () : word {
  var acc = 0;
  var p = 0;
  while (p < 8) {
    var i = 0;
    while (i < 10) {
      acc := acc + sram(0x1000 + (i << 2), 1);
      i := i + 1;
    }
    p := p + 1;
  }
  acc
}
|}

let test_nested_loop_bounded () =
  let f = front nested_loop_src in
  let accesses = Effects.of_graph f.Regalloc.Driver.f_graph in
  let loads =
    List.filter
      (fun (a : Effects.access) ->
        a.Effects.target = Effects.Mem Insn.Sram && a.Effects.kind = Effects.Load)
      accesses
  in
  checkb "has sram loads" true (loads <> []);
  List.iter
    (fun (a : Effects.access) ->
      match a.Effects.range with
      | Effects.Bytes { lo; hi } ->
          checkb "inside the table" true (lo >= 0x1000 && hi <= 0x1000 + (10 * 4) - 1)
      | Effects.Unknown_range ->
          Alcotest.failf "unbounded load at %s.%d despite the loop bound"
            a.Effects.block a.Effects.pos)
    loads

(* the same loop pattern terminates even when the bound comes from
   memory (unbounded): widening at the loop head must still converge *)
let test_unbounded_loop_terminates () =
  let f =
    front
      {|
fun main () : word {
  let n = sram(0x10, 1);
  var i = 0;
  var acc = 0;
  while (i < n) {
    acc := acc + i;
    i := i + 1;
  }
  acc
}
|}
  in
  (* solving must terminate; the accesses are computed eagerly *)
  let _ = Effects.of_graph f.Regalloc.Driver.f_graph in
  ()

(* ---------------- independent liveness (hand-built graph) ---------------- *)

let ra n = Reg.make Bank.A n
let rb n = Reg.make Bank.B n

let test_live_hand_graph () =
  (* entry: a=1; b=2; branch -> loop | exit
     loop:  a=a+b; jump entry-like head 'hdr'
     exit:  halt uses a *)
  let g = FG.create () in
  let _ =
    FG.add_block g ~label:"e"
      ~insns:
        [
          Insn.Imm { dst = ra 0; value = 1 };
          Insn.Imm { dst = rb 0; value = 2 };
        ]
      ~term:(Insn.Jump "hdr")
  in
  let _ =
    FG.add_block g ~label:"hdr" ~insns:[]
      ~term:
        (Insn.Branch
           { cond = Insn.Lt; x = ra 0; y = Insn.Lit 10; ifso = "loop"; ifnot = "x" })
  in
  let _ =
    FG.add_block g ~label:"loop"
      ~insns:[ Insn.Alu { dst = ra 0; op = Insn.Add; x = ra 0; y = Insn.Reg (rb 0) } ]
      ~term:(Insn.Jump "hdr")
  in
  let _ =
    FG.add_block g ~label:"x"
      ~insns:
        [
          Insn.Alu1 { dst = rb 1; op = `Mov; src = ra 0 };
          Insn.Move { dst = Reg.make Bank.S 0; src = rb 1 };
          Insn.Write
            {
              space = Insn.Sram;
              srcs = [| Reg.make Bank.S 0 |];
              addr = { Insn.base = Insn.Lit 0; disp = 0 };
            };
        ]
      ~term:Insn.Halt
  in
  let live = Analysis.Live.solve g in
  let live_hdr = Analysis.Live.live_in live "hdr" in
  checkb "a live into hdr" true (Reg.Set.mem (ra 0) live_hdr);
  checkb "b live into hdr (loop-carried use)" true (Reg.Set.mem (rb 0) live_hdr);
  let live_x = Analysis.Live.live_in live "x" in
  checkb "b dead into exit arm" false (Reg.Set.mem (rb 0) live_x);
  checkb "nothing live into the entry" true
    (Reg.Set.is_empty (Analysis.Live.live_in live "e"))

(* cross-validation on a real program: the physical-level liveness of
   Analysis.Live must agree with Ixp.Liveness run on the same physical
   graph (same fixpoint, independently-written solvers) *)
let test_live_cross_validation () =
  let c = compile_baseline Workloads.Kasumi.source in
  let g = c.Regalloc.Driver.physical in
  let mine = Analysis.Live.solve g in
  (* rename physical registers to (stable) virtual temporaries so the
     virtual-side solver can chew on the same graph *)
  let idents = Hashtbl.create 64 in
  let ident_of r =
    let k = Reg.to_string r in
    match Hashtbl.find_opt idents k with
    | Some i -> i
    | None ->
        let i = Support.Ident.fresh k in
        Hashtbl.replace idents k i;
        i
  in
  let theirs = Ixp.Liveness.compute (FG.map_regs ident_of g) in
  FG.iter_blocks
    (fun b ->
      let a =
        Analysis.Live.live_in mine b.FG.label
        |> Reg.Set.elements |> List.map Reg.to_string
        |> List.sort compare
      in
      let b' =
        Ixp.Liveness.block_live_in theirs b.FG.label
        |> Support.Ident.Set.elements
        |> List.map Support.Ident.base
        |> List.sort compare
      in
      Alcotest.(check (list string))
        (Printf.sprintf "live-in of %s" b.FG.label)
        b' a)
    g

(* ---------------- seeded race corpus ---------------- *)

let racy_counter_src =
  {|
fun main () : word {
  let c = scratch(0x80, 1);
  scratch(0x80) <- c + 1;
  0
}
|}

let raceless_sdram_src =
  {|
fun main () : word {
  let (c, d) = sdram(0x80, 2);
  sdram(0x80) <- (c + 1, d);
  0
}
|}

let accesses_of src =
  let f = front src in
  Effects.of_graph f.Regalloc.Driver.f_graph

(* every program writes its result to the (intentionally shared) scratch
   result area at halt; absorb that like the lint driver does *)
let check ?(regions = []) accesses =
  Race.check ~regions:(Regalloc.Driver.result_area_region :: regions) accesses

let races fs =
  List.filter (function Race.Race _ -> true | _ -> false) fs

let test_racy_counter_flagged () =
  let fs = check (accesses_of racy_counter_src) in
  let rs = races fs in
  checkb "unsynchronized scratch counter is flagged" true (rs <> []);
  (* both the write/write self-pair and the read/write pair must show *)
  let has k =
    List.exists
      (function Race.Race { kind; _ } -> kind = k | _ -> false)
      rs
  in
  checkb "write/write" true (has Race.Write_write);
  checkb "read/write" true (has Race.Read_write)

let test_raceless_sdram_clean () =
  (* SDRAM is per-context packet memory: no shared-space pairs at all *)
  let fs = check (accesses_of raceless_sdram_src) in
  checkb "private sdram counter is clean" true (races fs = [])

let test_whitelist_absorbs () =
  let region =
    Race.region ~name:"counter" ~space:Insn.Scratch ~base:0x80 ~words:1
      Race.Shared_write
  in
  let fs = check ~regions:[ region ] (accesses_of racy_counter_src) in
  checkb "no raw races left" true (races fs = []);
  checkb "absorbed pairs are reported as whitelisted" true
    (List.exists (function Race.Whitelisted _ -> true | _ -> false) fs)

let test_ro_write_flagged () =
  let region =
    Race.region ~name:"table" ~space:Insn.Scratch ~base:0x80 ~words:1
      Race.Read_only
  in
  let fs = check ~regions:[ region ] (accesses_of racy_counter_src) in
  checkb "write into a read-only region is an error" true
    (List.exists (function Race.Ro_write _ -> true | _ -> false) fs)

let test_bit_test_set_atomic () =
  let fs =
    check
      (accesses_of
         {|
fun main () : word {
  bit_test_set(0x200, 3)
}
|})
  in
  checkb "atomic rmw self-pair is not a race" true (races fs = [])

(* Differential witness: the racy counter actually loses updates on the
   simulated hardware once several contexts interleave (the scratch
   read's latency forces a context switch mid read-modify-write), and
   does not with a single context.  The detector's verdict and the
   machine agree. *)
let run_counter ~threads ~per_thread =
  let c = compile_baseline racy_counter_src in
  let sim = Ixp.Simulator.create ~threads c.Regalloc.Driver.physical in
  let source ~thread:_ ~packets_done =
    if packets_done < per_thread then Some (Array.make 16 0) else None
  in
  let _cycles = Ixp.Simulator.run_packets sim source in
  Ixp.Memory.peek (Ixp.Simulator.shared_memory sim) Insn.Scratch (0x80 / 4)

let test_differential_lost_updates () =
  let per_thread = 25 in
  let solo = run_counter ~threads:1 ~per_thread in
  checki "single context performs every increment" per_thread solo;
  let contended = run_counter ~threads:4 ~per_thread in
  checkb
    (Printf.sprintf "4 contexts lose updates (%d < %d)" contended
       (4 * per_thread))
    true
    (contended < 4 * per_thread)

(* ---------------- ctx_arb CFG shape (satellite: flowgraph pin) ---------------- *)

let test_ctx_arb_cfg_shape () =
  let with_arb =
    front
      {|
fun main () : word {
  let a = sram(0x10, 1);
  ctx_arb();
  a + 1
}
|}
  in
  let without_arb =
    front
      {|
fun main () : word {
  let a = sram(0x10, 1);
  a + 1
}
|}
  in
  let ga = with_arb.Regalloc.Driver.f_graph
  and gb = without_arb.Regalloc.Driver.f_graph in
  (* ctx_arb is a plain instruction: same number of blocks, successors
     still derive only from the terminators *)
  checki "block count unchanged by ctx_arb" (FG.num_blocks gb) (FG.num_blocks ga);
  let found = ref false in
  FG.iter_blocks
    (fun b ->
      Array.iteri
        (fun pos insn ->
          if insn = Insn.Ctx_arb then begin
            found := true;
            (* it sits strictly inside the block: the block's control
               edges are untouched *)
            checkb "ctx_arb is not a terminator" true
              (pos < Array.length b.FG.insns);
            (* and the following point is a yield point *)
            checkb "yield point after ctx_arb" true
              (List.exists
                 (fun (p : FG.point) ->
                   p.FG.block = b.FG.label && p.FG.pos = pos + 1)
                 (FG.yield_points ga))
          end)
        b.FG.insns)
    ga;
  checkb "program contains ctx_arb" true !found

let test_yields_classification () =
  let r = Support.Ident.fresh "r" in
  let addr = { Insn.base = Insn.Lit 0; disp = 0 } in
  checkb "memory read yields" true
    (Insn.yields (Insn.Read { space = Insn.Sram; dsts = [| r |]; addr }));
  checkb "ctx_arb yields" true (Insn.yields Insn.Ctx_arb);
  checkb "alu does not yield" false
    (Insn.yields (Insn.Alu1 { dst = r; op = `Mov; src = r }));
  checkb "csr access does not yield" false
    (Insn.yields (Insn.Csr_read { dst = r; csr = "ctx" }))

(* ---------------- machine-level validator ---------------- *)

let test_validator_rejects_uninitialized () =
  (* B0 is read with no definition on any path: severe *)
  let g = FG.create () in
  let _ =
    FG.add_block g ~label:"e"
      ~insns:[ Insn.Alu1 { dst = ra 0; op = `Mov; src = rb 0 } ]
      ~term:Insn.Halt
  in
  let r = Analysis.Validator.check g in
  checkb "flags the read of an unwritten register" true
    (List.exists
       (fun (f : Analysis.Validator.finding) -> f.Analysis.Validator.severe)
       r.Analysis.Validator.findings)

let test_validator_infeasible_path_is_note () =
  (* A0 is defined on one arm of a diamond and used after the join:
     possibly-uninitialized (note), not an error *)
  let g = FG.create () in
  let _ =
    FG.add_block g ~label:"e"
      ~insns:[ Insn.Imm { dst = rb 0; value = 1 } ]
      ~term:
        (Insn.Branch
           { cond = Insn.Lt; x = rb 0; y = Insn.Lit 5; ifso = "d"; ifnot = "j" })
  in
  let _ =
    FG.add_block g ~label:"d"
      ~insns:[ Insn.Imm { dst = ra 0; value = 7 } ]
      ~term:(Insn.Jump "j")
  in
  let _ =
    FG.add_block g ~label:"j"
      ~insns:[ Insn.Alu1 { dst = rb 1; op = `Mov; src = ra 0 } ]
      ~term:Insn.Halt
  in
  let r = Analysis.Validator.check g in
  let severe, notes =
    List.partition
      (fun (f : Analysis.Validator.finding) -> f.Analysis.Validator.severe)
      r.Analysis.Validator.findings
  in
  checkb "no hard error" true (severe = []);
  checkb "possibly-uninitialized is a note" true (notes <> [])

(* ---------------- dead-store lint ---------------- *)

let test_deadstore_findings () =
  let g = FG.create () in
  let _ =
    FG.add_block g ~label:"e"
      ~insns:
        [
          Insn.Imm { dst = ra 0; value = 1 };
          (* dead: overwritten before any read *)
          Insn.Imm { dst = ra 0; value = 2 };
          Insn.Alu1 { dst = rb 0; op = `Mov; src = ra 0 };
          Insn.Move { dst = Reg.make Bank.S 0; src = rb 0 };
          Insn.Write
            {
              space = Insn.Sram;
              srcs = [| Reg.make Bank.S 0 |];
              addr = { Insn.base = Insn.Lit 0; disp = 0 };
            };
        ]
      ~term:Insn.Halt
  in
  let _ =
    FG.add_block g ~label:"island" ~insns:[] ~term:(Insn.Jump "island")
  in
  let fs = Analysis.Deadstore.check g in
  checkb "dead imm found" true
    (List.exists
       (function
         | Analysis.Deadstore.Dead_store { block = "e"; pos = 0; _ } -> true
         | _ -> false)
       fs);
  checkb "unreachable block found" true
    (List.exists
       (function
         | Analysis.Deadstore.Unreachable { block = "island" } -> true
         | _ -> false)
       fs);
  (* the store itself is an effect, never a dead store *)
  checkb "memory write never flagged" true
    (not
       (List.exists
          (function
            | Analysis.Deadstore.Dead_store { pos = 4; _ } -> true
            | _ -> false)
          fs))

(* ---------------- checker provenance ---------------- *)

let test_checker_provenance () =
  let g = FG.create () in
  (* two A-bank ALU operands violate the one-per-bank-group rule *)
  let _ =
    FG.add_block g ~label:"body"
      ~insns:
        [
          Insn.Imm { dst = ra 0; value = 1 };
          Insn.Imm { dst = ra 1; value = 2 };
          Insn.Alu { dst = ra 2; op = Insn.Add; x = ra 0; y = Insn.Reg (ra 1) };
        ]
      ~term:Insn.Halt
  in
  let loc = Support.Srcloc.start_of_file "prov.nova" in
  let provenance label = if label = "body" then Some loc else None in
  let vs = Ixp.Checker.check ~provenance g in
  checkb "violation found" true (vs <> []);
  List.iter
    (fun (v : Ixp.Checker.violation) ->
      checkb "violation carries the source location" true
        (v.Ixp.Checker.loc == loc);
      let s = Fmt.str "%a" Ixp.Checker.pp_violation v in
      checkb "printed with file prefix" true
        (String.length s > 9 && String.sub s 0 9 = "prov.nova"))
    vs;
  (* without provenance the dummy location is carried and not printed *)
  let vs' = Ixp.Checker.check g in
  List.iter
    (fun (v : Ixp.Checker.violation) ->
      checkb "dummy loc without provenance" true
        (v.Ixp.Checker.loc == Support.Srcloc.dummy))
    vs'

(* ---------------- workload lints and the assignment validator ---------------- *)

let lint_workload ?(options = baseline_options) source regions =
  let c = Regalloc.Driver.compile ~options ~file:"wl.nova" source in
  (c, Regalloc.Driver.lint ~regions c)

let test_workloads_lint_clean_baseline () =
  List.iter
    (fun (name, source, regions) ->
      let _, report = lint_workload source regions in
      Alcotest.(check int)
        (name ^ ": no errors") 0
        (List.length (Analysis.Lint.errors report));
      Alcotest.(check int)
        (name ^ ": no warnings") 0
        (List.length (Analysis.Lint.warnings report)))
    [
      ("aes", Workloads.Aes.source, Workloads.Aes.lint_regions);
      ("kasumi", Workloads.Kasumi.source, Workloads.Kasumi.lint_regions);
      ("nat", Workloads.Nat.source, Workloads.Nat.lint_regions);
      ("csum", Workloads.Csum.source, Workloads.Csum.lint_regions);
      ("qos", Workloads.Qos.source, Workloads.Qos.lint_regions);
    ]

(* The workloads that lint clean, allocated by the ILP at a 128-node
   budget (AES and NAT branch under it and prove optimal within it).
   LPM and Firewall still report [race] errors, see ROADMAP item 2. *)
let test_kasumi_ilp_lint_clean () =
  let options =
    { Regalloc.Driver.default_options with node_limit = 128; time_limit = 1e9 }
  in
  List.iter
    (fun (name, source, regions) ->
      let c, report = lint_workload ~options source regions in
      checki (name ^ ": ilp lint errors") 0
        (List.length (Analysis.Lint.errors report));
      checki (name ^ ": ilp lint warnings") 0
        (List.length (Analysis.Lint.warnings report));
      (* and the assignment validator independently re-proves the
         solution *)
      let vr = Regalloc.Validate.check c.Regalloc.Driver.assignment in
      Alcotest.(check (list string))
        (name ^ ": assignment re-proved")
        [] vr.Regalloc.Validate.errors)
    [
      ("kasumi", Workloads.Kasumi.source, Workloads.Kasumi.lint_regions);
      ("aes", Workloads.Aes.source, Workloads.Aes.lint_regions);
      ("nat", Workloads.Nat.source, Workloads.Nat.lint_regions);
      ("csum", Workloads.Csum.source, Workloads.Csum.lint_regions);
      ("qos", Workloads.Qos.source, Workloads.Qos.lint_regions);
    ]

let test_validate_accepts_baseline_workloads () =
  List.iter
    (fun (name, source) ->
      let c = compile_baseline source in
      let vr = Regalloc.Validate.check c.Regalloc.Driver.assignment in
      Alcotest.(check (list string)) (name ^ " accepted") []
        vr.Regalloc.Validate.errors)
    [
      ("aes", Workloads.Aes.source);
      ("kasumi", Workloads.Kasumi.source);
      ("nat", Workloads.Nat.source);
    ]

let test_validate_rejects_corrupt_colors () =
  let c = compile_baseline Workloads.Kasumi.source in
  let a = c.Regalloc.Driver.assignment in
  (* lie about one transfer color: aggregate adjacency must break *)
  let corrupt =
    {
      a with
      Regalloc.Assignment.colors =
        Array.map (fun n -> if n = 1 then 5 else n) a.Regalloc.Assignment.colors;
    }
  in
  let vr = Regalloc.Validate.check corrupt in
  checkb "corrupted colors rejected" true (vr.Regalloc.Validate.errors <> [])

let suites =
  [
    ( "analysis.framework",
      [
        Alcotest.test_case "nested loop stays bounded" `Quick
          test_nested_loop_bounded;
        Alcotest.test_case "unbounded loop terminates" `Quick
          test_unbounded_loop_terminates;
        Alcotest.test_case "liveness on a hand graph" `Quick test_live_hand_graph;
        Alcotest.test_case "liveness cross-validation" `Quick
          test_live_cross_validation;
        QCheck_alcotest.to_alcotest interval_sound_prop;
      ] );
    ( "analysis.race",
      [
        Alcotest.test_case "racy counter flagged" `Quick test_racy_counter_flagged;
        Alcotest.test_case "private sdram clean" `Quick test_raceless_sdram_clean;
        Alcotest.test_case "whitelist absorbs" `Quick test_whitelist_absorbs;
        Alcotest.test_case "read-only write flagged" `Quick test_ro_write_flagged;
        Alcotest.test_case "bit_test_set atomic" `Quick test_bit_test_set_atomic;
        Alcotest.test_case "differential lost updates" `Quick
          test_differential_lost_updates;
      ] );
    ( "analysis.cfg",
      [
        Alcotest.test_case "ctx_arb keeps the CFG shape" `Quick
          test_ctx_arb_cfg_shape;
        Alcotest.test_case "yield classification" `Quick test_yields_classification;
      ] );
    ( "analysis.validate",
      [
        Alcotest.test_case "uninitialized read rejected" `Quick
          test_validator_rejects_uninitialized;
        Alcotest.test_case "infeasible path is a note" `Quick
          test_validator_infeasible_path_is_note;
        Alcotest.test_case "dead stores and unreachable code" `Quick
          test_deadstore_findings;
        Alcotest.test_case "checker violations carry provenance" `Quick
          test_checker_provenance;
        Alcotest.test_case "workload lints clean (baseline)" `Quick
          test_workloads_lint_clean_baseline;
        Alcotest.test_case "kasumi ILP lint clean" `Quick test_kasumi_ilp_lint_clean;
        Alcotest.test_case "baseline assignments re-proved" `Quick
          test_validate_accepts_baseline_workloads;
        Alcotest.test_case "corrupt colors rejected" `Quick
          test_validate_rejects_corrupt_colors;
      ] );
  ]
