(* Tests for the IXP machine model: banks/datapaths, memory and
   alignment, flowgraph/liveness/frequency, checker, simulator. *)

open Support
module Bank = Ixp.Bank
module Insn = Ixp.Insn
module FG = Ixp.Flowgraph
module Reg = Ixp.Reg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- banks and datapaths ---------------- *)

let test_bank_datapaths () =
  checkb "A feeds ALU" true (Bank.can_feed_alu Bank.A);
  checkb "S cannot feed ALU" false (Bank.can_feed_alu Bank.S);
  checkb "ALU writes S" true (Bank.can_receive_alu Bank.S);
  checkb "ALU cannot write L" false (Bank.can_receive_alu Bank.L);
  (* no path between registers of the same transfer bank *)
  checkb "L->L illegal" false (Bank.direct_move_ok ~src:Bank.L ~dst:Bank.L);
  checkb "A->S ok" true (Bank.direct_move_ok ~src:Bank.A ~dst:Bank.S);
  checkb "S->A illegal" false (Bank.direct_move_ok ~src:Bank.S ~dst:Bank.A);
  (* values in S escape only through memory *)
  checkb "S->M legal move" true (Bank.move_legal ~src:Bank.S ~dst:Bank.M);
  checkb "S->B illegal move" false (Bank.move_legal ~src:Bank.S ~dst:Bank.B);
  checkb "M->L legal" true (Bank.move_legal ~src:Bank.M ~dst:Bank.L);
  checkb "M->SD illegal" false (Bank.move_legal ~src:Bank.M ~dst:Bank.SD)

let test_move_costs () =
  let c ~src ~dst = Bank.move_cost ~src ~dst () in
  checkb "identity free" true (c ~src:Bank.A ~dst:Bank.A = 0.);
  checkb "reg-reg cheap" true (c ~src:Bank.A ~dst:Bank.S = 1.0);
  checkb "spill expensive" true (c ~src:Bank.A ~dst:Bank.M > 100.);
  checkb "reload expensive" true (c ~src:Bank.M ~dst:Bank.A > 100.);
  checkb "bias against B" true
    (c ~src:Bank.A ~dst:Bank.B > c ~src:Bank.B ~dst:Bank.A *. 0.9)

(* ---------------- memory ---------------- *)

let test_memory_alignment () =
  let m = Ixp.Memory.create () in
  Ixp.Memory.write m Insn.Sram 100 [| 1; 2; 3 |];
  checkb "sram read back" true (Ixp.Memory.read m Insn.Sram 100 ~count:3 = [| 1; 2; 3 |]);
  checkb "sram misaligned" true
    (try
       ignore (Ixp.Memory.read m Insn.Sram 101 ~count:1);
       false
     with Ixp.Memory.Fault _ -> true);
  checkb "sdram 4-byte rejected" true
    (try
       ignore (Ixp.Memory.read m Insn.Sdram 100 ~count:2);
       false
     with Ixp.Memory.Fault _ -> true);
  checkb "sdram odd count rejected" true
    (try
       ignore (Ixp.Memory.read m Insn.Sdram 96 ~count:3);
       false
     with Ixp.Memory.Fault _ -> true);
  checkb "sdram ok" true
    (try
       ignore (Ixp.Memory.read m Insn.Sdram 96 ~count:4);
       true
     with Ixp.Memory.Fault _ -> false)

let test_memory_bit_test_set () =
  let m = Ixp.Memory.create () in
  Ixp.Memory.write m Insn.Sram 200 [| 0b1010 |];
  let old = Ixp.Memory.bit_test_set m 200 0b0110 in
  checki "old value" 0b1010 old;
  checki "new value" 0b1110 (Ixp.Memory.peek m Insn.Sram 50)

let test_memory_hash_deterministic () =
  checki "hash stable" (Ixp.Memory.hash 0xDEADBEEF) (Ixp.Memory.hash 0xDEADBEEF);
  checkb "hash mixes" true (Ixp.Memory.hash 1 <> Ixp.Memory.hash 2)

(* Every image starts as the shared zero page; a write gives the page
   its own copy, visible to nobody else.  Bounds and transfer faults
   read exactly as they did over flat arrays. *)
let test_memory_copy_on_write () =
  let module M = Ixp.Memory in
  let cfg = M.default_config in
  let fresh = M.create () in
  List.iter
    (fun (space, words) ->
      List.iter
        (fun w -> checki "fresh memory reads zero" 0 (M.peek fresh space w))
        [ 0; min 1024 (words - 1); words - 1 ])
    [
      (Insn.Sram, cfg.M.sram_words);
      (Insn.Sdram, cfg.M.sdram_words);
      (Insn.Scratch, cfg.M.scratch_words);
    ];
  let g = FG.create () in
  ignore (FG.add_block g ~label:"entry" ~insns:[] ~term:Insn.Halt);
  let sim = Ixp.Simulator.create ~threads:2 g in
  let sd0 = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
  let sd1 = Ixp.Simulator.sdram_of_thread sim ~thread:1 in
  M.poke sd0 Insn.Sdram 70 0x1_2345_6789;
  checki "write lands, masked" 0x2345_6789 (M.peek sd0 Insn.Sdram 70);
  checki "other context's SDRAM untouched" 0 (M.peek sd1 Insn.Sdram 70);
  checki "fresh memory untouched" 0 (M.peek (M.create ()) Insn.Sdram 70);
  checki "rest of the page still zero" 0 (M.peek sd0 Insn.Sdram 71);
  (* an 8-word SRAM transfer across a page boundary *)
  let shared = Ixp.Simulator.shared_memory sim in
  let vals = Array.init 8 (fun k -> k + 1) in
  M.write shared Insn.Sram (4 * 1020) vals;
  checkb "transfer across pages" true
    (M.read shared Insn.Sram (4 * 1020) ~count:8 = vals);
  checki "page-crossing word" 5 (M.peek shared Insn.Sram 1024);
  let raised f =
    match f () with
    | _ -> "no exception"
    | exception Invalid_argument s -> "Invalid_argument " ^ s
    | exception M.Fault s -> "Fault " ^ s
  in
  let oob = "Invalid_argument index out of bounds" in
  Alcotest.(check string) "peek below" oob
    (raised (fun () -> M.peek fresh Insn.Sram (-1)));
  Alcotest.(check string) "peek past the end" oob
    (raised (fun () -> M.peek fresh Insn.Scratch cfg.M.scratch_words));
  Alcotest.(check string) "poke past the end" oob
    (raised (fun () -> M.poke fresh Insn.Sdram cfg.M.sdram_words 1));
  Alcotest.(check string) "misaligned"
    "Fault sram access at 0x2 violates 4-byte alignment"
    (raised (fun () -> M.read fresh Insn.Sram 2 ~count:1));
  Alcotest.(check string) "sdram alignment"
    "Fault sdram access at 0x4 violates 8-byte alignment"
    (raised (fun () -> M.read fresh Insn.Sdram 4 ~count:2));
  Alcotest.(check string) "illegal aggregate"
    "Fault illegal sdram aggregate size 3"
    (raised (fun () -> M.read fresh Insn.Sdram 0 ~count:3));
  Alcotest.(check string) "out of range"
    "Fault scratch access at 0xffc (+2 words) out of range"
    (raised (fun () -> M.write fresh Insn.Scratch 0xffc [| 1; 2 |]));
  Alcotest.(check string) "spill slot out of range"
    "Fault spill slot 64 out of range"
    (raised (fun () -> M.spill_store fresh 64 1));
  checki "a faulting write changes nothing" 0 (M.peek fresh Insn.Scratch 1023)

(* ---------------- flowgraph + liveness ---------------- *)

let mk_var = Ident.fresh

let diamond_graph () =
  (* entry: x = imm, branch -> a | b; a: y = x+1; b: y2 = x+2; join uses *)
  let g = FG.create () in
  let x = mk_var "x" and y = mk_var "y" and z = mk_var "z" in
  ignore
    (FG.add_block g ~label:"entry"
       ~insns:[ Insn.Imm { dst = x; value = 1 } ]
       ~term:
         (Insn.Branch
            { cond = Insn.Eq; x; y = Insn.Lit 0; ifso = "a"; ifnot = "b" }));
  ignore
    (FG.add_block g ~label:"a"
       ~insns:[ Insn.Alu { dst = y; op = Insn.Add; x; y = Insn.Lit 1 } ]
       ~term:(Insn.Jump "join"));
  ignore
    (FG.add_block g ~label:"b"
       ~insns:[ Insn.Alu { dst = y; op = Insn.Add; x; y = Insn.Lit 2 } ]
       ~term:(Insn.Jump "join"));
  ignore
    (FG.add_block g ~label:"join"
       ~insns:[ Insn.Alu1 { dst = z; op = `Mov; src = y } ]
       ~term:Insn.Halt);
  (g, x, y, z)

let test_liveness_diamond () =
  let g, x, y, _z = diamond_graph () in
  let live = Ixp.Liveness.compute g in
  (* x live into both arms; y live into join *)
  checkb "x live at a entry" true
    (Ident.Set.mem x (Ixp.Liveness.live_at live { FG.block = "a"; pos = 0 }));
  checkb "y live at join entry" true
    (Ident.Set.mem y (Ixp.Liveness.live_at live { FG.block = "join"; pos = 0 }));
  checkb "x dead at join" false
    (Ident.Set.mem x (Ixp.Liveness.live_at live { FG.block = "join"; pos = 0 }));
  (* interference: x interferes with nothing after its last use...
     x and y never simultaneously live (y defined at x's last use) *)
  let inter = Ixp.Liveness.interferences live in
  checkb "x/y no interference" false
    (List.exists
       (fun (a, b) ->
         (Ident.equal a x && Ident.equal b y)
         || (Ident.equal a y && Ident.equal b x))
       inter)

let test_copies_cross_edges () =
  let g, x, _y, _z = diamond_graph () in
  let live = Ixp.Liveness.compute g in
  let copies = Ixp.Liveness.copies live in
  (* x is carried from entry exit into both arm entries *)
  let carried_to label =
    List.exists
      (fun (p1, p2, v) ->
        Ident.equal v x
        && p1.FG.block = "entry"
        && p2.FG.block = label && p2.FG.pos = 0)
      copies
  in
  checkb "x carried to a" true (carried_to "a");
  checkb "x carried to b" true (carried_to "b")

let test_frequency_loop () =
  (* entry -> loop; loop -> loop | exit: loop block should be hotter *)
  let g = FG.create () in
  let i = mk_var "i" in
  ignore
    (FG.add_block g ~label:"entry"
       ~insns:[ Insn.Imm { dst = i; value = 0 } ]
       ~term:(Insn.Jump "loop"));
  ignore
    (FG.add_block g ~label:"loop"
       ~insns:[ Insn.Alu { dst = i; op = Insn.Add; x = i; y = Insn.Lit 1 } ]
       ~term:
         (Insn.Branch
            { cond = Insn.Lt; x = i; y = Insn.Lit 10; ifso = "loop"; ifnot = "exit" }));
  ignore (FG.add_block g ~label:"exit" ~insns:[] ~term:Insn.Halt);
  let freq = Ixp.Frequency.compute g in
  checkb "loop hotter than entry" true
    (Ixp.Frequency.block_frequency freq "loop"
    > Ixp.Frequency.block_frequency freq "entry");
  checkb "exit cooler than loop" true
    (Ixp.Frequency.block_frequency freq "exit"
    < Ixp.Frequency.block_frequency freq "loop")

let test_dempster_shafer () =
  let ds = Ixp.Frequency.dempster_shafer in
  Alcotest.(check (float 1e-9)) "neutral element" 0.7 (ds 0.5 0.7);
  checkb "reinforcement" true (ds 0.7 0.7 > 0.7);
  checkb "conflict dampens" true (ds 0.7 0.3 = ds 0.3 0.7)

(* ---------------- checker ---------------- *)

let reg b n = Reg.make b n

let physical_block insns term =
  let g = FG.create () in
  ignore (FG.add_block g ~label:"entry" ~insns ~term);
  g

let test_checker_accepts_legal () =
  let g =
    physical_block
      [
        Insn.Read
          {
            space = Insn.Sram;
            dsts = [| reg Bank.L 0; reg Bank.L 1 |];
            addr = { Insn.base = Insn.Lit 100; disp = 0 };
          };
        Insn.Alu
          { dst = reg Bank.A 0; op = Insn.Add; x = reg Bank.L 0; y = Insn.Reg (reg Bank.B 1) };
        Insn.Move { dst = reg Bank.S 3; src = reg Bank.A 0 };
        Insn.Write
          {
            space = Insn.Sram;
            srcs = [| reg Bank.S 3 |];
            addr = { Insn.base = Insn.Lit 200; disp = 0 };
          };
      ]
      Insn.Halt
  in
  checki "no violations" 0 (List.length (Ixp.Checker.check g))

let test_checker_rejects_illegal () =
  let violations insns =
    List.length (Ixp.Checker.check (physical_block insns Insn.Halt))
  in
  (* two operands from the same bank *)
  checkb "same-bank operands" true
    (violations
       [
         Insn.Alu
           { dst = reg Bank.A 0; op = Insn.Add; x = reg Bank.A 1; y = Insn.Reg (reg Bank.A 2) };
       ]
    > 0);
  (* one from L and one from LD: same group *)
  checkb "L+LD operands" true
    (violations
       [
         Insn.Alu
           { dst = reg Bank.B 0; op = Insn.Add; x = reg Bank.L 1; y = Insn.Reg (reg Bank.LD 2) };
       ]
    > 0);
  (* aggregate not adjacent *)
  checkb "non-adjacent aggregate" true
    (violations
       [
         Insn.Read
           {
             space = Insn.Sram;
             dsts = [| reg Bank.L 0; reg Bank.L 2 |];
             addr = { Insn.base = Insn.Lit 0; disp = 0 };
           };
       ]
    > 0);
  (* read into the wrong bank *)
  checkb "read into S" true
    (violations
       [
         Insn.Read
           {
             space = Insn.Sram;
             dsts = [| reg Bank.S 0 |];
             addr = { Insn.base = Insn.Lit 0; disp = 0 };
           };
       ]
    > 0);
  (* move S -> A has no datapath *)
  checkb "S->A move" true
    (violations [ Insn.Move { dst = reg Bank.A 0; src = reg Bank.S 0 } ] > 0);
  (* hash with mismatched numbers *)
  checkb "hash reg numbers" true
    (violations [ Insn.Hash { dst = reg Bank.L 1; src = reg Bank.S 2 } ] > 0);
  (* clone must not survive *)
  checkb "clone survives" true
    (violations [ Insn.Clone { dsts = [| reg Bank.A 0 |]; src = reg Bank.A 1 } ] > 0)

(* ---------------- simulator ---------------- *)

let test_simulator_basics () =
  let a0 = reg Bank.A 0 and b0 = reg Bank.B 0 and s0 = reg Bank.S 0 in
  let g =
    physical_block
      [
        Insn.Imm { dst = a0; value = 40 };
        Insn.Imm { dst = b0; value = 2 };
        Insn.Alu { dst = a0; op = Insn.Add; x = a0; y = Insn.Reg b0 };
        Insn.Move { dst = s0; src = a0 };
        Insn.Write
          { space = Insn.Scratch; srcs = [| s0 |]; addr = { Insn.base = Insn.Lit 64; disp = 0 } };
      ]
      Insn.Halt
  in
  let sim = Ixp.Simulator.create g in
  let cycles = Ixp.Simulator.run_single sim in
  checkb "some cycles" true (cycles > 0);
  checki "result" 42
    (Ixp.Memory.peek (Ixp.Simulator.shared_memory sim) Insn.Scratch 16)

(* sum 1..5 via a loop *)
let sum_loop_program () =
  let a0 = reg Bank.A 0 (* acc *) and a1 = reg Bank.A 1 (* i *) in
  let s0 = reg Bank.S 0 in
  let g = FG.create () in
  ignore
    (FG.add_block g ~label:"entry"
       ~insns:[ Insn.Imm { dst = a0; value = 0 }; Insn.Imm { dst = a1; value = 1 } ]
       ~term:(Insn.Jump "loop"));
  ignore
    (FG.add_block g ~label:"loop"
       ~insns:
         [
           Insn.Alu { dst = a0; op = Insn.Add; x = a0; y = Insn.Reg a1 };
           Insn.Alu { dst = a1; op = Insn.Add; x = a1; y = Insn.Lit 1 };
         ]
       ~term:
         (Insn.Branch
            { cond = Insn.Le; x = a1; y = Insn.Lit 5; ifso = "loop"; ifnot = "out" }));
  ignore
    (FG.add_block g ~label:"out"
       ~insns:
         [
           Insn.Move { dst = s0; src = a0 };
           Insn.Write
             { space = Insn.Scratch; srcs = [| s0 |]; addr = { Insn.base = Insn.Lit 0; disp = 0 } };
         ]
       ~term:Insn.Halt);
  g

let test_simulator_branch_loop () =
  let sim = Ixp.Simulator.create (sum_loop_program ()) in
  ignore (Ixp.Simulator.run_single sim);
  checki "sum 1..5" 15 (Ixp.Memory.peek (Ixp.Simulator.shared_memory sim) Insn.Scratch 0)

let test_simulator_multithread_throughput () =
  (* memory-bound single-packet program: multithreading should raise
     packets/cycle by hiding SDRAM latency *)
  let ld = [| reg Bank.LD 0; reg Bank.LD 1 |] in
  let g =
    physical_block
      [
        Insn.Read
          { space = Insn.Sdram; dsts = ld; addr = { Insn.base = Insn.Lit 0; disp = 0 } };
        Insn.Read
          { space = Insn.Sdram; dsts = ld; addr = { Insn.base = Insn.Lit 8; disp = 0 } };
        Insn.Read
          { space = Insn.Sdram; dsts = ld; addr = { Insn.base = Insn.Lit 16; disp = 0 } };
      ]
      Insn.Halt
  in
  let run threads =
    let sim = Ixp.Simulator.create ~threads g in
    let budget = 40 in
    let source ~thread:_ ~packets_done =
      if packets_done < budget / threads then Some [| 1; 2 |] else None
    in
    let cycles = Ixp.Simulator.run_packets sim source in
    float_of_int (Ixp.Simulator.packets_done sim) /. float_of_int cycles
  in
  let t1 = run 1 and t4 = run 4 in
  checkb "4 threads hide latency" true (t4 > t1 *. 1.5)

(* Code the simulator cannot run fails when it is reached, at the same
   instruction and with the same exception as before decoding, never
   when the simulator is created. *)
let test_simulator_error_timing () =
  let a0 = reg Bank.A 0 and a1 = reg Bank.A 1 in
  let m3 = { Reg.bank = Bank.M; num = 3 } in
  let c0 = { Reg.bank = Bank.C; num = 0 } in
  let lit n = { Insn.base = Insn.Lit n; disp = 0 } in
  let prelude =
    [ Insn.Imm { dst = a0; value = 7 }; Insn.Imm { dst = a1; value = 9 } ]
  in
  let run insns term =
    let sim = Ixp.Simulator.create (physical_block (prelude @ insns) term) in
    let outcome =
      match Ixp.Simulator.run_single sim with
      | cycles -> Printf.sprintf "ran in %d cycles" cycles
      | exception Diag.Compile_error d -> Diag.to_string d
      | exception e -> Printexc.to_string e
    in
    Printf.sprintf "%s after %d instructions" outcome
      (Ixp.Simulator.insns_executed sim)
  in
  let case what expected insns term =
    Alcotest.(check string) what expected (run insns term)
  in
  let stuck m =
    Printf.sprintf "Ixp.Simulator.Stuck(%S) after 3 instructions" m
  in
  let fault m = Printf.sprintf "Ixp.Memory.Fault(%S) after 3 instructions" m in
  case "bank-M operand" (stuck "direct register access to scratch bank M")
    [ Insn.Alu { dst = a0; op = Insn.Add; x = m3; y = Insn.Lit 1 } ]
    Insn.Halt;
  case "bank-C operand"
    (stuck "direct register access to the constant bank C")
    [ Insn.Move { dst = a1; src = c0 } ]
    Insn.Halt;
  case "clone" (stuck "clone pseudo-instruction reached simulator")
    [ Insn.Clone { dsts = [| a1 |]; src = a0 } ]
    Insn.Halt;
  case "jump to a missing label"
    "<unknown location>: error: internal compiler error: Flowgraph: unknown \
     block nowhere after 2 instructions"
    [] (Insn.Jump "nowhere");
  case "bad source before a misaligned address"
    (stuck "direct register access to scratch bank M")
    [ Insn.Write { space = Insn.Sram; srcs = [| m3 |]; addr = lit 2 } ]
    Insn.Halt;
  case "misaligned address before a bad destination"
    (fault "sram access at 0x2 violates 4-byte alignment")
    [ Insn.Read { space = Insn.Sram; dsts = [| c0 |]; addr = lit 2 } ]
    Insn.Halt;
  case "two bad operands, the second read first"
    (stuck "direct register access to the constant bank C")
    [ Insn.Alu { dst = a0; op = Insn.Add; x = m3; y = Insn.Reg c0 } ]
    Insn.Halt;
  case "register number outside its bank"
    "Invalid_argument(\"index out of bounds\") after 3 instructions"
    [ Insn.Move { dst = a0; src = { Reg.bank = Bank.L; num = 8 } } ]
    Insn.Halt;
  case "branch taken to a missing label"
    "<unknown location>: error: internal compiler error: Flowgraph: unknown \
     block gone after 2 instructions"
    []
    (Insn.Branch
       {
         cond = Insn.Lt;
         x = a0;
         y = Insn.Reg a1;
         ifso = "gone";
         ifnot = "entry";
       });
  case "a CSR write never reads its source"
    "ran in 3 cycles after 3 instructions"
    [ Insn.Csr_write { src = m3; csr = "ctx" } ]
    Insn.Halt;
  (* a bad block that is never reached costs nothing *)
  let g = FG.create () in
  ignore (FG.add_block g ~label:"entry" ~insns:prelude ~term:Insn.Halt);
  ignore
    (FG.add_block g ~label:"dead"
       ~insns:
         [
           Insn.Move { dst = a0; src = m3 };
           Insn.Move { dst = a0; src = c0 };
           Insn.Clone { dsts = [| a1 |]; src = a0 };
         ]
       ~term:(Insn.Jump "nowhere"));
  let sim = Ixp.Simulator.create g in
  checki "unreached bad block runs clean" 2 (Ixp.Simulator.run_single sim)

(* A loop whose body holds straight-line ALU work, a read of the cycle
   CSR in the middle of it, two memory references and a branch: the
   shapes where running a straight stretch at once could differ from
   stepping it.  Entry sets the trip count in A0. *)
let fuel_program () =
  let a n = reg Bank.A n and s n = reg Bank.S n in
  let write srcs byte =
    Insn.Write
      {
        space = Insn.Scratch;
        srcs;
        addr = { Insn.base = Insn.Lit byte; disp = 0 };
      }
  in
  let g = FG.create () in
  ignore
    (FG.add_block g ~label:"entry"
       ~insns:[ Insn.Imm { dst = a 0; value = 2 } ]
       ~term:(Insn.Jump "body"));
  ignore
    (FG.add_block g ~label:"body"
       ~insns:
         [
           Insn.Imm { dst = a 1; value = 0x12345678 };
           Insn.Alu { dst = a 2; op = Insn.Add; x = a 1; y = Insn.Reg (a 0) };
           Insn.Csr_read { dst = a 4; csr = "cycle" };
           Insn.Alu { dst = a 3; op = Insn.Shl; x = a 2; y = Insn.Lit 3 };
           Insn.Move { dst = s 0; src = a 3 };
           Insn.Move { dst = s 1; src = a 4 };
           write [| s 0; s 1 |] 64;
           Insn.Alu { dst = a 0; op = Insn.Sub; x = a 0; y = Insn.Lit 1 };
           Insn.Imm { dst = a 5; value = 0x10000 };
           Insn.Csr_read { dst = a 4; csr = "cycle" };
           Insn.Move { dst = s 2; src = a 4 };
           write [| s 2 |] 72;
         ]
       ~term:
         (Insn.Branch
            {
              cond = Insn.Gt;
              x = a 0;
              y = Insn.Lit 0;
              ifso = "body";
              ifnot = "out";
            }));
  ignore (FG.add_block g ~label:"out" ~insns:[] ~term:Insn.Halt);
  g

(* Fuel bounds the steps between two yields.  For every budget across
   the program's longest yield-free stretch, the exception, the
   instruction count and the clock where it stops are pinned. *)
let test_simulator_fuel () =
  let outcome k =
    let sim = Ixp.Simulator.create (fuel_program ()) in
    let how =
      match Ixp.Simulator.run_single ~fuel:k sim with
      | _ -> "halted"
      | exception e -> Printexc.to_string e
    in
    Printf.sprintf "fuel %d: %s, %d insns, %d cycles" k how
      (Ixp.Simulator.insns_executed sim)
      (Ixp.Simulator.cycles sim)
  in
  let stuck k insns cycles =
    Printf.sprintf
      "fuel %d: Ixp.Simulator.Stuck(\"thread 0: fuel exhausted\"), %d insns, \
       %d cycles"
      k insns cycles
  in
  let halted k = Printf.sprintf "fuel %d: halted, 25 insns, 78 cycles" k in
  Alcotest.(check (list string))
    "stop points"
    [
      stuck 1 1 1;
      stuck 2 1 2;
      stuck 3 2 4;
      stuck 4 3 5;
      stuck 5 4 6;
      stuck 6 5 7;
      stuck 7 6 8;
      stuck 8 7 9;
      halted 9;
      halted 10;
      halted 12;
    ]
    (List.map outcome [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 12 ])

(* The cycle CSR reads the clock at its own issue slot, whatever the
   instructions around it. *)
let test_simulator_cycle_csr () =
  let sim = Ixp.Simulator.create (fuel_program ()) in
  ignore (Ixp.Simulator.run_single sim);
  let word w = Ixp.Memory.peek (Ixp.Simulator.shared_memory sim) Insn.Scratch w in
  Alcotest.(check (list int))
    "cycle CSR values, last trip" [ 44; 63; 78 ]
    [ word 17; word 18; Ixp.Simulator.cycles sim ]

(* Decode's straight runs on real code, both allocators: a run holds no
   instruction that [Insn.yields], stays inside its block, and stops
   only at a yielding instruction, a CSR read or the terminator. *)
let test_simulator_straight_runs () =
  let compile allocator (name, source) =
    let options =
      {
        Regalloc.Driver.default_options with
        allocator;
        node_limit = 128;
        time_limit = 1e9;
        solver_domains = 1;
      }
    in
    (name, (Regalloc.Driver.compile ~options ~file:name source).physical)
  in
  let workloads =
    [
      ("aes", Workloads.Aes.source); ("kasumi", Workloads.Kasumi.source);
      ("nat", Workloads.Nat.source); ("lpm", Workloads.Lpm.source);
      ("firewall", Workloads.Firewall.source); ("csum", Workloads.Csum.source);
      ("qos", Workloads.Qos.source);
    ]
  in
  let programs =
    List.concat_map
      (fun allocator -> List.map (compile allocator) workloads)
      Regalloc.Driver.[ Ilp_allocator; Baseline_allocator ]
  in
  let in_runs = ref 0 in
  List.iter
    (fun (name, physical) ->
      let sim = Ixp.Simulator.create physical in
      List.iteri
        (fun block (b : Reg.t FG.block) ->
          let n = Array.length b.insns in
          for pc = 0 to n - 1 do
            let stop = Ixp.Simulator.straight_run sim ~block ~pc in
            let where = Printf.sprintf "%s %s.%d" name b.label pc in
            checkb (where ^ ": run inside the block") true
              (stop >= pc && stop <= n);
            for i = pc to stop - 1 do
              checkb (where ^ ": no yield in the run") false
                (Insn.yields b.insns.(i))
            done;
            if stop < n then
              checkb (where ^ ": run ends at a yield or a CSR read") true
                (Insn.yields b.insns.(stop)
                || match b.insns.(stop) with Insn.Csr_read _ -> true | _ -> false);
            if stop > pc then incr in_runs
          done)
        (FG.blocks physical))
    programs;
  checkb "runs cover instructions" true (!in_runs > 1000)

(* Block entries count each time a context enters a block: a loop of
   five trips enters its body five times, however the engine steps it. *)
let test_simulator_block_entries () =
  let entries program =
    let sim = Ixp.Simulator.create program in
    ignore (Ixp.Simulator.run_single sim);
    Ixp.Simulator.block_entries sim
  in
  Alcotest.(check (array (pair string int)))
    "sum loop"
    [| ("entry", 1); ("loop", 5); ("out", 1) |]
    (entries (sum_loop_program ()));
  Alcotest.(check (array (pair string int)))
    "fuel program"
    [| ("entry", 1); ("body", 2); ("out", 1) |]
    (entries (fuel_program ()))

let suites =
  [
    ( "ixp.machine",
      [
        Alcotest.test_case "bank datapaths" `Quick test_bank_datapaths;
        Alcotest.test_case "move costs" `Quick test_move_costs;
        Alcotest.test_case "memory alignment" `Quick test_memory_alignment;
        Alcotest.test_case "bit_test_set" `Quick test_memory_bit_test_set;
        Alcotest.test_case "hash deterministic" `Quick test_memory_hash_deterministic;
        Alcotest.test_case "copy-on-write pages" `Quick
          test_memory_copy_on_write;
      ] );
    ( "ixp.analysis",
      [
        Alcotest.test_case "liveness diamond" `Quick test_liveness_diamond;
        Alcotest.test_case "copies cross edges" `Quick test_copies_cross_edges;
        Alcotest.test_case "frequency loop" `Quick test_frequency_loop;
        Alcotest.test_case "dempster-shafer" `Quick test_dempster_shafer;
      ] );
    ( "ixp.checker",
      [
        Alcotest.test_case "accepts legal" `Quick test_checker_accepts_legal;
        Alcotest.test_case "rejects illegal" `Quick test_checker_rejects_illegal;
      ] );
    ( "ixp.simulator",
      [
        Alcotest.test_case "basics" `Quick test_simulator_basics;
        Alcotest.test_case "branch loop" `Quick test_simulator_branch_loop;
        Alcotest.test_case "multithread throughput" `Quick
          test_simulator_multithread_throughput;
        Alcotest.test_case "ill-formed code fails when run" `Quick
          test_simulator_error_timing;
        Alcotest.test_case "fuel stop points pinned" `Quick
          test_simulator_fuel;
        Alcotest.test_case "cycle CSR pinned" `Quick test_simulator_cycle_csr;
        Alcotest.test_case "straight runs agree with yields" `Quick
          test_simulator_straight_runs;
        Alcotest.test_case "block entries" `Quick test_simulator_block_entries;
      ] );
  ]
