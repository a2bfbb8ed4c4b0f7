(* Fidelity tests against the paper's own worked examples, and the
   deterministic claims of its evaluation (§11). *)

module Insn = Ixp.Insn
module FG = Ixp.Flowgraph
module Bank = Ixp.Bank

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Figure 3: the sample program

     p1  let (a, b, c, d) = sram(100);
     p2  let (e, f, g, h, i, j) = sram(200);
     p3  let u = a + c;
     p4  let v = g + h;
     p5  sram(300) <- (b, e, v, u);
     p6  sram(500) <- (f, j, d, i);
     p7

   The paper's AMPL data: 7 program points, 12 temporaries, DefL4 and
   DefL6 entries, two DefABW entries, two Arith entries, two UseS4
   entries. *)
(* ------------------------------------------------------------------ *)

let fig3_source =
  {|
fun main () {
  let (a, b, c, d) = sram(100);
  let (e, f, g, h, i, j) = sram(200);
  let u = a + c;
  let v = g + h;
  sram(300) <- (b, e, v, u);
  sram(500) <- (f, j, d, i);
}
|}

let build_fig3 () =
  let front = Regalloc.Driver.front_end ~file:"fig3.nova" fig3_source in
  Regalloc.Modelgen.build front.Regalloc.Driver.f_graph

let test_fig3_sets () =
  let mg = build_fig3 () in
  (* aggregate definitions: one of size 4, one of size 6 *)
  let def_sizes =
    List.sort compare
      (List.map
         (fun (ad : Regalloc.Modelgen.agg_def) ->
           Array.length ad.Regalloc.Modelgen.ad_members)
         mg.Regalloc.Modelgen.agg_defs)
  in
  checkb "DefL4 and DefL6" true (def_sizes = [ 4; 6 ]);
  (* aggregate uses: two of size 4 *)
  let use_sizes =
    List.sort compare
      (List.map
         (fun (au : Regalloc.Modelgen.agg_use) ->
           Array.length au.Regalloc.Modelgen.au_members)
         mg.Regalloc.Modelgen.agg_uses)
  in
  checkb "two UseS4" true (use_sizes = [ 4; 4 ]);
  (* two ALU results (u and v), i.e. two DefABW entries *)
  checki "two DefABW" 2 (List.length mg.Regalloc.Modelgen.def_abw);
  (* two Arith operand pairs *)
  checki "two Arith" 2 (List.length mg.Regalloc.Modelgen.arith2)

let test_fig3_solution_shape () =
  (* From the paper's §2.1 discussion of this example: the second read
     needs four adjacent L registers while (a,b,c,d) still hold L -- wait,
     the 6-read fills 6 of 8, so the 4-read's values must mostly leave.
     What must hold in any valid solution: zero spills, and the final
     program passes the machine checker. *)
  let c = Regalloc.Driver.compile ~file:"fig3.nova" fig3_source in
  checki "no spills" 0 c.Regalloc.Driver.stats.Regalloc.Driver.spills_inserted;
  checki "machine-legal" 0
    (List.length (Ixp.Checker.check c.Regalloc.Driver.physical));
  (* and the stores really read adjacent S registers *)
  let writes = ref 0 in
  FG.iter_blocks
    (fun b ->
      Array.iter
        (fun insn ->
          match insn with
          | Insn.Write { srcs; _ } ->
              incr writes;
              Array.iteri
                (fun k r ->
                  if k > 0 then
                    checki "adjacent"
                      (Ixp.Reg.num srcs.(k - 1) + 1)
                      (Ixp.Reg.num r))
                srcs
          | _ -> ())
        b.FG.insns)
    c.Regalloc.Driver.physical;
  checkb "both stores present" true (!writes >= 2)

(* ------------------------------------------------------------------ *)
(* §2.1: the x-at-two-positions store conflict.                        *)
(* ------------------------------------------------------------------ *)

let test_store_position_conflict () =
  (* sram(addr1) <- (u, v, x, w);  sram(addr2) <- (a, x, b, c)
     x sits at position 2 and position 1: impossible without a clone;
     the compiled result must still be correct. *)
  let src =
    {|
fun main () : word {
  let (u, v, x, w) = sram(0, 4);
  let (a, b, c) = sram(16, 3);
  sram(100) <- (u, v, x, w);
  sram(200) <- (a, x, b, c);
  x
}
|}
  in
  let c = Regalloc.Driver.compile ~file:"conflict.nova" src in
  let init mem poke =
    Array.iteri (fun i v -> poke mem i v) [| 9; 8; 7; 6; 5; 4; 3 |]
  in
  let interp_result, ist =
    Regalloc.Driver.interpret
      ~init:(fun st ->
        init (Cps.Interp.memory st) (fun m i v -> Ixp.Memory.poke m Insn.Sram i v))
      c
  in
  let _, sim_results, sim =
    Regalloc.Driver.simulate
      ~init:(fun sim ->
        init (Ixp.Simulator.shared_memory sim) (fun m i v ->
            Ixp.Memory.poke m Insn.Sram i v))
      c
  in
  checki "returns x" (List.hd interp_result) sim_results.(0);
  (* both stores landed identically in both executions *)
  let imem = Cps.Interp.memory ist in
  let smem = Ixp.Simulator.shared_memory sim in
  for w = 25 to 28 do
    checki "store1 word" (Ixp.Memory.peek imem Insn.Sram w)
      (Ixp.Memory.peek smem Insn.Sram w)
  done;
  for w = 50 to 53 do
    checki "store2 word" (Ixp.Memory.peek imem Insn.Sram w)
      (Ixp.Memory.peek smem Insn.Sram w)
  done

(* ------------------------------------------------------------------ *)
(* §3.2: the lyt ## {n} alignment example.                             *)
(* ------------------------------------------------------------------ *)

let test_layout_alignment_example () =
  (* the same 56-bit layout at offsets 0, 16 and 24 within 3 words,
     dispatched at runtime -- each branch extracts different bits *)
  let src =
    {|
layout lyt = { x : 16, y : 32, z : 8 };

fun main (sel : word) : word {
  let (p0, p1, p2) = sram(100);
  let ux = if (sel == 0) {
    let u = unpack[lyt ## {40}]((p0, p1, p2));
    u.x
  } else { if (sel == 1) {
    let u = unpack[{16} ## lyt ## {24}]((p0, p1, p2));
    u.x
  } else {
    let u = unpack[{24} ## lyt ## {16}]((p0, p1, p2));
    u.x
  } };
  ux
}
|}
  in
  (* words chosen so each alignment extracts a distinct x *)
  let words = [| 0x11112222; 0x33334444; 0x55556666 |] in
  List.iter
    (fun (sel, expected) ->
      let prog = Nova.Parser.parse_string ~file:"t" src in
      let tprog = Nova.Typecheck.check_program prog in
      let term = Cps.Convert.convert_program ~entry_args:[ sel ] tprog in
      let st = Cps.Interp.create () in
      Array.iteri
        (fun i v -> Ixp.Memory.poke (Cps.Interp.memory st) Insn.Sram (25 + i) v)
        words;
      let r = Cps.Interp.run st Support.Ident.Map.empty term in
      checkb
        (Printf.sprintf "alignment %d" sel)
        true
        (r = [ expected ]))
    [ (0, 0x1111); (1, 0x2222); (2, 0x2233) ]

(* ------------------------------------------------------------------ *)
(* §11: the evaluation's deterministic claims, on the seven workloads
   as [Test_chip] compiles them (the ILP cold under a 128-node budget). *)
(* ------------------------------------------------------------------ *)

module C = Test_chip

let sdram_words = Ixp.Memory.default_config.Ixp.Memory.sdram_words

(* The SDRAM words each workload's reference model fixes after one packet
   of [payload_len] bytes: the first word's address and the words. *)
let reference_words =
  let span (image, _) ~lo ~hi = (lo, Array.sub image lo (hi - lo + 1)) in
  let dataplane expected in_base ~payload_len =
    span
      (expected ~payload_len ~sdram_words)
      ~lo:(in_base / 4)
      ~hi:(((in_base + 20 + payload_len) / 4) + 1)
  in
  [
    ( C.w_aes,
      fun ~payload_len ->
        Workloads.Aes.(ct_base / 4, fst (expected ~payload_len)) );
    ( C.w_kasumi,
      fun ~payload_len ->
        Workloads.Kasumi.(pkt_base / 4, fst (expected ~payload_len)) );
    ( C.w_nat,
      fun ~payload_len ->
        Workloads.Nat.(
          span
            (expected ~payload_len ~sdram_words)
            ~lo:0
            ~hi:((in_base + 40 + payload_len) / 4)) );
    (C.w_lpm, Workloads.Lpm.(dataplane expected in_base));
    (C.w_firewall, Workloads.Firewall.(dataplane expected in_base));
    (C.w_csum, Workloads.Csum.(dataplane expected in_base));
    (C.w_qos, Workloads.Qos.(dataplane expected in_base));
  ]

(* Fig. 7: no spills, and the code computes what the reference model
   does, word for word. *)
let test_fig7_ilp_code () =
  List.iter
    (fun (w, reference) ->
      let c = C.ilp_compiled w in
      checki (w.C.w_name ^ ": spills") 0
        c.Regalloc.Driver.stats.Regalloc.Driver.spills_inserted;
      let payload_len = w.C.w_plen in
      let sim, _ = C.run_one w c.Regalloc.Driver.physical ~payload_len in
      let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
      let base, words = reference ~payload_len in
      Array.iteri
        (fun i v ->
          checki
            (Printf.sprintf "%s: sdram[%d]" w.C.w_name (base + i))
            v
            (Ixp.Memory.peek sdram Insn.Sdram (base + i)))
        words)
    reference_words

(* Mpps of one engine of [threads] contexts, offered 32 packets of 64
   bytes faster than it can take them. *)
let saturated_mpps w physical ~threads =
  let config =
    { Ixp.Chip.default_config with Ixp.Chip.engines = 1; threads }
  in
  Ixp.Chip.achieved_mpps
    (C.chip_leg ~config w physical ~offered:16.0 ~count:32)

let test_ilp_rate_at_least_baseline () =
  List.iter
    (fun w ->
      let rate code = saturated_mpps w (code w) ~threads:4 in
      let ilp = rate C.ilp_code and base = rate C.baseline_code in
      checkb
        (Printf.sprintf "%s: ILP %.4f Mpps >= baseline %.4f" w.C.w_name ilp
           base)
        true (ilp >= base))
    C.workloads

(* §11 throughput: four contexts hide memory latency, and Kasumi's
   cycles per packet grow in proportion to its payload. *)
let test_throughput_shape () =
  List.iter
    (fun w ->
      let rate threads = saturated_mpps w (C.ilp_code w) ~threads in
      let one = rate 1 and four = rate 4 in
      checkb
        (Printf.sprintf "%s: 4 contexts %.4f Mpps >= 1.5 x 1 context %.4f"
           w.C.w_name four one)
        true
        (four >= 1.5 *. one))
    [ C.w_aes; C.w_kasumi ];
  let cycles payload_len =
    float_of_int
      (snd (C.run_one C.w_kasumi (C.ilp_code C.w_kasumi) ~payload_len))
  in
  let ratio = cycles 256 /. cycles 8 in
  checkb
    (Printf.sprintf "Kasumi cycles 256 B / 8 B = %.2f, within 10%% of 32"
       ratio)
    true
    (Float.abs (ratio -. 32.) <= 3.2)

let suites =
  [
    ( "paper.figure3",
      [
        Alcotest.test_case "AMPL sets" `Quick test_fig3_sets;
        Alcotest.test_case "solution shape" `Quick test_fig3_solution_shape;
      ] );
    ( "paper.examples",
      [
        Alcotest.test_case "store position conflict" `Quick
          test_store_position_conflict;
        Alcotest.test_case "layout alignment dispatch" `Quick
          test_layout_alignment_example;
      ] );
    ( "paper.evaluation",
      [
        Alcotest.test_case "Fig. 7: zero spills, reference output" `Quick
          test_fig7_ilp_code;
        Alcotest.test_case "ILP rate at least the baseline's" `Quick
          test_ilp_rate_at_least_baseline;
        Alcotest.test_case "§11 throughput shape" `Quick test_throughput_shape;
      ] );
  ]
