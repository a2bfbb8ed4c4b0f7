(* Benchmark harness: regenerates every table and figure from the paper's
   evaluation (§11).  See EXPERIMENTS.md for paper-vs-measured records;
   timings with medians and verdicts come from perfbench/.

     dune exec bench/main.exe -- COMMAND

   The command table at the end of this file lists every COMMAND with a
   one-line description; an unknown one prints it. *)

open Workbench

let rule title = Fmt.pr "@.=== %s ===@." title

(* ---------------- Figure 5: static program statistics ---------------- *)

let figure5 () =
  rule "Figure 5: static benchmark program statistics";
  Fmt.pr "%-8s | %19s | %7s | %4s | %6s | %5s | %6s@." "" "lines (ours/paper)"
    "layouts" "pack" "unpack" "raise" "handle";
  List.iter
    (fun w ->
      let prog = Nova.Parser.parse_string ~file:w.name w.source in
      let s = Nova.Stats.of_program ~source:w.source prog in
      let paper_lines =
        match w.paper_fig5 with Some (l, _, _, _, _, _) -> l | None -> 0
      in
      Fmt.pr "%-8s | %9d / %7d | %7d | %4d | %6d | %5d | %6d@." w.name
        s.Nova.Stats.lines paper_lines s.Nova.Stats.layout_specs
        s.Nova.Stats.packs s.Nova.Stats.unpacks s.Nova.Stats.raises
        s.Nova.Stats.handles)
    all;
  Fmt.pr
    "(paper line counts include the receive/transmit harness of the full \
     application; paper pack/unpack: AES 5/3, Kasumi 4/2; NAT predates \
     layouts)@."

(* ---------------- Figure 6: AMPL statistics ---------------- *)

let figure6 () =
  rule "Figure 6: temporaries participating in coloring (AMPL statistics)";
  Fmt.pr "%-8s | %6s %6s %6s | %6s %6s %6s   (paper totals in parens)@." ""
    "DefL" "DefLD" "total" "UseS" "UseSD" "total";
  List.iter
    (fun w ->
      let f = front w in
      let mg = Regalloc.Modelgen.build f.Regalloc.Driver.f_graph in
      let c = Regalloc.Modelgen.coloring_stats mg in
      let p_def, p_use =
        match w.paper_fig6 with
        | Some (_, _, dt, _, _, ut) -> (dt, ut)
        | None -> (0, 0)
      in
      Fmt.pr "%-8s | %6d %6d %6d | %6d %6d %6d   (paper: %d / %d)@." w.name
        c.Regalloc.Modelgen.def_l c.Regalloc.Modelgen.def_ld
        (c.Regalloc.Modelgen.def_l + c.Regalloc.Modelgen.def_ld)
        c.Regalloc.Modelgen.use_s c.Regalloc.Modelgen.use_sd
        (c.Regalloc.Modelgen.use_s + c.Regalloc.Modelgen.use_sd)
        p_def p_use)
    all

(* ---------------- Figure 7: solver statistics ---------------- *)

let figure7 () =
  rule "Figure 7: solver statistics";
  Fmt.pr "%-8s | %8s %8s | %8s %8s %8s | %5s %6s@." "" "root(s)" "total(s)"
    "vars" "rows" "objterms" "moves" "spills";
  List.iter
    (fun w ->
      let c = compile w in
      let s = c.Regalloc.Driver.stats in
      (match s.Regalloc.Driver.mip with
      | Some m ->
          Fmt.pr "%-8s | %8.2f %8.2f | %8d %8d %8d | %5d %6d@." w.name
            m.Lp.Mip.root_time m.Lp.Mip.total_time m.Lp.Mip.vars_before
            m.Lp.Mip.rows_before m.Lp.Mip.obj_terms
            s.Regalloc.Driver.moves_inserted s.Regalloc.Driver.spills_inserted
      | None -> Fmt.pr "%-8s | (no MIP stats)@." w.name);
      match w.paper_fig7 with
      | Some (rt, it, vk, ck, ok, mv, sp) ->
          Fmt.pr "%-8s | %8.1f %8.1f | %7dk %7dk %7dk | %5d %6d   (paper)@." ""
            rt it vk ck ok mv sp
      | None -> ())
    all;
  Fmt.pr
    "(paper: CPLEX on an 800 MHz Pentium III; ours: in-repo dual simplex + \
     branch&bound after the §8/§11 model reductions)@."

(* ---------------- Throughput (§11 measured bit rates) ---------------- *)

let throughput () =
  rule "Throughput: simulated 233 MHz micro-engine";
  Fmt.pr "%-8s | %8s | %10s | %10s | %9s@." "" "payload" "cycles/pkt"
    "1-thr Mb/s" "4-thr Mb/s";
  let sweep w payloads =
    List.iter
      (fun payload_len ->
        let c = compile w in
        (* single-thread run *)
        let sim1 = Ixp.Simulator.create ~threads:1 c.Regalloc.Driver.physical in
        init_sim w sim1 ~payload_len;
        let cycles = Ixp.Simulator.run_single sim1 in
        let mbps1 = Ixp.Simulator.mbps sim1 ~bytes:payload_len in
        (* 4-thread pipelined run over a packet burst; each thread has its
           own SDRAM packet image already initialized identically *)
        let sim4 = Ixp.Simulator.create ~threads:4 c.Regalloc.Driver.physical in
        init_sim w sim4 ~payload_len;
        let sd0 = Ixp.Simulator.sdram_of_thread sim4 ~thread:0 in
        for t = 1 to 3 do
          let sd = Ixp.Simulator.sdram_of_thread sim4 ~thread:t in
          for i = 0 to 2047 do
            Ixp.Memory.poke sd Ixp.Insn.Sdram i
              (Ixp.Memory.peek sd0 Ixp.Insn.Sdram i)
          done
        done;
        let budget_per_thread = 16 in
        let source ~thread:_ ~packets_done =
          if packets_done < budget_per_thread then Some [||] else None
        in
        let total_cycles = Ixp.Simulator.run_packets sim4 source in
        let pkts = Ixp.Simulator.packets_done sim4 in
        let bits = float_of_int (payload_len * 8 * pkts) in
        let mbps4 = bits /. (float_of_int total_cycles /. 233e6) /. 1e6 in
        Fmt.pr "%-8s | %8d | %10d | %10.1f | %9.1f@." w.name payload_len cycles
          mbps1 mbps4)
      payloads
  in
  sweep aes [ 16; 64; 256 ];
  sweep kasumi [ 8; 16; 64; 256 ];
  Fmt.pr
    "(paper measured on hardware: AES 270 Mb/s @16B; Kasumi 320/210/60 Mb/s \
     @ 8/16/256B)@."

(* ---------------- Ablation: spill-feasibility objective ---------------- *)

let ablation () =
  rule "Ablation: §11 alternative (spill-feasibility) objective";
  Fmt.pr "%-8s | %14s | %14s@." "" "full obj (s)" "spill obj (s)";
  List.iter
    (fun w ->
      let time_of c =
        match c.Regalloc.Driver.stats.Regalloc.Driver.mip with
        | Some m -> m.Lp.Mip.total_time
        | None -> nan
      in
      let full = compile w in
      let spill = compile ~objective:Regalloc.Ilp.Spill_feasibility w in
      Fmt.pr "%-8s | %14.2f | %14.2f@." w.name (time_of full) (time_of spill))
    all;
  Fmt.pr "(paper: AES 9 s and NAT 19.2 s under the alternative objective)@."

(* ---------------- Baseline comparison ---------------- *)

let baseline () =
  rule "ILP vs eager-heuristic baseline (weighted move cost, paper §1/§2)";
  Fmt.pr "%-8s | %12s %12s | %14s %14s@." "" "ILP moves" "base moves"
    "ILP wcost" "base wcost";
  List.iter
    (fun w ->
      let ilp = compile w in
      let si = ilp.Regalloc.Driver.stats in
      match
        try Some (compile ~allocator:Regalloc.Driver.Baseline_allocator w)
        with Regalloc.Driver.Allocation_failed _ -> None
      with
      | Some base ->
          let sb = base.Regalloc.Driver.stats in
          Fmt.pr "%-8s | %12d %12d | %14.1f %14.1f@." w.name
            si.Regalloc.Driver.moves_inserted sb.Regalloc.Driver.moves_inserted
            si.Regalloc.Driver.weighted_move_cost
            sb.Regalloc.Driver.weighted_move_cost
      | None ->
          Fmt.pr "%-8s | %12d %12s | %14.1f %14s  (baseline failed)@." w.name
            si.Regalloc.Driver.moves_inserted "-"
            si.Regalloc.Driver.weighted_move_cost "-")
    all

(* ---------------- chip-level forwarding rates ---------------- *)

(* Paper-style line-rate table: each workload compiled with the ILP
   allocator and with the baseline heuristic, then run on the chip model
   (N engines x 4 contexts behind the shared memory bus) against the
   synthetic packet generator.  The solver runs under a node budget --
   deterministic, unlike a wall-clock cutoff -- so the same seed
   reproduces identical numbers across runs. *)
let rec rates () =
  rule "Forwarding rate: chip-level simulation (ILP vs baseline allocator)";
  let seed = 42 in
  let packets = 512 in
  let node_limit = 400 in
  let profile = Ixp.Pktgen.Fixed 64 in
  let engine_counts = [ 1; 2; 6 ] in
  (* one load every configuration can sustain (achieved = offered, no
     drops) and one that saturates even six engines (achieved = capacity,
     RX rings overflow) *)
  let offered_loads = [ 0.01; 1.0 ] in
  Fmt.pr
    "(profile %s, seed %d, %d packets/run, 4 contexts/engine, solver node \
     budget %d)@."
    (Ixp.Pktgen.profile_to_string profile)
    seed packets node_limit;
  Fmt.pr "%-8s %-5s %-10s | %3s | %7s | %8s %8s | %6s | %5s | %8s@." ""
    "alloc" "outcome" "eng" "offered" "achieved" "Mbit/s" "drop%" "util%"
    "p50 lat";
  List.iter
    (fun w ->
      List.iter
        (fun (alloc_name, alloc) ->
          match
            try
              Some (compile ~allocator:alloc ~time_limit:1e9 ~node_limit w)
            with Regalloc.Driver.Allocation_failed _ -> None
          with
          | None ->
              Fmt.pr "%-8s %-5s (compile failed)@." w.name alloc_name
          | Some c ->
              let outcome =
                Regalloc.Driver.solver_outcome_to_string
                  c.Regalloc.Driver.stats.Regalloc.Driver.solver_outcome
              in
              (* strip the parenthetical for column width *)
              let outcome =
                match String.index_opt outcome ' ' with
                | Some i -> String.sub outcome 0 i
                | None -> outcome
              in
              List.iter
                (fun engines ->
                  List.iter
                    (fun offered ->
                      let r =
                        chip_run w c ~engines ~threads:4 ~offered ~packets
                          ~seed ~profile
                      in
                      let util =
                        let sum = ref 0. in
                        for e = 0 to engines - 1 do
                          sum := !sum +. Ixp.Chip.utilization r e
                        done;
                        100. *. !sum /. float_of_int engines
                      in
                      Fmt.pr
                        "%-8s %-5s %-10s | %3d | %7.2f | %8.3f %8.1f | %6.1f \
                         | %5.1f | %8d@."
                        w.name alloc_name outcome engines offered
                        (Ixp.Chip.achieved_mpps r)
                        (Ixp.Chip.achieved_mbps r)
                        (100. *. Ixp.Chip.drop_rate r)
                        util
                        (Ixp.Chip.latency_percentile r 0.50))
                    offered_loads)
                engine_counts)
        [ ("ilp", Regalloc.Driver.Ilp_allocator);
          ("base", Regalloc.Driver.Baseline_allocator) ])
    all;
  Fmt.pr
    "(offered/achieved in Mpps at 233 MHz; p50 latency in cycles from \
     arrival to packet completion; drops are RX-ring overflows)@.";
  cluster_rates ()

(* ---------------- cluster forwarding rates ---------------- *)

(* Adversarial traffic against the multi-chip cluster: flow-skewed and
   flood profiles that stress the load balancer's affinity and failover
   behaviour.  Reported per profile x balancer x allocator: forwarding
   rate, p99/p999 tail latency from the Support.Metrics histograms, and
   per-chip drop accounting.  Fully deterministic under the fixed
   seed. *)
and cluster_rates () =
  rule "Cluster forwarding rate: adversarial traffic (ILP vs baseline)";
  let seed = 42 in
  let packets = 3000 in
  let node_limit = 400 in
  let chips = 4 in
  let engines = 2 in
  let offered = 0.6 in
  let w = kasumi in
  let profiles =
    [
      Ixp.Pktgen.Syn_flood { size = 40 };
      Ixp.Pktgen.Elephants { flows = 512; heavy = 4; heavy_pct = 80; size = 576 };
      Ixp.Pktgen.Imix_path;
    ]
  in
  Fmt.pr
    "(%s, %d chips x %d engines x 4 contexts, offered %.2f Mpps, %d \
     packets/run, seed %d)@."
    w.name chips engines offered packets seed;
  Fmt.pr "%-10s %-5s %-4s | %8s | %6s | %8s %8s | %s@." "profile" "alloc"
    "bal" "achieved" "drop%" "p99" "p99.9" "per-chip drops";
  List.iter
    (fun (alloc_name, alloc) ->
      match
        try Some (compile ~allocator:alloc ~time_limit:1e9 ~node_limit w)
        with Regalloc.Driver.Allocation_failed _ -> None
      with
      | None -> Fmt.pr "%-10s %-5s (compile failed)@." "" alloc_name
      | Some c ->
          List.iter
            (fun profile ->
              List.iter
                (fun balancer ->
                  let r =
                    cluster_run w c ~chips ~balancer ~engines ~threads:4
                      ~offered ~packets ~seed ~profile ~drop_budget:0
                  in
                  let drops =
                    String.concat "/"
                      (Array.to_list
                         (Array.map string_of_int r.Cluster.lb_dropped))
                  in
                  Fmt.pr "%-10s %-5s %-4s | %8.3f | %6.1f | %8d %8d | %s@."
                    (Ixp.Pktgen.profile_to_string profile)
                    alloc_name
                    (Cluster.balancer_to_string balancer)
                    (Cluster.achieved_mpps r)
                    (100. *. Cluster.drop_rate r)
                    r.Cluster.p99 r.Cluster.p999 drops)
                [ Cluster.Flow_hash; Cluster.Round_robin ])
            profiles)
    [ ("ilp", Regalloc.Driver.Ilp_allocator);
      ("base", Regalloc.Driver.Baseline_allocator) ];
  Fmt.pr
    "(drops are balancer drops charged to the packet's natural target; \
     p99/p99.9 in cycles from the cluster.latency histogram)@."

(* ---------------- §8 model-size reductions ---------------- *)

let pruning () =
  rule "Model size under the §8-style reductions (\"a million variables\")";
  Fmt.pr "%-8s | %23s | %23s | %s@." "" "spill-free model" "with scratch (M)"
    "after LP presolve";
  List.iter
    (fun w ->
      let f = front w in
      let size allow_spill =
        let mg = Regalloc.Modelgen.build ~allow_spill f.Regalloc.Driver.f_graph in
        let ilp = Regalloc.Ilp.build mg in
        let p = ilp.Regalloc.Ilp.problem in
        let st = Lp.Problem.stats p in
        (st.Lp.Problem.n_vars, st.Lp.Problem.n_rows, p)
      in
      let v1, r1, p1 = size false in
      let v2, r2, _ = size true in
      let v3, r3 =
        match Lp.Presolve.run p1 with
        | Lp.Presolve.Reduced (r, _) ->
            let st = Lp.Problem.stats r in
            (st.Lp.Problem.n_vars, st.Lp.Problem.n_rows)
        | Lp.Presolve.Infeasible_detected -> (0, 0)
      in
      Fmt.pr "%-8s | %9d v %9d r | %9d v %9d r | %d v %d r@." w.name v1 r1 v2
        r2 v3 r3)
    all;
  Fmt.pr
    "(paper §8: without its reductions the models would reach ~10^6 move \
     variables; with them CPLEX solved 10^5-variable models)@."

(* ---------------- §12 rematerialization (future work, implemented) --- *)

let remat () =
  rule "§12 rematerialization: constants through the virtual bank C";
  Fmt.pr "%-8s | %12s %12s | %12s %12s %12s | %s@." "" "cycles"
    "cycles+remat" "moves" "moves+remat" "imms+remat" "same SDRAM";
  let node_limit = 128 in
  let failed = ref false in
  List.iter
    (fun w ->
      (* one 64-byte packet through thread 0: its cycles and final SDRAM
         image *)
      let run c =
        let sim = Ixp.Simulator.create c.Regalloc.Driver.physical in
        init_sim w sim ~payload_len:64;
        let cycles = Ixp.Simulator.run_single sim in
        let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
        ( cycles,
          Array.init Ixp.Memory.default_config.Ixp.Memory.sdram_words (fun i ->
              Ixp.Memory.peek sdram Ixp.Insn.Sdram i) )
      in
      let plain = compile ~node_limit w in
      match
        Regalloc.Driver.compile
          ~options:
            {
              Regalloc.Driver.default_options with
              rematerialize = true;
              time_limit = 900.;
              node_limit;
            }
          ~file:(w.name ^ ".nova") w.source
      with
      | r ->
          let cycles, image = run plain in
          let cycles_r, image_r = run r in
          let same = image = image_r in
          if not same then failed := true;
          Fmt.pr "%-8s | %12d %12d | %12d %12d %12d | %b@." w.name cycles
            cycles_r plain.Regalloc.Driver.stats.Regalloc.Driver.moves_inserted
            r.Regalloc.Driver.stats.Regalloc.Driver.moves_inserted
            r.Regalloc.Driver.stats.Regalloc.Driver.imms_inserted same
      | exception e ->
          failed := true;
          Fmt.pr "%-8s | remat compile failed: %s@." w.name
            (Printexc.to_string e))
    all;
  Fmt.pr
    "(the paper §12 describes this virtual constant bank C as designed but \
     unimplemented; here it is completed end to end, at a %d-node budget)@."
    node_limit;
  if !failed then exit 1

(* ---------------- driver ---------------- *)

let every_experiment () =
  figure5 ();
  figure6 ();
  pruning ();
  figure7 ();
  baseline ();
  ablation ();
  remat ();
  throughput ()

(* (name, one-line description, run): the dispatcher and the usage
   message both read this table *)
let commands =
  [
    ( "all",
      "figure5, figure6, pruning, figure7, baseline, ablation, remat and \
       throughput",
      every_experiment );
    ("figure5", "static program statistics (Figure 5)", figure5);
    ("figure6", "AMPL coloring statistics (Figure 6)", figure6);
    ("figure7", "solver statistics (Figure 7)", figure7);
    ("throughput", "Mbit/s payload sweep on one engine", throughput);
    ("rates", "chip and cluster forwarding rates, ILP and baseline", rates);
    ("ablation", "the spill-feasibility objective", ablation);
    ("baseline", "ILP against the eager-heuristic allocator", baseline);
    ("pruning", "§8 model-size reductions", pruning);
    ("remat", "§12 rematerialization through bank C", remat);
  ]

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match List.find_opt (fun (name, _, _) -> name = which) commands with
  | Some (_, _, run) -> run ()
  | None ->
      Fmt.epr "unknown command %s@.usage: dune exec bench/main.exe -- COMMAND@."
        which;
      List.iter (fun (name, doc, _) -> Fmt.epr "  %-15s %s@." name doc) commands;
      exit 1
