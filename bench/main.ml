(* Benchmark harness: regenerates every table and figure from the paper's
   evaluation (§11) and runs the CI smoke gates.  See EXPERIMENTS.md for
   paper-vs-measured records; timings with medians and verdicts come
   from perfbench/.

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
let rec rates ~full () =
  rule "Forwarding rate: chip-level simulation (ILP vs baseline allocator)";
  let seed = 42 in
  let packets = if full then 512 else 128 in
  let node_limit = if full then 400 else 60 in
  let profile = Ixp.Pktgen.Fixed 64 in
  let workloads = if full then all else [ kasumi; lpm; firewall; csum; qos ] in
  let engine_counts = if full then [ 1; 2; 6 ] else [ 1; 2 ] in
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
    workloads;
  Fmt.pr
    "(offered/achieved in Mpps at 233 MHz; p50 latency in cycles from \
     arrival to packet completion; drops are RX-ring overflows)@.";
  cluster_rates ~full ()

(* ---------------- cluster forwarding rates ---------------- *)

(* Adversarial traffic against the multi-chip cluster: flow-skewed and
   flood profiles that stress the load balancer's affinity and failover
   behaviour.  Reported per profile x balancer x allocator: forwarding
   rate, p99/p999 tail latency from the Support.Metrics histograms, and
   per-chip drop accounting.  Fully deterministic under the fixed
   seed. *)
and cluster_rates ~full () =
  rule "Cluster forwarding rate: adversarial traffic (ILP vs baseline)";
  let seed = 42 in
  let packets = if full then 3000 else 600 in
  let node_limit = if full then 400 else 60 in
  let chips = if full then 4 else 2 in
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

(* CI smoke: a small cluster under a hard wall-clock ceiling, run twice
   to assert bit-identical reports under the fixed seed. *)
let cluster_smoke () =
  rule "Cluster smoke: determinism + wall-clock ceiling";
  let ceiling = 60. in
  let t0 = Unix.gettimeofday () in
  let w = kasumi in
  let c = compile ~allocator:Regalloc.Driver.Baseline_allocator w in
  let run balancer =
    cluster_run w c ~chips:2 ~balancer ~engines:2 ~threads:4 ~offered:0.6
      ~packets:400 ~seed:7
      ~profile:(Ixp.Pktgen.Syn_flood { size = 40 })
      ~drop_budget:0
  in
  let key (r : Cluster.report) =
    ( r.Cluster.cycles,
      r.Cluster.generated,
      r.Cluster.completed,
      r.Cluster.bytes_completed,
      Array.to_list r.Cluster.steered,
      Array.to_list r.Cluster.lb_dropped,
      (r.Cluster.p50, r.Cluster.p90, r.Cluster.p99, r.Cluster.p999) )
  in
  let r1 = run Cluster.Flow_hash in
  let r2 = run Cluster.Flow_hash in
  let rr = run Cluster.Round_robin in
  Fmt.pr "%a" Cluster.pp_report r1;
  Fmt.pr "round-robin: %d completed, %d dropped@." rr.Cluster.completed
    (Cluster.dropped rr);
  let deterministic = key r1 = key r2 in
  let accounted =
    r1.Cluster.generated = r1.Cluster.completed + Cluster.dropped r1
  in
  (* keep the full reports as a CI artifact *)
  let oc = open_out (artifact "cluster_smoke.txt") in
  let ppf = Format.formatter_of_out_channel oc in
  Cluster.pp_report ppf r1;
  Cluster.pp_report ppf rr;
  Format.pp_print_flush ppf ();
  close_out oc;
  let wall = Unix.gettimeofday () -. t0 in
  Fmt.pr
    "smoke wall time: %.2fs (ceiling %.0fs), deterministic: %b, accounted: \
     %b@."
    wall ceiling deterministic accounted;
  if wall > ceiling || (not deterministic) || not accounted then begin
    Fmt.epr "cluster-smoke FAILED@.";
    exit 1
  end

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

(* ---------------- solver smoke ---------------- *)

(* Root-LP and integer solve times on the paper models, plus seeded
   random 0-1 instances, for the CI gate below. *)

(* The LU work of one solve: LP rows after presolve, factorizations
   (the first one included) and refactorizations, active-submatrix
   entries moved, and L + U entries summed over the factorizations. *)
type lu_work = {
  lu_rows : int;
  lu_factorizations : int;
  lu_refactorizations : int;
  lu_moves : int;
  lu_entries : int;
}

type solver_row = {
  sb_name : string;
  sb_status : string;
  sb_obj : float;
  sb_bound : float;
  sb_root : float;
  sb_total : float;
  sb_nodes : int;
  sb_iters : int;
  sb_heur : int;
  sb_lu : lu_work;
}

(* [Lp.Mip.solve] by [solve], with the LU counters it advanced. *)
let lu_measured solve =
  let module M = Support.Metrics in
  let counters () =
    let c name = M.counter_value (M.counter name) in
    ( M.histogram_count (M.histogram "lp.lu.factorize_us"),
      c "lp.lu.refactorizations",
      c "lp.lu.moves",
      c "lp.lu.l_nnz" + c "lp.lu.u_nnz" )
  in
  let f0, r0, m0, e0 = counters () in
  let r = solve () in
  let f1, r1, m1, e1 = counters () in
  ( r,
    {
      lu_rows = r.Lp.Mip.stats.Lp.Mip.rows_after;
      lu_factorizations = f1 - f0;
      lu_refactorizations = r1 - r0;
      lu_moves = m1 - m0;
      lu_entries = e1 - e0;
    } )

let solver_status_string = function
  | Lp.Mip.Optimal -> "optimal"
  | Lp.Mip.Infeasible -> "infeasible"
  | Lp.Mip.Limit -> "limit"

let solve_workload_model ~time_limit ?rel_gap w =
  let f = front w in
  let mg = Regalloc.Modelgen.build ~allow_spill:false f.Regalloc.Driver.f_graph in
  let ilp = Regalloc.Ilp.build mg in
  let p = ilp.Regalloc.Ilp.problem in
  let r, lu =
    lu_measured (fun () ->
        Lp.Mip.solve ~time_limit ~node_limit:20_000 ?rel_gap
          ~branch_first:ilp.Regalloc.Ilp.branch_first p)
  in
  let s = r.Lp.Mip.stats in
  {
    sb_name = w.name;
    sb_status = solver_status_string r.Lp.Mip.status;
    sb_obj = r.Lp.Mip.objective;
    sb_bound = s.Lp.Mip.best_bound;
    sb_root = s.Lp.Mip.root_time;
    sb_total = s.Lp.Mip.total_time;
    sb_nodes = s.Lp.Mip.nodes;
    sb_iters = s.Lp.Mip.simplex_iterations;
    sb_heur = s.Lp.Mip.heuristic_incumbents;
    sb_lu = lu;
  }

(* seeded random set-packing/covering mixes, all solved to optimality *)
let solver_random_instance seed =
  let st = Random.State.make [| seed |] in
  let p = Lp.Problem.create () in
  let n = 40 in
  let vars =
    Array.init n (fun i ->
        Lp.Problem.add_binary p
          ~obj:(-.float_of_int (1 + Random.State.int st 9))
          (Printf.sprintf "x%d" i))
  in
  for _ = 1 to 60 do
    let k = 3 + Random.State.int st 5 in
    let picked = Hashtbl.create 8 in
    for _ = 1 to k do
      Hashtbl.replace picked (Random.State.int st n) ()
    done;
    let terms = Hashtbl.fold (fun j () acc -> (vars.(j), 1.) :: acc) picked [] in
    Lp.Problem.add_row p Lp.Problem.Le
      (float_of_int (1 + Random.State.int st 2))
      terms
  done;
  p

let solve_random_instance seed =
  let p = solver_random_instance seed in
  let r, lu =
    lu_measured (fun () -> Lp.Mip.solve ~time_limit:60. ~node_limit:100_000 p)
  in
  let s = r.Lp.Mip.stats in
  {
    sb_name = Printf.sprintf "rand-%d" seed;
    sb_status = solver_status_string r.Lp.Mip.status;
    sb_obj = r.Lp.Mip.objective;
    sb_bound = s.Lp.Mip.best_bound;
    sb_root = s.Lp.Mip.root_time;
    sb_total = s.Lp.Mip.total_time;
    sb_nodes = s.Lp.Mip.nodes;
    sb_iters = s.Lp.Mip.simplex_iterations;
    sb_heur = s.Lp.Mip.heuristic_incumbents;
    sb_lu = lu;
  }

let pp_solver_row r =
  Fmt.pr "%-8s | %-8s | %10.4f %10.4f | %7.2f %7.2f | %6d %7d | %4d@."
    r.sb_name r.sb_status r.sb_obj r.sb_bound r.sb_root r.sb_total r.sb_nodes
    r.sb_iters r.sb_heur

let solver_header () =
  Fmt.pr "%-8s | %-8s | %10s %10s | %7s %7s | %6s %7s | %4s@." "" "status"
    "objective" "bound" "root(s)" "tot(s)" "nodes" "iters" "heur"

(* CI gate: small models under a hard wall-clock ceiling, so a basis or
   pricing regression fails the build rather than just getting slower.
   The LU work of AES and NAT is printed, and AES may move at most four
   times as many active-submatrix entries as its factorizations hold
   (L + U entries plus m per factorization), a deterministic bound: AES
   moves 0.14 M entries under a limit of 1.06 M, and a factorization
   that shifts the whole column tail to close each gap moves 6.5 M.
   At the default gap AES and NAT must prove optimal within a node cap
   (AES 128 nodes in about 0.15 s, NAT 36 in about 0.35 s on a 2-vCPU
   host), so a search that stops branching on the transfer-register
   colors first (327 and 381 nodes) fails the gate.  AES under a 2 s
   limit must stop with status [limit] within a second of the limit, so
   a budget the search ignores fails the gate.  It is solved at a zero
   gap, whose proof takes longer than 20 s. *)
let solver_smoke () =
  rule
    "Solver smoke: Kasumi, AES, NAT + random instances + AES budget under \
     a hard ceiling";
  let ceiling = 60. in
  let t0 = Unix.gettimeofday () in
  solver_header ();
  let searched =
    List.map
      (fun (w, cap) -> (solve_workload_model ~time_limit:20. w, cap))
      [ (aes, 150); (nat, 40) ]
  in
  let rows =
    (solve_workload_model ~time_limit:50. kasumi :: List.map fst searched)
    @ List.map solve_random_instance [ 1; 2 ]
  in
  List.iter pp_solver_row rows;
  let failures = ref [] in
  List.iter
    (fun ((r : solver_row), _) ->
      let lu = r.sb_lu in
      let limit =
        4 * (lu.lu_entries + (lu.lu_rows * lu.lu_factorizations))
      in
      Fmt.pr
        "%s LU: %d refactorizations, %d entries moved, %d L+U entries, m = \
         %d@."
        r.sb_name lu.lu_refactorizations lu.lu_moves lu.lu_entries lu.lu_rows;
      if r.sb_name = aes.name && lu.lu_moves > limit then
        failures :=
          Printf.sprintf
            "%s moved %d active-submatrix entries (limit 4 x (L+U + m per \
             factorization) = %d)"
            r.sb_name lu.lu_moves limit
          :: !failures)
    searched;
  List.iter
    (fun (r, cap) ->
      if r.sb_nodes > cap then
        failures :=
          Printf.sprintf "%s at the default gap: %d nodes (cap %d)" r.sb_name
            r.sb_nodes cap
          :: !failures)
    searched;
  let budget = 2. in
  let limited = solve_workload_model ~time_limit:budget ~rel_gap:0. aes in
  pp_solver_row { limited with sb_name = "AES-2s" };
  if limited.sb_status <> "limit" || limited.sb_total > budget +. 1. then
    failures :=
      Printf.sprintf
        "AES under a %.0f s limit: status %s after %.2f s (want limit within \
         %.0f s)"
        budget limited.sb_status limited.sb_total (budget +. 1.)
      :: !failures;
  let wall = Unix.gettimeofday () -. t0 in
  let all_optimal = List.for_all (fun r -> r.sb_status = "optimal") rows in
  Fmt.pr "smoke wall time: %.2fs (ceiling %.0fs), all optimal: %b@." wall
    ceiling all_optimal;
  List.iter (fun f -> Fmt.epr "solver-smoke: %s@." f) (List.rev !failures);
  if wall > ceiling || (not all_optimal) || !failures <> [] then begin
    Fmt.epr "solver-smoke FAILED@.";
    exit 1
  end

(* ---------------- incremental compilation bench + service smoke ------- *)

(* The deterministic solver budget of the incremental bench and the
   service smoke: AES and NAT branch under it, and both prove optimal
   within it, AES at its last node. *)
let node_budget = 128

(* Cold / no-op / one-line-edit rebuild times through the stage-cached
   driver ([Regalloc.Driver.compile_incremental]), per workload, under
   [node_budget].  The one-line edit appends a `//` comment: the front
   end re-runs (the source hash changed) but the flowgraph is unchanged,
   so the model stage must replay from its memo and the solve stage from
   the artifact store instead of invoking the solver.  Prints the table
   and fails (exit 1) if
     - the no-op rebuild is not a pure cache hit (full-compile memo,
       i.e. no solver invocation at all), or
     - the edit rebuild misses the model memo or the solve cache, or
       changes the proven move cost / outcome versus the cold compile,
       or
     - the NAT edit rebuild is not >= 5x faster than its cold compile.
   A last row makes a model-changing AES edit (one checksum line
   deleted) in the same store, so the previous solve warm-starts it, and
   compiles the edited source cold in a store of its own; it fails
   unless the warm leg's warm start fired and its move cost is no higher
   than the cold leg's. *)

type inc_row = {
  inc_name : string;
  inc_cold : float;
  inc_noop : float;
  inc_edit : float;
  inc_model_hit : bool; (* the edit leg replayed the model memo *)
  inc_outcome : string;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let incremental_options =
  {
    Regalloc.Driver.default_options with
    time_limit = 1e9;
    node_limit = node_budget;
  }

let measure_incremental ~store ~fail:(report : string -> unit) (w : workload)
    =
  let fail fmt = Printf.ksprintf report fmt in
  let file = String.lowercase_ascii w.name ^ ".nova" in
  let run source =
    let t0 = Unix.gettimeofday () in
    let r =
      Regalloc.Driver.compile_incremental ~options:incremental_options ~store
        ~file source
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let cold_t, (c0, r0) = run w.source in
  if r0.Regalloc.Driver.full_hit || r0.Regalloc.Driver.solve_hit then
    fail "%s: cold leg hit the cache (stale store?)" w.name;
  let noop_t, (_, r1) = run w.source in
  if not r1.Regalloc.Driver.full_hit then
    fail "%s: no-op rebuild was not a pure cache hit" w.name;
  let edited = w.source ^ "\n// incremental bench probe\n" in
  let edit_t, (c2, r2) = run edited in
  if r2.Regalloc.Driver.full_hit then
    fail "%s: edited source reported a full-compile cache hit" w.name;
  if not r2.Regalloc.Driver.model_hit then
    fail "%s: edit rebuild missed the model memo (graph drift?)" w.name;
  if not r2.Regalloc.Driver.solve_hit then
    fail "%s: edit rebuild missed the solve cache (fingerprint drift?)" w.name;
  let cost c = c.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost in
  let outcome c =
    Regalloc.Driver.solver_outcome_to_string
      c.Regalloc.Driver.stats.Regalloc.Driver.solver_outcome
  in
  if Float.abs (cost c0 -. cost c2) > 1e-6 then
    fail "%s: edit rebuild cost %.6f != cold %.6f" w.name (cost c2) (cost c0);
  if outcome c0 <> outcome c2 then
    fail "%s: edit rebuild outcome %s != cold %s" w.name (outcome c2)
      (outcome c0);
  {
    inc_name = w.name;
    inc_cold = cold_t;
    inc_noop = noop_t;
    inc_edit = edit_t;
    inc_model_hit = r2.Regalloc.Driver.model_hit;
    inc_outcome = outcome c0;
  }

let aes_c3_line = "csum := csum + (c3 >> 16) + (c3 & 0xFFFF);"

let measure_model_edit ~store ~fail:(report : string -> unit) =
  let fail fmt = Printf.ksprintf report fmt in
  let edited =
    String.split_on_char '\n' aes.source
    |> List.filter (fun l -> String.trim l <> aes_c3_line)
    |> String.concat "\n"
  in
  let run store =
    Regalloc.Driver.clear_memos ();
    let t0 = Unix.gettimeofday () in
    let c, r =
      Regalloc.Driver.compile_incremental ~options:incremental_options ~store
        ~file:"aes.nova" edited
    in
    let s = c.Regalloc.Driver.stats in
    let nodes = Option.fold ~none:0 ~some:(fun m -> m.Lp.Mip.nodes) s.mip in
    (Unix.gettimeofday () -. t0, nodes, s.weighted_move_cost, r)
  in
  let warm_t, warm_nodes, warm_cost, warm_r = run store in
  let cold_dir = artifact "cache-bench-cold" in
  rm_rf cold_dir;
  let cold_t, cold_nodes, cold_cost, _ =
    run (Cache.Store.create ~dir:cold_dir ())
  in
  Fmt.pr "@.AES model edit (the c3 checksum line deleted):@.";
  Fmt.pr "%-5s | %5s | %8s | %-10s | %s@." "" "nodes" "time(s)" "warm_start"
    "move cost";
  Fmt.pr "%-5s | %5d | %8.3f | %-10s | %.7f@." "cold" cold_nodes cold_t "no"
    cold_cost;
  Fmt.pr "%-5s | %5d | %8.3f | %-10s | %.7f@." "warm" warm_nodes warm_t
    (if warm_r.Regalloc.Driver.warm_used then "yes" else "no")
    warm_cost;
  if not warm_r.Regalloc.Driver.warm_used then
    fail "AES model edit: the warm leg did not use its warm start";
  if warm_cost > cold_cost then
    fail "AES model edit: warm move cost %.7f above cold %.7f" warm_cost
      cold_cost

let incremental () =
  rule
    (Printf.sprintf
       "Incremental: cold / no-op / one-line-edit rebuilds (node budget %d)"
       node_budget);
  let dir = artifact "cache-bench" in
  rm_rf dir;
  Regalloc.Driver.clear_memos ();
  let store = Cache.Store.create ~dir () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let rows =
    List.map
      (measure_incremental ~store ~fail:(fun s -> failures := s :: !failures))
      [ kasumi; aes; nat; lpm; firewall; csum; qos ]
  in
  Fmt.pr "%-8s | %8s | %8s | %8s | %8s | %-5s | %-9s@." "" "cold(s)"
    "noop(s)" "edit(s)" "speedup" "model" "outcome";
  List.iter
    (fun r ->
      Fmt.pr "%-8s | %8.3f | %8.3f | %8.3f | %7.1fx | %-5s | %-9s@."
        r.inc_name r.inc_cold r.inc_noop r.inc_edit
        (r.inc_cold /. Float.max 1e-9 r.inc_edit)
        (if r.inc_model_hit then "hit" else "miss")
        r.inc_outcome)
    rows;
  (match List.find_opt (fun r -> r.inc_name = "NAT") rows with
  | Some r when r.inc_cold /. Float.max 1e-9 r.inc_edit < 5. ->
      fail "NAT edit rebuild only %.1fx faster than cold (need >= 5x)"
        (r.inc_cold /. Float.max 1e-9 r.inc_edit)
  | _ -> ());
  measure_model_edit ~store ~fail:(fun s -> failures := s :: !failures);
  match !failures with
  | [] -> Fmt.pr "incremental PASSED@."
  | fs ->
      List.iter (fun f -> Fmt.epr "incremental: %s@." f) (List.rev fs);
      Fmt.epr "incremental FAILED (%d)@." (List.length fs);
      exit 1

(* CI gate for `novac serve`: spawn the daemon in a domain, compile the
   Kasumi workload twice over the socket, and assert the second response
   is served entirely from the cache (full-compile memo hit -- the
   solver never runs).  Then compile QoS over the socket: its code, move
   cost and node count must equal a plain [Regalloc.Driver.compile] of
   the same source and options, run here before the daemon starts, so
   the daemon answers what `novac compile` does whatever it compiled
   before.  Hard 60 s wall-clock ceiling like the other smoke jobs. *)
let service_smoke () =
  rule
    "Service smoke: daemon cold compile, then pure cache hit, then the \
     answer novac compile gives";
  let ceiling = 60. in
  let t0 = Unix.gettimeofday () in
  let socket_path = artifact "novac-smoke.sock" in
  let dir = artifact "cache-smoke" in
  rm_rf dir;
  Regalloc.Driver.clear_memos ();
  let qos_file = "qos.nova" in
  let qos_expected =
    Regalloc.Driver.compile ~options:incremental_options ~file:qos_file
      qos.source
  in
  let config =
    {
      Service.Daemon.socket_path;
      cache_dir = Some dir;
      base_options = incremental_options;
      verbose = false;
    }
  in
  let daemon = Domain.spawn (fun () -> Service.Daemon.run config) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let t = Service.Client.connect_retry ~socket_path () in
  (match Service.Client.ping t with
  | Ok _ -> ()
  | Error e -> fail "ping: %s" e);
  let flag resp path name =
    Option.value ~default:false
      (Option.bind
         (Option.bind (Support.Json.member path resp)
            (Support.Json.member name))
         Support.Json.to_bool)
  in
  let compile_once label =
    let c0 = Unix.gettimeofday () in
    match
      Service.Client.compile ~node_limit:node_budget
        ~file:"kasumi.nova" ~source:kasumi.source t
    with
    | Error e ->
        fail "%s compile: %s" label e;
        None
    | Ok resp ->
        let elapsed = Unix.gettimeofday () -. c0 in
        let ok =
          Option.value ~default:false
            (Option.bind (Support.Json.member "ok" resp) Support.Json.to_bool)
        in
        if not ok then fail "%s compile: response not ok" label;
        Fmt.pr "%s: %.3fs (front=%b model=%b solve=%b full=%b)@." label
          elapsed (flag resp "cache" "front") (flag resp "cache" "model")
          (flag resp "cache" "solve") (flag resp "cache" "full");
        Some resp
  in
  let cold = compile_once "cold" in
  let warm = compile_once "warm" in
  (match cold with
  | Some resp when flag resp "cache" "full" ->
      fail "cold compile reported a full cache hit (stale daemon state?)"
  | _ -> ());
  (match warm with
  | Some resp when not (flag resp "cache" "full") ->
      fail "second compile was not a pure cache hit (front=%b model=%b \
            solve=%b)"
        (flag resp "cache" "front") (flag resp "cache" "model")
        (flag resp "cache" "solve")
  | _ -> ());
  (match
     Service.Client.compile ~node_limit:node_budget ~file:qos_file
       ~source:qos.source t
   with
  | Error e -> fail "QoS compile: %s" e
  | Ok resp ->
      let num path =
        List.fold_left
          (fun doc name -> Option.bind doc (Support.Json.member name))
          (Some resp) path
        |> Fun.flip Option.bind Support.Json.to_float
      in
      let show = Option.fold ~none:"none" ~some:(Printf.sprintf "%.17g") in
      let stats = qos_expected.Regalloc.Driver.stats in
      let asm =
        Ixp.Asm.program_to_string qos_expected.Regalloc.Driver.physical
      in
      let cost = Some stats.Regalloc.Driver.weighted_move_cost in
      let nodes =
        Option.map
          (fun m -> float_of_int m.Lp.Mip.nodes)
          stats.Regalloc.Driver.mip
      in
      let same_asm =
        Option.bind (Support.Json.member "asm" resp) Support.Json.to_string
        = Some asm
      in
      if not same_asm then
        fail "QoS: the daemon's code differs from novac compile's";
      if num [ "weighted_move_cost" ] <> cost then
        fail "QoS: daemon move cost %s, novac compile %s"
          (show (num [ "weighted_move_cost" ]))
          (show cost);
      if num [ "solver"; "nodes" ] <> nodes then
        fail "QoS: daemon searched %s nodes, novac compile %s"
          (show (num [ "solver"; "nodes" ]))
          (show nodes);
      Fmt.pr "QoS through the daemon: %.3f move cost, %s nodes, same code \
              as novac compile: %b@."
        stats.Regalloc.Driver.weighted_move_cost (show nodes) same_asm);
  (match Service.Client.shutdown t with
  | Ok _ -> ()
  | Error e -> fail "shutdown: %s" e);
  Service.Client.close t;
  Domain.join daemon;
  let wall = Unix.gettimeofday () -. t0 in
  Fmt.pr "smoke wall time: %.2fs (ceiling %.0fs)@." wall ceiling;
  if wall > ceiling then fail "wall time %.1fs over the %.0fs ceiling" wall
    ceiling;
  match !failures with
  | [] -> Fmt.pr "service-smoke PASSED@."
  | fs ->
      List.iter (fun f -> Fmt.epr "service-smoke: %s@." f) (List.rev fs);
      Fmt.epr "service-smoke FAILED (%d)@." (List.length fs);
      exit 1

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
    ("rates", "chip and cluster forwarding rates, ILP and baseline",
      rates ~full:true);
    ("rates-smoke", "a smaller rates table (CI gate)", rates ~full:false);
    ("solver-smoke", "solver under a hard ceiling (CI gate)", solver_smoke);
    ("incremental", "cold, no-op and edit rebuilds (CI gate)", incremental);
    ( "service-smoke",
      "daemon compile, a cache hit, then novac's answer (CI gate)",
      service_smoke);
    ("cluster-smoke", "cluster determinism and ceiling (CI gate)",
      cluster_smoke);
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
