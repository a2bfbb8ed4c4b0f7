(* novarun: compile a Nova program and execute it on the simulated
   IXP1200.

   Two modes:

   - single-run (default): one micro-engine, one thread, one invocation
     of main(); prints the result words from the scratch result area and
     the cycle count.

       novarun FILE [--args 1,2] [--sram ADDR=V,...] [--sdram ADDR=V,...]
               [--trace]

   - chip mode (--engines N): the full chip model -- N engines x
     --threads hardware contexts behind the shared memory bus, driven by
     the synthetic packet generator at a target offered load; prints the
     line-rate throughput report (achieved Mpps / Mbit/s, drops,
     per-engine utilization, latency percentiles).

       novarun FILE --engines 6 --threads 4 --profile fixed:64 \
               --offered-load 1.5 --packets 1000 --seed 7 *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* "addr=value" pairs, both accepting 0x prefixes *)
let poke_conv =
  let parse s =
    match String.split_on_char '=' s with
    | [ a; v ] -> (
        try Ok (int_of_string a, int_of_string v)
        with _ -> Error (`Msg ("bad poke: " ^ s)))
    | _ -> Error (`Msg ("bad poke: " ^ s))
  in
  let print ppf (a, v) = Format.fprintf ppf "%d=%d" a v in
  Arg.conv (parse, print)

let profile_conv =
  let parse s =
    match Ixp.Pktgen.profile_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p = Format.pp_print_string ppf (Ixp.Pktgen.profile_to_string p) in
  Arg.conv (parse, print)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Nova source file")
  in
  let entry_args =
    Arg.(value & opt (list ~sep:',' int) [] & info [ "args" ] ~doc:"main() arguments")
  in
  let sram =
    Arg.(value & opt (list ~sep:',' poke_conv) [] & info [ "sram" ] ~doc:"SRAM byte-addr=value pokes")
  in
  let sdram =
    Arg.(value & opt (list ~sep:',' poke_conv) [] & info [ "sdram" ] ~doc:"SDRAM byte-addr=value pokes")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Trace every instruction") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record timed spans for every compile stage and (in chip mode) \
             per-engine context-occupancy spans, and write Chrome \
             trace-event JSON to $(docv)")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Dump the process-wide metrics registry (solver counters, bus \
             stall totals) to stderr at exit")
  in
  let allocator =
    Arg.(
      value
      & opt (enum [ ("ilp", `Ilp); ("baseline", `Baseline) ]) `Ilp
      & info [ "allocator"; "a" ] ~doc:"Register allocator")
  in
  let engines =
    Arg.(
      value & opt int 0
      & info [ "engines" ]
          ~doc:
            "Run on the chip model with this many micro-engines (0 = \
             single-run mode)")
  in
  let threads =
    Arg.(
      value & opt int 4
      & info [ "threads" ] ~doc:"Hardware contexts per engine (chip mode)")
  in
  let cluster =
    Arg.(
      value & opt int 0
      & info [ "cluster" ]
          ~doc:
            "Run a multi-chip cluster with this many chips behind the load \
             balancer (0 = single chip); implies chip mode")
  in
  let balancer_conv =
    let parse s =
      match Cluster.balancer_of_string s with
      | Ok b -> Ok b
      | Error msg -> Error (`Msg msg)
    in
    let print ppf b =
      Format.pp_print_string ppf (Cluster.balancer_to_string b)
    in
    Arg.conv (parse, print)
  in
  let balancer =
    Arg.(
      value
      & opt balancer_conv Cluster.Flow_hash
      & info [ "balancer" ]
          ~doc:"Cluster load balancer: hash (5-tuple flow affinity) or rr")
  in
  let drop_budget =
    Arg.(
      value & opt int 0
      & info [ "drop-budget" ]
          ~doc:
            "Balancer drops tolerated per chip before it is marked unhealthy \
             and steered around (0 = no budget)")
  in
  let profile =
    Arg.(
      value
      & opt profile_conv (Ixp.Pktgen.Fixed 64)
      & info [ "profile" ]
          ~doc:
            "Traffic profile: fixed:BYTES, imix, burst:BYTES:LEN, \
             flows:USERS:ALPHA_PCT:BYTES (Zipf users), elephants, flood \
             (SYN flood), flash:RAMP (flash crowd), or imix-path \
             (pathological IMIX)")
  in
  let offered_load =
    Arg.(
      value & opt float 1.0
      & info [ "offered-load" ]
          ~doc:"Offered load in Mpps; 0 or negative = saturation")
  in
  let packets =
    Arg.(
      value & opt int 256
      & info [ "packets" ] ~doc:"Packets to generate (chip mode)")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Packet-generator seed")
  in
  let ports =
    Arg.(value & opt int 1 & info [ "ports" ] ~doc:"Input ports (chip mode)")
  in
  let rx_capacity =
    Arg.(
      value & opt int 32
      & info [ "rx-capacity" ] ~doc:"Receive-ring capacity per port (packets)")
  in
  let no_contention =
    Arg.(
      value & flag
      & info [ "no-contention" ]
          ~doc:"Disable the shared memory-bus arbiter (unloaded latencies)")
  in
  let time_limit =
    Arg.(
      value & opt float 300.
      & info
          [ "time-limit"; "solver-time-limit" ]
          ~doc:"Branch&bound wall-clock budget in seconds")
  in
  let node_limit =
    Arg.(
      value & opt int 500_000
      & info [ "solver-node-limit" ] ~doc:"Branch&bound node budget")
  in
  let rel_gap =
    Arg.(
      value & opt float 1e-4
      & info [ "solver-rel-gap" ]
          ~doc:
            "Branch&bound relative optimality gap: stop once the incumbent \
             is proven within this fraction of the optimum")
  in
  let solver_domains =
    Arg.(
      value & opt int 1
      & info [ "solver-domains" ]
          ~doc:
            "Worker domains for branch&bound; the calling domain is worker \
             0, and with 1 each round is a single dive")
  in
  let run file entry_args sram sdram trace trace_out metrics allocator engines
      threads cluster balancer drop_budget profile offered_load packets seed
      ports rx_capacity no_contention time_limit node_limit rel_gap
      solver_domains =
    try
      if trace_out <> None then Support.Trace.enable ();
      let finally () =
        (match trace_out with
        | Some path ->
            Support.Trace.disable ();
            Support.Trace.write path;
            Fmt.epr "wrote trace (%d events) to %s@."
              (Support.Trace.num_events ()) path
        | None -> ());
        if metrics then Fmt.epr "%s@." (Support.Metrics.dump ())
      in
      Fun.protect ~finally @@ fun () ->
      let source = read_file file in
      let options =
        {
          Regalloc.Driver.default_options with
          entry_args;
          time_limit;
          node_limit;
          rel_gap;
          solver_domains;
          allocator =
            (match allocator with
            | `Ilp -> Regalloc.Driver.Ilp_allocator
            | `Baseline -> Regalloc.Driver.Baseline_allocator);
        }
      in
      let compiled = Regalloc.Driver.compile ~options ~file source in
      (match compiled.Regalloc.Driver.stats.Regalloc.Driver.solver_outcome with
      | Regalloc.Driver.Outcome_incumbent | Regalloc.Driver.Outcome_fallback ->
          Fmt.epr "solver budget hit: emitted %s@."
            (Regalloc.Driver.solver_outcome_to_string
               compiled.Regalloc.Driver.stats.Regalloc.Driver.solver_outcome)
      | _ -> ());
      (match compiled.Regalloc.Driver.stats.Regalloc.Driver.mip with
      | Some m ->
          Fmt.epr
            "solver: root %.2fs, total %.2fs, %d nodes, %d pivots, \
             warm_start=%s incumbent_source=%s@."
            m.Lp.Mip.root_time m.Lp.Mip.total_time m.Lp.Mip.nodes
            m.Lp.Mip.simplex_iterations
            (if m.Lp.Mip.warm_start_used then "yes" else "no")
            m.Lp.Mip.incumbent_source
      | None -> ());
      if cluster > 0 then begin
        (* cluster mode: N chips behind the load balancer *)
        let chip_config =
          {
            Ixp.Chip.default_config with
            Ixp.Chip.engines = (if engines > 0 then engines else 6);
            threads;
            contention = not no_contention;
            rx_capacity;
            trace;
          }
        in
        let config =
          {
            Cluster.default_config with
            Cluster.chips = cluster;
            balancer;
            chip_config;
            drop_budget;
          }
        in
        let cl = Cluster.create ~config compiled.Regalloc.Driver.physical in
        Cluster.iter_chips
          (fun chip ->
            let mem = Ixp.Chip.shared_memory chip in
            List.iter
              (fun (a, v) -> Ixp.Memory.write mem Ixp.Insn.Sram a [| v |])
              sram)
          cl;
        let gen =
          Ixp.Pktgen.create
            {
              Ixp.Pktgen.default_config with
              Ixp.Pktgen.profile;
              offered_mpps = offered_load;
              seed;
              count = packets;
              ports;
            }
        in
        let report = Cluster.run cl gen in
        Fmt.pr
          "cluster: %d chips x %d engines x %d threads, balancer %s, profile \
           %s, offered %.3f Mpps, seed %d@."
          cluster chip_config.Ixp.Chip.engines threads
          (Cluster.balancer_to_string balancer)
          (Ixp.Pktgen.profile_to_string profile)
          offered_load seed;
        Fmt.pr "%a" Cluster.pp_report report
      end
      else if engines > 0 then begin
        (* chip mode: line-rate run against the packet generator *)
        let config =
          {
            Ixp.Chip.default_config with
            Ixp.Chip.engines;
            threads;
            contention = not no_contention;
            rx_capacity;
            trace;
          }
        in
        let chip = Ixp.Chip.create ~config compiled.Regalloc.Driver.physical in
        let mem = Ixp.Chip.shared_memory chip in
        List.iter (fun (a, v) -> Ixp.Memory.write mem Ixp.Insn.Sram a [| v |]) sram;
        for e = 0 to engines - 1 do
          for t = 0 to threads - 1 do
            let sd = Ixp.Simulator.sdram_of_thread (Ixp.Chip.engine chip e) ~thread:t in
            List.iter
              (fun (a, v) -> Ixp.Memory.write sd Ixp.Insn.Sdram a [| v; 0 |])
              sdram
          done
        done;
        let gen =
          Ixp.Pktgen.create
            {
              Ixp.Pktgen.default_config with
              Ixp.Pktgen.profile;
              offered_mpps = offered_load;
              seed;
              count = packets;
              ports;
            }
        in
        let report = Ixp.Chip.run chip gen in
        Fmt.pr "chip: %d engines x %d threads, profile %s, offered %.3f Mpps, seed %d@."
          engines threads
          (Ixp.Pktgen.profile_to_string profile)
          offered_load seed;
        Fmt.pr "%a" Ixp.Chip.pp_report report
      end
      else begin
        let sim =
          Ixp.Simulator.create ~trace compiled.Regalloc.Driver.physical
        in
        let mem = Ixp.Simulator.shared_memory sim in
        List.iter (fun (a, v) -> Ixp.Memory.write mem Ixp.Insn.Sram a [| v |]) sram;
        let sd = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
        List.iter (fun (a, v) -> Ixp.Memory.write sd Ixp.Insn.Sdram a [| v; 0 |]) sdram;
        let cycles = Ixp.Simulator.run_single sim in
        let base = Cps.Isel.result_addr_bytes Ixp.Memory.default_config / 4 in
        Fmt.pr "cycles: %d (%.2f us at 233 MHz)@." cycles
          (float_of_int cycles /. 233.);
        Fmt.pr "results:";
        for i = 0 to 3 do
          Fmt.pr " 0x%08X" (Ixp.Memory.peek mem Ixp.Insn.Scratch (base + i))
        done;
        Fmt.pr "@."
      end
    with
    | Support.Diag.Compile_error d ->
        Fmt.epr "%a@." Support.Diag.pp d;
        exit 1
    | Regalloc.Driver.Allocation_failed msg ->
        Fmt.epr "allocation failed: %s@." msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "novarun" ~doc:"Compile and simulate a Nova program")
    Term.(
      const run $ file $ entry_args $ sram $ sdram $ trace $ trace_out
      $ metrics $ allocator $ engines $ threads $ cluster $ balancer
      $ drop_budget $ profile $ offered_load $ packets $ seed $ ports
      $ rx_capacity $ no_contention $ time_limit $ node_limit $ rel_gap
      $ solver_domains)

let () = exit (Cmd.eval run_cmd)
