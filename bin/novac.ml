(* novac: the Nova compiler command-line driver.

     novac compile FILE [--allocator ilp|baseline] [--dump PHASE] [--lint] ...
     novac lint (FILE | --workload aes|kasumi|nat|lpm|firewall|csum|qos) [--allow REGION] ...
     novac stats FILE
     novac model FILE [-o out.lp]

   See README.md for the language reference. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let entry_args_conv =
  Arg.list ~sep:',' Arg.int

let handle_errors f =
  try f () with
  | Support.Diag.Compile_error d ->
      Fmt.epr "%a@." Support.Diag.pp d;
      exit 1
  | Regalloc.Driver.Allocation_failed msg ->
      Fmt.epr "allocation failed: %s@." msg;
      exit 2

(* ---------------- compile ---------------- *)

let compile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Nova source file")
  in
  let allocator =
    Arg.(
      value
      & opt (enum [ ("ilp", `Ilp); ("baseline", `Baseline) ]) `Ilp
      & info [ "allocator"; "a" ] ~doc:"Register allocator: ilp or baseline")
  in
  let dump =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("cps", `Cps); ("virtual", `Virtual); ("asm", `Asm); ("stats", `Stats) ]))
          (Some `Asm)
      & info [ "dump"; "d" ] ~doc:"What to print: cps, virtual, asm or stats")
  in
  let entry_args =
    Arg.(
      value & opt entry_args_conv []
      & info [ "args" ] ~doc:"Comma-separated integer arguments for main")
  in
  let time_limit =
    Arg.(
      value
      & opt float 300.
      & info
          [ "time-limit"; "solver-time-limit" ]
          ~doc:"Branch&bound wall-clock budget in seconds")
  in
  let node_limit =
    Arg.(
      value
      & opt int 500_000
      & info [ "solver-node-limit" ]
          ~doc:
            "Branch&bound node budget (deterministic); when hit, the best \
             incumbent is emitted, or the baseline allocation if no \
             incumbent was found")
  in
  let rel_gap =
    Arg.(
      value
      & opt float 1e-4
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
  let no_validate =
    Arg.(
      value & flag
      & info [ "no-validate" ]
          ~doc:"Skip the post-allocation assignment and machine-legality checks")
  in
  let verify_each =
    Arg.(
      value & flag
      & info [ "verify-each" ]
          ~doc:
            "Re-verify IR invariants (scoping, SSA, SSU, aggregate widths) and \
             diff interpreter semantics after every middle-end pass (default)")
  in
  let no_verify_each =
    Arg.(
      value & flag
      & info [ "no-verify-each" ] ~doc:"Disable the per-pass IR verification")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a timed span for every pipeline stage (front end, each \
             CPS pass, model generation, presolve, root LP, branch&bound, \
             emit) and write Chrome trace-event JSON to $(docv); open it in \
             Perfetto or chrome://tracing")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Dump the process-wide metrics registry (solver node counts, LU \
             refactorizations, model sizes) to stderr after \
             compilation")
  in
  let lint_flag =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "After compiling, run the static-analysis lint (cross-context \
             races, machine-level validation, dead stores) and fail on \
             errors; same as `novac lint` but without workload whitelists")
  in
  let run file allocator dump entry_args time_limit node_limit rel_gap
      solver_domains no_validate verify_each no_verify_each trace_out metrics
      lint_flag =
    handle_errors (fun () ->
        let source = read_file file in
        if trace_out <> None then Support.Trace.enable ();
        (* the trace is written even when compilation dies: the partial
           timeline is what identifies the stage that failed *)
        let finally () =
          (match trace_out with
          | Some path ->
              Support.Trace.disable ();
              Support.Trace.write path;
              Fmt.epr "; wrote trace (%d events) to %s@."
                (Support.Trace.num_events ()) path
          | None -> ());
          if metrics then Fmt.epr "%s@." (Support.Metrics.dump ())
        in
        Fun.protect ~finally @@ fun () ->
        let options =
          {
            Regalloc.Driver.default_options with
            allocator =
              (match allocator with
              | `Ilp -> Regalloc.Driver.Ilp_allocator
              | `Baseline -> Regalloc.Driver.Baseline_allocator);
            entry_args;
            time_limit;
            node_limit;
            rel_gap;
            solver_domains;
            validate = not no_validate;
            verify_each = verify_each || not no_verify_each;
          }
        in
        let compiled = Regalloc.Driver.compile ~options ~file source in
        let stats = compiled.Regalloc.Driver.stats in
        (match dump with
        | Some `Cps ->
            print_endline (Cps.Ir.to_string compiled.Regalloc.Driver.cps_term)
        | Some `Virtual ->
            print_endline
              (Ixp.Flowgraph.to_string Support.Ident.pp
                 compiled.Regalloc.Driver.virtual_graph)
        | Some `Asm ->
            print_endline
              (Ixp.Asm.program_to_string compiled.Regalloc.Driver.physical)
        | Some `Stats | None -> ());
        Fmt.epr "; %d virtual insns; %d moves, %d imms, %d spills@."
          stats.Regalloc.Driver.virtual_insns
          stats.Regalloc.Driver.moves_inserted
          stats.Regalloc.Driver.imms_inserted
          stats.Regalloc.Driver.spills_inserted;
        (match stats.Regalloc.Driver.mip with
        | Some m ->
            Fmt.epr
              "; ILP %dx%d -> %dx%d, root %.2fs, total %.2fs, %d nodes, %d \
               pivots, %d heuristic incumbents, warm_start=%s \
               incumbent_source=%s@."
              m.Lp.Mip.vars_before m.Lp.Mip.rows_before m.Lp.Mip.vars_after
              m.Lp.Mip.rows_after m.Lp.Mip.root_time m.Lp.Mip.total_time
              m.Lp.Mip.nodes m.Lp.Mip.simplex_iterations
              m.Lp.Mip.heuristic_incumbents
              (if m.Lp.Mip.warm_start_used then "yes" else "no")
              m.Lp.Mip.incumbent_source
        | None -> ());
        (match stats.Regalloc.Driver.solver_outcome with
        | Regalloc.Driver.Outcome_incumbent | Regalloc.Driver.Outcome_fallback
          ->
            Fmt.epr "; solver budget hit (%.0fs / %d nodes): emitted %s@."
              time_limit node_limit
              (Regalloc.Driver.solver_outcome_to_string
                 stats.Regalloc.Driver.solver_outcome)
        | Regalloc.Driver.Outcome_optimal | Regalloc.Driver.Outcome_heuristic
          ->
            ());
        if lint_flag then begin
          let report = Regalloc.Driver.lint compiled in
          Fmt.epr "%a" Analysis.Lint.pp_report report;
          if Analysis.Lint.errors report <> [] then exit 1
        end)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a Nova program to IXP assembly")
    Term.(
      const run $ file $ allocator $ dump $ entry_args $ time_limit
      $ node_limit $ rel_gap $ solver_domains $ no_validate $ verify_each
      $ no_verify_each $ trace_out $ metrics $ lint_flag)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt string Service.Daemon.default_socket
      & info [ "socket"; "s" ] ~docv:"PATH"
          ~doc:"Unix domain socket to listen on")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Artifact store directory (default: _artifacts/cache); holds \
             the persistent solve artifacts that survive daemon restarts")
  in
  let solver_domains =
    Arg.(
      value & opt int 1
      & info [ "solver-domains" ]
          ~doc:"Worker domains for parallel branch&bound, for every job")
  in
  let time_limit =
    Arg.(
      value & opt float 300.
      & info [ "time-limit" ] ~doc:"Default branch&bound budget per job")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Dump the metrics registry to stderr on shutdown")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-job log lines")
  in
  let run socket cache_dir solver_domains time_limit metrics quiet =
    handle_errors (fun () ->
        let config =
          {
            Service.Daemon.socket_path = socket;
            cache_dir;
            base_options =
              {
                Regalloc.Driver.default_options with
                solver_domains;
                time_limit;
              };
            verbose = not quiet;
          }
        in
        Fmt.epr "novac serve: listening on %s (ctrl-c or {\"op\":\"shutdown\"} to stop)@." socket;
        Service.Daemon.run config;
        if metrics then Fmt.epr "%s@." (Support.Metrics.dump ()))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the incremental compile service: a Unix-domain-socket daemon \
          accepting batched compile jobs (newline-delimited JSON), with an \
          in-memory hot cache over the stage-cached driver and persistent \
          solve artifacts for warm-started rebuilds")
    Term.(
      const run $ socket $ cache_dir $ solver_domains $ time_limit $ metrics
      $ quiet)

(* ---------------- lint ---------------- *)

(* REGION syntax: SPACE:ADDR:WORDS[:NAME], e.g. sram:0x4000:256:my-table.
   ADDR is a byte address; 0x-prefixed literals are accepted. *)
let region_conv =
  let parse s =
    let bad () =
      Error (`Msg (Printf.sprintf "bad region %S (want SPACE:ADDR:WORDS[:NAME], SPACE = sram|scratch)" s))
    in
    match String.split_on_char ':' s with
    | space :: addr :: words :: rest -> (
        let name = match rest with [] -> s | [ n ] -> n | _ -> "" in
        if name = "" then bad ()
        else
          match
            ( (match space with
              | "sram" -> Some Ixp.Insn.Sram
              | "scratch" -> Some Ixp.Insn.Scratch
              | _ -> None),
              int_of_string_opt addr,
              int_of_string_opt words )
          with
          | Some space, Some base, Some words when words > 0 ->
              Ok (name, space, base, words)
          | _ -> bad ())
    | _ -> bad ()
  in
  let print ppf (name, space, base, words) =
    Fmt.pf ppf "%s:0x%x:%d:%s" (Ixp.Insn.space_to_string space) base words name
  in
  Arg.conv (parse, print)

let lint_cmd =
  let file =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Nova source file (or use --workload)")
  in
  let workload =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("aes", `Aes); ("kasumi", `Kasumi); ("nat", `Nat);
                  ("lpm", `Lpm); ("firewall", `Firewall); ("csum", `Csum);
                  ("qos", `Qos);
                ]))
          None
      & info [ "workload"; "w" ]
          ~doc:
            "Lint a built-in paper workload with its table/result whitelist \
             instead of a FILE")
  in
  let allocator =
    Arg.(
      value
      & opt (enum [ ("ilp", `Ilp); ("baseline", `Baseline) ]) `Baseline
      & info [ "allocator"; "a" ]
          ~doc:
            "Register allocator to lint the output of (default: baseline, \
             which is fast; the CI lint job also covers ilp)")
  in
  let allow =
    Arg.(
      value & opt_all region_conv []
      & info [ "allow" ] ~docv:"REGION"
          ~doc:
            "Whitelist a shared-write region (racy writes accepted by \
             design): SPACE:ADDR:WORDS[:NAME]")
  in
  let allow_ro =
    Arg.(
      value & opt_all region_conv []
      & info [ "allow-ro" ] ~docv:"REGION"
          ~doc:
            "Declare a read-only region (initialized by the control \
             processor; engine writes into it are errors): \
             SPACE:ADDR:WORDS[:NAME]")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero on warnings too, not just errors")
  in
  let run file workload allocator allow allow_ro strict =
    handle_errors (fun () ->
        let name, source, wl_regions =
          match (workload, file) with
          | Some `Aes, None ->
              ("<aes>", Workloads.Aes.source, Workloads.Aes.lint_regions)
          | Some `Kasumi, None ->
              ("<kasumi>", Workloads.Kasumi.source, Workloads.Kasumi.lint_regions)
          | Some `Nat, None ->
              ("<nat>", Workloads.Nat.source, Workloads.Nat.lint_regions)
          | Some `Lpm, None ->
              ("<lpm>", Workloads.Lpm.source, Workloads.Lpm.lint_regions)
          | Some `Firewall, None ->
              ( "<firewall>",
                Workloads.Firewall.source,
                Workloads.Firewall.lint_regions )
          | Some `Csum, None ->
              ("<csum>", Workloads.Csum.source, Workloads.Csum.lint_regions)
          | Some `Qos, None ->
              ("<qos>", Workloads.Qos.source, Workloads.Qos.lint_regions)
          | None, Some f -> (f, read_file f, [])
          | Some _, Some _ ->
              Fmt.epr "lint: give either FILE or --workload, not both@.";
              exit 2
          | None, None ->
              Fmt.epr "lint: nothing to lint; give FILE or --workload@.";
              exit 2
        in
        let mk policy (rname, space, base, words) =
          Analysis.Race.region ~name:rname ~space ~base ~words policy
        in
        let regions =
          wl_regions
          @ List.map (mk Analysis.Race.Shared_write) allow
          @ List.map (mk Analysis.Race.Read_only) allow_ro
        in
        let options =
          {
            Regalloc.Driver.default_options with
            allocator =
              (match allocator with
              | `Ilp -> Regalloc.Driver.Ilp_allocator
              | `Baseline -> Regalloc.Driver.Baseline_allocator);
          }
        in
        let compiled = Regalloc.Driver.compile ~options ~file:name source in
        let report = Regalloc.Driver.lint ~regions compiled in
        Fmt.pr "%a" Analysis.Lint.pp_report report;
        let errors = Analysis.Lint.errors report in
        let warnings = Analysis.Lint.warnings report in
        if errors <> [] || (strict && warnings <> []) then exit 1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis of the compiled program: cross-context race \
          detection, independent machine-level validation, dead-store and \
          unreachable-code lint")
    Term.(
      const run $ file $ workload $ allocator $ allow $ allow_ro $ strict)

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Campaign seed; program i is generated from (seed, i)")
  in
  let count =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"K" ~doc:"Number of programs to generate")
  in
  let max_size =
    Arg.(value & opt int 20
         & info [ "max-size" ] ~docv:"S"
             ~doc:"Size budget per program (statements; expression fuel is 5S)")
  in
  let minimize =
    Arg.(value & flag
         & info [ "minimize" ]
             ~doc:"Shrink counterexamples before writing them (greedy \
                   first-fit over type-preserving AST rewrites)")
  in
  let node_limit =
    Arg.(value & opt int 400
         & info [ "node-limit" ] ~docv:"N"
             ~doc:"Branch-and-bound node budget for the ILP legs")
  in
  let no_ilp =
    Arg.(value & flag
         & info [ "no-ilp" ]
             ~doc:"Skip the ILP-vs-baseline and warm-vs-cold stages (cheap \
                   smoke mode)")
  in
  let out_dir =
    Arg.(value & opt string "fuzz-corpus"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for shrunk counterexample corpus files")
  in
  let replay =
    Arg.(value & opt_all file []
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay corpus file(s) through the full oracle instead of \
                   generating; exit 1 if any fails")
  in
  let run seed count max_size minimize node_limit no_ilp out_dir replay =
    handle_errors (fun () ->
        let ilp = not no_ilp in
        match replay with
        | _ :: _ ->
            let failed =
              List.filter
                (fun path ->
                  match Fuzz.Campaign.replay_file ~node_limit ~ilp path with
                  | Ok () ->
                      Fmt.pr "%s: ok@." path;
                      false
                  | Error f ->
                      Fmt.pr "%s: FAILED at stage %s: %s@." path
                        f.Fuzz.Oracle.stage f.Fuzz.Oracle.detail;
                      true)
                replay
            in
            if failed <> [] then exit 1
        | [] ->
            Fmt.pr
              "fuzzing: seed=%d count=%d max-size=%d %s node-limit=%d@."
              seed count max_size
              (if ilp then "(full oracle)" else "(front-end only)")
              node_limit;
            let summary =
              Fuzz.Campaign.run ~seed ~count ~max_size ~minimize ~node_limit
                ~ilp ~out_dir
                ~log:(fun m -> Fmt.pr "  %s@." m)
                ()
            in
            let nfail = List.length summary.Fuzz.Campaign.failures in
            Fmt.pr "ran %d programs: %d counterexample(s)@."
              summary.Fuzz.Campaign.ran nfail;
            List.iter
              (fun cx ->
                Fmt.pr "  index %d, stage %s: %s%a@."
                  cx.Fuzz.Campaign.cx_index
                  cx.Fuzz.Campaign.cx_failure.Fuzz.Oracle.stage
                  cx.Fuzz.Campaign.cx_failure.Fuzz.Oracle.detail
                  (fun ppf -> function
                    | Some p -> Fmt.pf ppf " (%s)" p
                    | None -> ())
                  cx.Fuzz.Campaign.cx_path)
              summary.Fuzz.Campaign.failures;
            if nfail > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded well-typed Nova programs and \
          check printer/parser agreement, interpreter-vs-simulator \
          execution, ILP-vs-baseline allocation and warm-vs-cold \
          compilation; shrunk counterexamples are written to a replayable \
          corpus")
    Term.(
      const run $ seed $ count $ max_size $ minimize $ node_limit $ no_ilp
      $ out_dir $ replay)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Nova source file")
  in
  let run file =
    handle_errors (fun () ->
        let source = read_file file in
        let prog = Nova.Parser.parse_string ~file source in
        let s = Nova.Stats.of_program ~source prog in
        Fmt.pr "%a@." Nova.Stats.pp s)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Static program statistics (paper Figure 5)")
    Term.(const run $ file)

(* ---------------- model ---------------- *)

let model_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Nova source file")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Write CPLEX LP format to this file")
  in
  let spill =
    Arg.(value & flag & info [ "spill" ] ~doc:"Include the scratch-memory spill machinery")
  in
  let run file out spill =
    handle_errors (fun () ->
        let source = read_file file in
        let front = Regalloc.Driver.front_end ~file source in
        let mg = Regalloc.Modelgen.build ~allow_spill:spill front.Regalloc.Driver.f_graph in
        let ilp = Regalloc.Ilp.build mg in
        let p = ilp.Regalloc.Ilp.instance.Ampl.Model.problem in
        let st = Lp.Problem.stats p in
        Fmt.pr "model: %d variables, %d constraints, %d nonzeros, %d objective terms@."
          st.Lp.Problem.n_vars st.Lp.Problem.n_rows st.Lp.Problem.n_nonzeros
          st.Lp.Problem.n_obj_terms;
        Fmt.pr "%a" Ampl.Model.pp_summary ilp.Regalloc.Ilp.model;
        match out with
        | Some path ->
            Lp.Lp_format.write_file path p;
            Fmt.pr "wrote %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Generate and describe the ILP model without solving")
    Term.(const run $ file $ out $ spill)

let () =
  let doc = "compiler for the Nova network-processor language" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "novac" ~doc)
          [ compile_cmd; serve_cmd; lint_cmd; fuzz_cmd; stats_cmd; model_cmd ]))
