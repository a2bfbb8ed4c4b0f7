(* The benchmark's four workloads.

   Each one sets itself up several times (setup_s is the median), runs
   measured rounds for the requested seconds, then checks every output
   outside the timed region: compiled code against the reference
   models, served move costs against the cold compile, and simulated
   statistics against the first round.  A traced run adds one traced
   pass (one set-up plus one round) for the per-layer metrics.

   Every solve uses the deterministic 128-node budget on one domain, so
   node and iteration counts, move costs and simulated statistics
   repeat exactly from run to run. *)

type metric = { name : string; value : float; unit_ : string; n : int }

open Programs

type env = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list; (* newest first *)
  mutable rows : (string * float) list; (* per-program compile seconds *)
}

let now = Support.Monotonic.now_s

let metric env name unit_ ~n value =
  env.metrics <- ({ name; value; unit_; n } : metric) :: env.metrics

(* One attempted operation; a failure is counted and explained on
   stderr, so a run that reports failed > 0 says why. *)
let op env ok fmt =
  Printf.ksprintf
    (fun what ->
      env.attempted <- env.attempted + 1;
      if not ok then begin
        env.failed <- env.failed + 1;
        Printf.eprintf "perfbench: FAILED %s\n%!" what
      end)
    fmt

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

let sum = List.fold_left ( +. ) 0.
let sumi f = List.fold_left (fun acc x -> acc + f x) 0
let ratio a b = float_of_int a /. float_of_int (max 1 b)

let options allocator =
  {
    Regalloc.Driver.default_options with
    allocator;
    node_limit = 128;
    time_limit = 1e9;
    solver_domains = 1;
  }

let ilp = options Regalloc.Driver.Ilp_allocator
let baseline = options Regalloc.Driver.Baseline_allocator
let cost (c : Regalloc.Driver.compiled) = c.stats.weighted_move_cost
let file (p : program) = String.lowercase_ascii p.name ^ ".nova"

(* A cold compile, as a fresh `novac compile` process runs it.  The
   compiler numbers identifiers from a process-wide counter and keys its
   hash tables by those numbers, so without the reset the solver's
   tie-breaking -- and, under the node budget, the incumbent it returns
   -- would depend on what the process compiled before. *)
let cold_compile options ~file source =
  Support.Ident.reset ();
  Regalloc.Driver.compile ~options ~file source

(* The checks every compile gets, outside any timed region. *)
let check_compiled env (p : program) (c : Regalloc.Driver.compiled) =
  op env
    (c.stats.solver_outcome <> Regalloc.Driver.Outcome_fallback)
    "%s compile fell back to the baseline" p.name;
  op env (reference_ok p c.physical)
    "%s output differs from its reference model" p.name

(* An untimed compile; a raise is a failed operation. *)
let compile_checked env options (p : program) =
  match cold_compile options ~file:(file p) p.source with
  | c ->
      check_compiled env p c;
      Some c
  | exception e ->
      op env false "%s compile raised %s" p.name (Printexc.to_string e);
      None

(* ---------------- set-up, rounds and the traced pass ---------------- *)

let show_times times =
  String.concat " " (List.map (Printf.sprintf "%.4g") times)

(* Set up at least three times and for at least two seconds, tearing
   down all but the last; setup_s is the median.  A set-up of a few
   tenths of a second needs more repetitions for a steady median. *)
let set_up env ~setup ~teardown =
  let rec go times =
    let t, st = timed setup in
    let times = t :: times in
    if List.length times >= 3 && sum times >= 2. then (st, List.rev times)
    else begin
      teardown st;
      go times
    end
  in
  let st, times = go [] in
  Printf.printf "%s set-ups (s): %s\n" env.workload (show_times times);
  metric env "setup_s" "s" ~n:(List.length times) (Summary.median times);
  st

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.
            | exception _ -> go ())
        | exception End_of_file -> nan
      in
      go ())

(* Rounds until the next one, predicted at the median round so far,
   would overrun the budget; at least three, so that later rounds can be
   checked against the first.  [round i] returns its timed seconds.
   round_s is the median of the faster half of the rounds: the host has
   bursts that slow everything by 30-60%, and the slower half absorbs
   them.  Peak memory is read when the rounds end, before the output
   checks, which are not the workload. *)
let rounds env round =
  let t0 = now () in
  let rec go i acc =
    let acc = round i :: acc in
    if i >= 3 && now () -. t0 +. Summary.median acc > env.seconds then
      List.rev acc
    else go (i + 1) acc
  in
  let times = go 1 [] in
  Printf.printf "%s rounds (s): %s\n" env.workload (show_times times);
  metric env "round_s" "s" ~n:(List.length times)
    (Summary.lower_half_median times);
  metric env "peak_rss_mb" "MB" ~n:1 (peak_rss_mb ());
  times

(* Typical operation latency: the geometric mean, over the workload's
   kinds of operation (programs, edited programs, legs), of each kind's
   faster-half median (see [rounds]).  Kinds differ in cost by orders of
   magnitude, so one median over the mix would jump between kinds from
   run to run. *)
let op_ms env kinds =
  metric env "op_ms" "ms"
    ~n:(sumi List.length kinds)
    (1e3 *. Summary.geomean (List.map Summary.lower_half_median kinds))

(* Self seconds of each layer: the program's stage spans that belong to
   it.  Spans not listed (roll-ups such as "compile" or "solve", and the
   benchmark's own spans) are still in the Perfetto file. *)
let layers =
  [
    ("nova.parse_s", [ "parse" ]);
    ("nova.typecheck_s", [ "typecheck" ]);
    ("cps.passes_s", [ "cps-convert"; "contract"; "deproc"; "ssu"; "isel" ]);
    ("cps.verify_s", [ "verify"; "verify-differential" ]);
    ("regalloc.modelgen_s", [ "modelgen" ]);
    ("regalloc.ilp_build_s", [ "ilp-build" ]);
    ("regalloc.emit_s", [ "emit" ]);
    ("regalloc.check_s", [ "validate"; "machine-check" ]);
    ("lp.presolve_s", [ "presolve" ]);
    ("lp.root_lp_s", [ "root-lp" ]);
    ("lp.root_cuts_s", [ "root-cuts" ]);
    ("lp.bb_s", [ "branch-and-bound" ]);
  ]

let counter name = Support.Metrics.(counter_value (counter name))

(* Run [pass] (one set-up and one round, returning the round's seconds
   and the solver statistics of the compiles it ran) with tracing on,
   then record per-layer times and counters and write the Perfetto
   file.  The tracing overhead compares the traced round with the first
   untraced one, the other round that directly follows a set-up. *)
let traced env ~first_round pass =
  Spans.start ();
  let round_s, mips = Fun.protect ~finally:Spans.stop pass in
  let selfs = Spans.self_times () in
  let self n = Option.value ~default:0. (List.assoc_opt n selfs) in
  List.iter
    (fun (layer, names) ->
      metric env layer "s" ~n:1 (sum (List.map self names)))
    layers;
  let mip f = sumi f mips in
  let count name = float_of_int (counter name) in
  metric env "lp.cut_yield" "ratio" ~n:1
    (ratio (counter "lp.cuts.added") (mip (fun m -> m.Lp.Mip.cut_rounds)));
  metric env "lp.nodes" "count" ~n:1 (count "lp.bb.nodes");
  metric env "lp.iterations" "count" ~n:1
    (float_of_int (mip (fun m -> m.Lp.Mip.simplex_iterations)));
  metric env "lp.refactorizations" "count" ~n:1
    (count "lp.lu.refactorizations");
  metric env "lp.heuristic_incumbents" "count" ~n:1
    (count "lp.bb.heuristic_incumbents");
  metric env "trace.overhead_share" "ratio" ~n:1
    ((round_s -. first_round) /. first_round);
  List.iter
    (fun (n, s) -> Printf.printf "%s self %s %.6f s\n" env.workload n s)
    selfs;
  let path =
    Filename.concat "_artifacts"
      (Printf.sprintf "benchmark-trace-%s.json" env.workload)
  in
  Spans.write_perfetto path;
  Printf.printf "%s trace written to %s\n" env.workload path

(* ---------------- simulated legs ---------------- *)

type kind = Capacity | Fixed_rate | Cluster_leg | Event_leg

type sim =
  | Chip_sim of Ixp.Chip.report
  | Cluster_sim of Cluster.report
  | Event_sim of (Ixp.Chip.report * float) (* and minor words allocated *)

type leg = { kind : kind; on_ilp : bool; prog : string; run : unit -> sim }

(* Capacity legs for both allocators, fixed-rate legs for the ILP code
   (and for the baseline when [base_fixed]). *)
let chip_legs ~seed ~base_fixed compiled =
  List.concat_map
    (fun (p, ilp_c, base_c) ->
      let leg kind on_ilp (c : Regalloc.Driver.compiled) f =
        {
          kind;
          on_ilp;
          prog = p.name;
          run = (fun () -> Chip_sim (f p c.physical ~seed));
        }
      in
      [
        leg Capacity true ilp_c capacity_leg;
        leg Capacity false base_c capacity_leg;
        leg Fixed_rate true ilp_c fixed_rate_leg;
      ]
      @ if base_fixed then [ leg Fixed_rate false base_c fixed_rate_leg ]
        else [])
    compiled

let span_name = function
  | Capacity | Fixed_rate -> "chip.run"
  | Cluster_leg -> "cluster.run"
  | Event_leg -> "chip.drive"

(* Run the legs, each an operation whose packets must all be accounted
   for; returns (leg, host seconds, result).  Each leg allocates tens of
   MB of simulated memory, so the heap is collected before each one:
   otherwise the peak would depend on when the GC got round to freeing
   the previous legs' chips. *)
let run_legs env ~op_base legs =
  List.mapi
    (fun i leg ->
      Gc.full_major ();
      let t, sim =
        timed (fun () ->
            Spans.with_span ~op:(op_base + i) (span_name leg.kind) leg.run)
      in
      let accounted =
        match sim with
        | Chip_sim r | Event_sim (r, _) -> chip_accounted r
        | Cluster_sim r -> cluster_accounted r
      in
      op env accounted "%s leg of %s lost packets" (span_name leg.kind)
        leg.prog;
      (leg, t, sim))
    legs

(* (host seconds, report) of the chip legs of one kind and allocator *)
let chips kind ~on_ilp results =
  List.filter_map
    (fun (l, t, s) ->
      match s with
      | Chip_sim r when l.kind = kind && l.on_ilp = on_ilp -> Some (t, r)
      | _ -> None)
    results

let busy (r : Ixp.Chip.report) = Array.fold_left ( + ) 0 r.engine_busy

(* Simulated metrics from one round of results (they repeat exactly),
   host rates from all of them.  Workloads without event or cluster
   legs report 0 for those. *)
let sim_metrics env ~first ~all =
  let reports kind ~on_ilp = List.map snd (chips kind ~on_ilp first) in
  let cap = reports Capacity ~on_ilp:true in
  let n = List.length cap in
  let fixed = reports Fixed_rate ~on_ilp:true in
  metric env "chip_mpps" "Mpps" ~n
    (Summary.geomean (List.map Ixp.Chip.achieved_mpps cap));
  metric env "chip_p99_cycles" "cycles" ~n:(List.length fixed)
    (Summary.geomean
       (List.map
          (fun r -> float_of_int (Ixp.Chip.latency_percentile r 0.99))
          fixed));
  let util (r : Ixp.Chip.report) =
    ratio (busy r) (Array.length r.engine_busy * r.cycles)
  in
  metric env "ixp.engine_util" "ratio" ~n
    (sum (List.map util cap) /. float_of_int n);
  let bus f (r : Ixp.Chip.report) = sumi (fun (_, s) -> f s) r.bus in
  metric env "ixp.bus_stall_ratio" "ratio" ~n
    (ratio
       (sumi (bus (fun s -> s.Ixp.Memory.chan_stall)) cap)
       (sumi (bus (fun s -> s.Ixp.Memory.chan_busy)) cap));
  metric env "ixp.rx_drop_ratio" "ratio" ~n
    (ratio (sumi Ixp.Chip.dropped cap)
       (sumi (fun (r : Ixp.Chip.report) -> r.generated) cap));
  metric env "ixp.ilp_vs_baseline_mpps" "ratio" ~n
    (Summary.geomean
       (List.map2
          (fun i b -> Ixp.Chip.achieved_mpps i /. Ixp.Chip.achieved_mpps b)
          cap
          (reports Capacity ~on_ilp:false)));
  let fixed_all =
    chips Fixed_rate ~on_ilp:true all @ chips Fixed_rate ~on_ilp:false all
  in
  metric env "ixp.exec_mcycles_per_s" "Mcycles/s" ~n:(List.length fixed_all)
    (float_of_int (sumi (fun (_, r) -> busy r) fixed_all)
    /. sum (List.map fst fixed_all)
    /. 1e6);
  let events =
    List.filter_map
      (function _, t, Event_sim (_, w) -> Some (t, w) | _ -> None)
      all
  in
  let ne = List.length events in
  let packets = float_of_int (ne * event_packets) in
  metric env "ixp.event_mpkt_per_s" "Mpkt/s" ~n:ne
    (if ne = 0 then 0. else packets /. sum (List.map fst events) /. 1e6);
  metric env "ixp.minor_words_per_pkt" "words" ~n:ne
    (if ne = 0 then 0. else sum (List.map snd events) /. packets);
  let clusters results =
    List.filter_map
      (function _, t, Cluster_sim r -> Some (t, r) | _ -> None)
      results
  in
  let cl = List.map snd (clusters first) and cl_all = clusters all in
  let nc = List.length cl in
  let generated (r : Cluster.report) = r.generated in
  let geo f = if nc = 0 then 0. else Summary.geomean (List.map f cl) in
  metric env "cluster.mpps" "Mpps" ~n:nc (geo Cluster.achieved_mpps);
  metric env "cluster.p99_cycles" "cycles" ~n:nc
    (geo (fun r -> float_of_int r.Cluster.p99));
  metric env "cluster.lb_drop_ratio" "ratio" ~n:nc
    (ratio (sumi Cluster.dropped cl) (sumi generated cl));
  metric env "cluster.mpkt_per_s" "Mpkt/s" ~n:(List.length cl_all)
    (if cl_all = [] then 0.
     else
       float_of_int (sumi (fun (_, r) -> generated r) cl_all)
       /. sum (List.map fst cl_all)
       /. 1e6)

(* The line rate of a workload's compiled code: its capacity and
   fixed-rate legs, run once as part of the output checks. *)
let check_line_rate env compiled =
  let results =
    run_legs env ~op_base:0
      (chip_legs ~seed:env.seed ~base_fixed:false compiled)
  in
  sim_metrics env ~first:results ~all:results

let regalloc_metrics env compiled =
  let n = List.length compiled in
  metric env "move_cost" "cost" ~n
    (sum (List.map (fun (_, c, _) -> cost c) compiled));
  metric env "regalloc.moves" "count" ~n
    (float_of_int
       (sumi
          (fun (_, (c : Regalloc.Driver.compiled), _) ->
            c.stats.moves_inserted)
          compiled));
  metric env "regalloc.baseline_move_cost" "cost" ~n
    (sum (List.map (fun (_, _, b) -> cost b) compiled))

(* The cache and service layers only work on serve-edit. *)
let idle_service env =
  List.iter
    (fun (name, unit_) -> metric env name unit_ ~n:0 0.)
    [
      ("cache.noop_full_hit_ratio", "ratio");
      ("cache.edit_solve_replay_ratio", "ratio");
      ("cache.evictions_per_request", "1/request");
      ("service.overhead_share", "ratio");
      ("service.edit_tail_per_p50", "ratio");
    ]

let mips_of compiled =
  List.filter_map (fun (c : Regalloc.Driver.compiled) -> c.stats.mip) compiled

(* ---------------- compile-search and compile-root ---------------- *)

let warm_up () = cold_compile ilp ~file:"warmup.nova" kasumi.source

(* Cold compiles of [programs], one round each.  Set-up is a warm-up
   compile of Kasumi, so lazy initialization is paid before timing. *)
let compile_workload programs env =
  ignore (set_up env ~setup:warm_up ~teardown:ignore);
  (* The traced pass calls the two halves of [Driver.compile] itself,
     with the options [compile] passes, so each gets a span. *)
  let compile ~id p =
    if not !Spans.on then cold_compile ilp ~file:(file p) p.source
    else
      Spans.with_span ~op:id "compile" (fun () ->
          Support.Ident.reset ();
          let front =
            Spans.with_span ~op:id "front-end" (fun () ->
                Regalloc.Driver.front_end ~entry:ilp.entry
                  ~entry_args:ilp.entry_args ~rematerialize:ilp.rematerialize
                  ~verify_each:ilp.verify_each ~file:(file p) p.source)
          in
          Spans.with_span ~op:id "allocate" (fun () ->
              Regalloc.Driver.allocate ilp front))
  in
  let first = Hashtbl.create 8 and times = Hashtbl.create 8 in
  let samples p = Option.value ~default:[] (Hashtbl.find_opt times p.name) in
  (* One round: each compile timed alone, then checked untimed; returns
     the timed seconds and the compiles. *)
  let round i =
    List.fold_left
      (fun (total, compiled) (k, p) ->
        match timed (fun () -> compile ~id:((10 * i) + k) p) with
        | t, c ->
            Hashtbl.replace times p.name (t :: samples p);
            check_compiled env p c;
            (match Hashtbl.find_opt first p.name with
            | None -> Hashtbl.replace first p.name c
            | Some c1 ->
                op env (cost c = cost c1) "%s move cost changed between rounds"
                  p.name);
            (total +. t, c :: compiled)
        | exception e ->
            op env false "%s compile raised %s" p.name (Printexc.to_string e);
            (total, compiled))
      (0., [])
      (List.mapi (fun k p -> (k, p)) programs)
  in
  let untraced = rounds env (fun i -> fst (round i)) in
  op_ms env (List.map samples programs);
  env.rows <- List.map (fun p -> (p.name, Summary.median (samples p))) programs;
  let compiled =
    List.filter_map
      (fun p ->
        let base = compile_checked env baseline p in
        match (Hashtbl.find_opt first p.name, base) with
        | Some c, Some b -> Some (p, c, b)
        | _ -> None)
      programs
  in
  regalloc_metrics env compiled;
  check_line_rate env compiled;
  idle_service env;
  if env.trace then
    traced env ~first_round:(List.hd untraced) (fun () ->
        let c = Spans.with_span ~op:0 "setup" warm_up in
        let t, cs = round 1 in
        (t, mips_of (c :: cs)))

let compile_search = compile_workload [ aes ]
let compile_root = compile_workload root_optimal

(* ---------------- serve-edit ---------------- *)

let serve_dir = Filename.concat "_artifacts" "perfbench-serve"

(* Relative, so the path stays within the Unix socket length limit
   wherever the checkout lives. *)
let socket_path = Filename.concat "_artifacts" "perfbench-serve.sock"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type server = {
  daemon : unit Domain.t;
  client : Service.Client.t;
  cold : (program * Regalloc.Driver.compiled) list;
}

(* Cold-compile the programs into an empty artifact store, then start
   the daemon over that store in a second domain; [Regalloc.Driver]'s
   stage memos are per process, so the daemon starts with them warm. *)
let start_server () =
  rm_rf serve_dir;
  Regalloc.Driver.clear_memos ();
  Support.Ident.reset ();
  let store = Cache.Store.create ~dir:serve_dir () in
  let cold =
    List.map
      (fun p ->
        ( p,
          fst
            (Regalloc.Driver.compile_incremental ~options:ilp ~store
               ~file:(file p) p.source) ))
      root_optimal
  in
  let config =
    {
      Service.Daemon.socket_path;
      cache_dir = Some serve_dir;
      base_options = ilp;
      verbose = false;
    }
  in
  let daemon = Domain.spawn (fun () -> Service.Daemon.run config) in
  let client = Service.Client.connect_retry ~socket_path () in
  (match Service.Client.ping client with
  | Ok _ -> ()
  | Error e -> failwith ("daemon did not answer a ping: " ^ e));
  { daemon; client; cold }

let stop_server s =
  ignore (Service.Client.shutdown s.client);
  Service.Client.close s.client;
  Domain.join s.daemon

type reply = {
  rtt : float;
  elapsed : float;
  full_hit : bool;
  solve_hit : bool;
}

(* The value at [path] (object keys) in [doc]. *)
let json_at path doc =
  List.fold_left
    (fun d k -> Option.bind d (Support.Json.member k))
    (Some doc) path

(* One request; a reply that is not ok, or whose move cost is not the
   cold compile's, is a failed operation. *)
let request env s ~id (p, (cold : Regalloc.Driver.compiled)) ~what text =
  let rtt, resp =
    timed (fun () ->
        Spans.with_span ~op:id "request" (fun () ->
            Service.Client.compile ~file:(file p) ~source:text s.client))
  in
  let field doc path conv = Option.bind (json_at path doc) conv in
  let flag doc path =
    Option.value ~default:false (field doc path Support.Json.to_bool)
  in
  match resp with
  | Error e ->
      op env false "%s %s request: %s" p.name what e;
      None
  | Ok doc ->
      op env
        (flag doc [ "ok" ]
        && field doc [ "weighted_move_cost" ] Support.Json.to_float
           = Some (cost cold))
        "%s %s reply not ok or its move cost differs from the cold compile"
        p.name what;
      Some
        {
          rtt;
          elapsed =
            Option.value ~default:nan
              (field doc [ "elapsed_s" ] Support.Json.to_float);
          full_hit = flag doc [ "cache"; "full" ];
          solve_hit = flag doc [ "cache"; "solve" ];
        }

(* Three times per round, for each program in turn: a one-line comment
   edit (a cache write: the front end and model re-run, the solve
   replays from the store), then a no-op resend of the same text (a
   cache read).  Thirty requests a round keep one cache hit more or
   less from moving the round time by more than a few per cent. *)
let serve_edit env =
  let s = set_up env ~setup:start_server ~teardown:stop_server in
  let rng = Random.State.make [| env.seed |] in
  let edits = ref [] and noops = ref [] in
  let round s i =
    List.fold_left
      (fun total (k, ((p, _) as pc)) ->
        let text =
          p.source ^ Printf.sprintf "\n// edit %08x\n" (Random.State.bits rng)
        in
        let id = (100 * i) + (2 * k) in
        let e = request env s ~id pc ~what:"edit" text in
        let n = request env s ~id:(id + 1) pc ~what:"no-op" text in
        Option.iter (fun r -> edits := (p.name, r) :: !edits) e;
        Option.iter (fun r -> noops := r :: !noops) n;
        let rtt = Option.fold ~none:0. ~some:(fun r -> r.rtt) in
        total +. rtt e +. rtt n)
      0.
      (List.mapi (fun k pc -> (k, pc)) (List.concat [ s.cold; s.cold; s.cold ]))
  in
  let evict0 = counter "cache.evict" in
  let untraced = rounds env (round s) in
  let evictions = counter "cache.evict" - evict0 in
  stop_server s;
  op_ms env
    (List.map
       (fun (p, _) ->
         List.filter_map
           (fun (name, r) -> if name = p.name then Some r.rtt else None)
           !edits)
       s.cold);
  let edits = List.map snd !edits and noops = !noops in
  let ne = List.length edits and nn = List.length noops in
  let rtts = List.map (fun r -> r.rtt) edits in
  let p50 = Summary.median rtts in
  let share f l = ratio (List.length (List.filter f l)) (List.length l) in
  metric env "cache.noop_full_hit_ratio" "ratio" ~n:nn
    (share (fun r -> r.full_hit) noops);
  metric env "cache.edit_solve_replay_ratio" "ratio" ~n:ne
    (share (fun r -> r.solve_hit) edits);
  metric env "cache.evictions_per_request" "1/request" ~n:(ne + nn)
    (ratio evictions (ne + nn));
  metric env "service.overhead_share" "ratio" ~n:ne
    (Summary.median (List.map (fun r -> (r.rtt -. r.elapsed) /. r.rtt) edits));
  let tail = Summary.tail_permille ne in
  metric env "service.edit_tail_per_p50" "ratio" ~n:ne
    (match tail with
    | Some pm -> Summary.percentile rtts ~permille:pm /. p50
    | None -> List.fold_left Float.max 0. rtts /. p50);
  Printf.printf "serve-edit tail percentile: %s over %d edits\n"
    (match tail with
    | Some pm -> Printf.sprintf "p%g" (float_of_int pm /. 10.)
    | None -> "max")
    ne;
  let compiled =
    List.filter_map
      (fun (p, c) ->
        check_compiled env p c;
        Option.map (fun b -> (p, c, b)) (compile_checked env baseline p))
      s.cold
  in
  regalloc_metrics env compiled;
  check_line_rate env compiled;
  if env.trace then
    traced env ~first_round:(List.hd untraced) (fun () ->
        let s = Spans.with_span ~op:0 "setup" start_server in
        let t =
          Fun.protect ~finally:(fun () -> stop_server s) (fun () -> round s 1)
        in
        (t, mips_of (List.map snd s.cold)))

(* ---------------- chip-sim ---------------- *)

type fleet = {
  programs :
    (program * Regalloc.Driver.compiled * Regalloc.Driver.compiled) list;
  event : Regalloc.Driver.compiled; (* the event-engine kernel *)
}

let compile_fleet () =
  let c options p = cold_compile options ~file:(file p) p.source in
  {
    programs = List.map (fun p -> (p, c ilp p, c baseline p)) root_optimal;
    event = cold_compile ilp ~file:"event.nova" event_kernel;
  }

(* Every program x allocator at capacity and at its fixed rate, the
   Kasumi ILP code on the cluster under two adversarial profiles, and
   the event engine on its own kernel.  Traffic is open loop in
   simulated time; compiling is set-up. *)
let fleet_legs ~seed f =
  let _, kasumi_ilp, _ = List.find (fun (p, _, _) -> p == kasumi) f.programs in
  let cluster profile =
    {
      kind = Cluster_leg;
      on_ilp = true;
      prog = kasumi.name;
      run =
        (fun () ->
          Cluster_sim (cluster_leg kasumi kasumi_ilp.physical ~profile ~seed));
    }
  in
  chip_legs ~seed ~base_fixed:true f.programs
  @ List.map cluster cluster_profiles
  @ [
      {
        kind = Event_leg;
        on_ilp = true;
        prog = "event-kernel";
        run = (fun () -> Event_sim (event_leg f.event.physical ~seed));
      };
    ]

(* Simulated statistics must repeat exactly; the minor words an event
   leg allocates are host behaviour and may differ. *)
let fingerprint = function
  | Chip_sim r | Event_sim (r, _) -> Marshal.to_string r []
  | Cluster_sim r -> Marshal.to_string r []

let chip_sim env =
  let f = set_up env ~setup:compile_fleet ~teardown:ignore in
  let legs = fleet_legs ~seed:env.seed f in
  let results = ref [] in
  (* one list of leg results per round, newest first *)
  let round i =
    let r = run_legs env ~op_base:(100 * i) legs in
    (match List.rev !results with
    | r1 :: _ ->
        List.iter2
          (fun (l, _, a) (_, _, b) ->
            op env
              (fingerprint a = fingerprint b)
              "%s leg of %s: simulated statistics differ from round 1"
              (span_name l.kind) l.prog)
          r1 r
    | [] -> ());
    results := r :: !results;
    sum (List.map (fun (_, t, _) -> t) r)
  in
  let untraced = rounds env round in
  let by_round = List.rev !results in
  let leg_time r i = (fun (_, t, _) -> t) (List.nth r i) in
  op_ms env
    (List.mapi (fun i _ -> List.map (fun r -> leg_time r i) by_round) legs);
  sim_metrics env ~first:(List.hd by_round) ~all:(List.concat by_round);
  List.iter
    (fun (p, c, b) ->
      check_compiled env p c;
      check_compiled env p b)
    f.programs;
  regalloc_metrics env f.programs;
  idle_service env;
  if env.trace then
    traced env ~first_round:(List.hd untraced) (fun () ->
        let f = Spans.with_span ~op:0 "setup" compile_fleet in
        (* the chip model emits a span per engine step: keep only the
           benchmark's spans while simulating *)
        Support.Trace.disable ();
        let t = round 1 in
        (t, mips_of (f.event :: List.map (fun (_, c, _) -> c) f.programs)))

let all =
  [
    ("compile-search", compile_search);
    ("compile-root", compile_root);
    ("serve-edit", serve_edit);
    ("chip-sim", chip_sim);
  ]
