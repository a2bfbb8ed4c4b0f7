(* High-level MIP entry point: presolve, branch and bound, postsolve.

   This is the interface the register allocator talks to; it reports the
   statistics that Figure 7 of the paper tabulates (model size, root-LP
   and integer solve times).

   The root LP is solved once after presolve (span "root-lp") and handed
   to branch and bound ([Branch_bound.solve ~root]), which starts its
   search from that solver.  All budgets are wall-clock seconds
   ([Clock]). *)

type status = Optimal | Infeasible | Limit

type stats = {
  vars_before : int;
  rows_before : int;
  vars_after : int; (* after presolve *)
  rows_after : int;
  obj_terms : int;
  nonzeros : int;
  root_time : float; (* the root LP solve *)
  total_time : float;
  root_objective : float;
  nodes : int;
  simplex_iterations : int;
  cut_rounds : int;
      (* always 0: perfbench's suite is its only reader, and the
         benchmark PR of ROADMAP item 4 deletes it *)
  best_bound : float; (* proven lower bound at exit *)
  heuristic_incumbents : int; (* incumbents found by the diving heuristic *)
  warm_start_used : bool; (* warm hints seeded the incumbent *)
  incumbent_source : string;
      (* "seeded" | "heuristic" | "branch" | "presolve" | "none", or
         "cache" for a solve replayed from an artifact
         ([Regalloc.Driver.replay_solve]) *)
}

(* [solution] is the incumbent, indexed by the original problem's
   variables: [None] when there is none (infeasible, or a budget hit
   before any incumbent), and then [objective] is [infinity]. *)
type result = {
  status : status;
  objective : float;
  solution : float array option;
  stats : stats;
}

let default_stats =
  {
    vars_before = 0;
    rows_before = 0;
    vars_after = 0;
    rows_after = 0;
    obj_terms = 0;
    nonzeros = 0;
    root_time = 0.;
    total_time = 0.;
    root_objective = nan;
    nodes = 0;
    simplex_iterations = 0;
    cut_rounds = 0;
    best_bound = nan;
    heuristic_incumbents = 0;
    warm_start_used = false;
    incumbent_source = "none";
  }

let m_root_solves = Support.Metrics.counter "lp.root_solves"

(* The root relaxation of [p], built and solved from scratch: the solver
   (at the root optimum when the status is [Optimal]) and the status. *)
let solve_root (p : Problem.t) =
  Support.Metrics.incr m_root_solves;
  Support.Trace.with_span "root-lp" (fun () ->
      let solver = Revised.create p in
      (solver, Revised.solve solver))

(* [hints] is a warm start: (variable, value) pairs, typically a
   previous solve's integral solution, that seed the incumbent
   ([Branch_bound.solve]).  [branch_first] lists variables that branch
   and bound branches on before any other ([Branch_bound]'s priority
   class).  Both are keyed by the original problem's variable indices:
   callers never see presolve's reduced index space, and the mapping
   through [Presolve.info.keep_map] happens here. *)
let solve ?(time_limit = 600.) ?(node_limit = 500_000)
    ?(rel_gap = 1e-4) ?(hints = []) ?(branch_first = [||])
    (p : Problem.t) =
  let t0 = Clock.now () in
  let before = Problem.stats p in
  let finish ?(warm_used = false) ?(inc_src = "none") status objective
      solution ~root_time ~root_obj ~nodes ~iters ~best_bound ~heur
      ~after_stats =
    let total_time = Clock.since t0 in
    {
      status;
      objective;
      solution;
      stats =
        {
          vars_before = before.Problem.n_vars;
          rows_before = before.Problem.n_rows;
          vars_after = after_stats.Problem.n_vars;
          rows_after = after_stats.Problem.n_rows;
          obj_terms = before.Problem.n_obj_terms;
          nonzeros = before.Problem.n_nonzeros;
          root_time;
          total_time;
          root_objective = root_obj;
          nodes;
          simplex_iterations = iters;
          cut_rounds = 0;
          best_bound;
          heuristic_incumbents = heur;
          warm_start_used = warm_used;
          incumbent_source = inc_src;
        };
    }
  in
  match Support.Trace.with_span "presolve" (fun () -> Presolve.run p) with
  | Presolve.Infeasible_detected ->
      finish Infeasible infinity None ~root_time:0. ~root_obj:nan ~nodes:0
        ~iters:0 ~best_bound:infinity ~heur:0 ~after_stats:(Problem.stats p)
  | Presolve.Reduced (sub, info) when Problem.num_vars sub = 0 ->
      (* Fully solved by presolve. *)
      let solution = Presolve.postsolve info [||] in
      let objective = Problem.objective_value p solution in
      finish Optimal objective (Some solution) ~root_time:0.
        ~root_obj:objective ~nodes:0 ~iters:0 ~best_bound:objective ~heur:0
        ~after_stats:(Problem.stats sub) ~inc_src:"presolve"
  | Presolve.Reduced (sub, info) ->
      let after_stats = Problem.stats sub in
      (* Hints and the branching priority come in on the original
         variable indices and go through [keep_map] to the presolved
         problem's. *)
      let keep_map = info.Presolve.keep_map in
      let kept j = j >= 0 && j < Array.length keep_map && keep_map.(j) >= 0 in
      let root_t0 = Clock.now () in
      let root = solve_root sub in
      let root_time = Clock.since root_t0 in
      (* What presolve and the root LP left of the budget.  When nothing
         is left, the search parks its root and stops at its limit. *)
      let remaining = Float.max 0. (time_limit -. Clock.since t0) in
      let hints =
        List.filter_map
          (fun (j, x) -> if kept j then Some (keep_map.(j), x) else None)
          hints
      in
      let first = Array.make (Problem.num_vars sub) false in
      Array.iter (fun j -> if kept j then first.(keep_map.(j)) <- true)
        branch_first;
      let r =
        Support.Trace.with_span "branch-and-bound" (fun () ->
            Branch_bound.solve ~time_limit:remaining ~node_limit ~rel_gap
              ~hints ~branch_first:first ~root sub)
      in
      let status =
        match r.Branch_bound.status with
        | Branch_bound.Optimal -> Optimal
        | Branch_bound.Infeasible -> Infeasible
        | Branch_bound.Limit -> Limit
      in
      let solution =
        Option.map (Presolve.postsolve info) r.Branch_bound.solution
      in
      let objective =
        match solution with
        | Some s -> Problem.objective_value p s
        | None -> infinity
      in
      (* The search proves its bound on the presolved problem while the
         reported objective is re-evaluated on the original problem, so
         the two can disagree by float drift (observed at the 1e-5 scale
         on the larger allocation models), yielding the absurd report
         "best_bound < objective" on a proven optimum.  At optimality the
         objective itself is the tightest valid bound: clamp to it. *)
      let best_bound =
        if status = Optimal then Float.max r.Branch_bound.best_bound objective
        else r.Branch_bound.best_bound
      in
      finish status objective solution ~root_time
        ~root_obj:r.Branch_bound.root_objective ~nodes:r.Branch_bound.nodes
        ~iters:r.Branch_bound.simplex_iterations ~best_bound
        ~heur:r.Branch_bound.heuristic_incumbents ~after_stats
        ~warm_used:r.Branch_bound.warm_seeded
        ~inc_src:r.Branch_bound.incumbent_source
