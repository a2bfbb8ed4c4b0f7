(* High-level MIP entry point: presolve, root cuts, branch and bound,
   postsolve.

   This is the interface the register allocator talks to; it reports the
   statistics that Figure 7 of the paper tabulates (model size, root-LP
   and integer solve times).

   The root LP is solved after presolve (span "root-lp").  A few rounds
   of cover/clique separation (see [Cuts], span "root-cuts") run against
   its fractional optimum; violated cuts are appended to a private copy
   of the problem as ordinary rows, and only a round that appends cuts
   re-solves the root.  The final solved root goes to branch and bound
   ([Branch_bound.solve ~root]), which starts its search from that
   solver.  All budgets are wall-clock seconds ([Clock]); the cut rounds
   spend from the same [time_limit] as the search. *)

type status = Optimal | Infeasible | Limit

(* Warm-start input/output, keyed by the *original* problem's variable
   indices (callers never see presolve's reduced index space; the
   mapping through [Presolve.info.keep_map] happens here).  [ws_values]
   is an integral solution to seed the incumbent from; [ws_pseudocosts]
   is the branching history (sum_dn, cnt_dn, sum_up, cnt_up) to import.
   A solve's [ws_out] is exactly this shape, so "persist ws_out, feed it
   back as [warm] next time" is the whole reuse protocol. *)
type warm_start = {
  ws_values : (int * float) list;
  ws_pseudocosts : (int * (float * int * float * int)) list;
}

let no_warm_start = { ws_values = []; ws_pseudocosts = [] }

type stats = {
  vars_before : int;
  rows_before : int;
  vars_after : int; (* after presolve *)
  rows_after : int;
  obj_terms : int;
  nonzeros : int;
  root_time : float; (* root LP and cut rounds, up to the final root *)
  total_time : float;
  root_objective : float;
  nodes : int;
  simplex_iterations : int;
  cut_rounds : int; (* root separation rounds run *)
  cuts_added : int; (* violated cuts appended before branching *)
  best_bound : float; (* proven lower bound at exit *)
  heuristic_incumbents : int; (* incumbents found by the diving heuristic *)
  warm_start_used : bool; (* warm hints seeded the incumbent *)
  incumbent_source : string;
      (* "seeded" | "heuristic" | "branch" | "presolve" | "none" *)
}

type result = {
  status : status;
  objective : float;
  solution : float array; (* indexed by the original problem's variables *)
  stats : stats;
  ws_out : warm_start; (* solution + pseudocosts for the next warm start *)
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
    cuts_added = 0;
    best_bound = nan;
    heuristic_incumbents = 0;
    warm_start_used = false;
    incumbent_source = "none";
  }

let int_tol = 1e-6

let m_root_solves = Support.Metrics.counter "lp.root_solves"

(* The root relaxation of [p], built and solved from scratch: the solver
   (at the root optimum when the status is [Optimal]) and the status. *)
let solve_root (p : Problem.t) =
  Support.Metrics.incr m_root_solves;
  Support.Trace.with_span "root-lp" (fun () ->
      let solver = Revised.create p in
      (solver, Revised.solve solver))

(* Separate cuts on the root optimum [root] and append the violated
   ones to [p], until none is found, the round budget runs out, or the
   root is integral.  Only a round that appends cuts re-solves the root
   (from scratch: the new rows change the basis dimension).  Returns the
   final root with the rounds run and the cuts added.  On the allocation
   models no cut fires, so this costs one scan of the root point. *)
let root_cut_pass ?(max_rounds = 3) ~deadline (p : Problem.t) root =
  let fractional x =
    let frac = ref false in
    for j = 0 to Problem.num_vars p - 1 do
      if
        Problem.var_integer p j
        && Float.abs (x.(j) -. Float.round x.(j)) > int_tol
      then frac := true
    done;
    !frac
  in
  let rec round ((solver, status) as root) rounds added =
    if rounds >= max_rounds || Clock.now () >= deadline then
      (root, rounds, added)
    else
      let cuts =
        if status <> Revised.Optimal then []
        else
          let x = Revised.primal solver in
          if fractional x then Cuts.generate p x else []
      in
      if cuts = [] then (root, rounds + 1, added)
      else
        let k = Cuts.apply p cuts in
        round (solve_root p) (rounds + 1) (added + k)
  in
  round root 0 0

let solve ?(presolve = true) ?(cuts = true) ?(time_limit = 600.)
    ?(node_limit = 500_000) ?(rel_gap = 1e-4) ?(domains = 1)
    ?(deterministic = false) ?(warm = no_warm_start) (p : Problem.t) =
  let t0 = Clock.now () in
  let before = Problem.stats p in
  let finish ?(warm_used = false) ?(inc_src = "none")
      ?(ws_out = no_warm_start) status objective solution ~root_time
      ~root_obj ~nodes ~iters ~cut_rounds ~cuts_added ~best_bound ~heur
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
          cut_rounds;
          cuts_added;
          best_bound;
          heuristic_incumbents = heur;
          warm_start_used = warm_used;
          incumbent_source = inc_src;
        };
      ws_out;
    }
  in
  (* [map_orig_to_sub] translates warm data given on original variable
     indices to the (presolved) subproblem's index space; [sub_to_orig]
     is the inverse, for exporting the final pseudocost table back.
     Identity when presolve is off. *)
  let branch_and_bound sub ~after_stats ~postsolve_fn ~map_orig_to_sub
      ~sub_to_orig =
    let root_t0 = Clock.now () in
    let root = solve_root sub in
    let root, cut_rounds, cuts_added =
      if cuts then
        Support.Trace.with_span "root-cuts" (fun () ->
            root_cut_pass ~deadline:(t0 +. (0.25 *. time_limit)) sub root)
      else (root, 0, 0)
    in
    let root_time = Clock.since root_t0 in
    Support.Metrics.add (Support.Metrics.counter "lp.cuts.added") cuts_added;
    let remaining = Float.max 1. (time_limit -. Clock.since t0) in
    let bb_warm =
      {
        Branch_bound.w_hints =
          List.filter_map
            (fun (j, v) ->
              Option.map (fun j' -> (j', v)) (map_orig_to_sub j))
            warm.ws_values;
        w_pc =
          List.filter_map
            (fun (j, h) ->
              Option.map (fun j' -> (j', h)) (map_orig_to_sub j))
            warm.ws_pseudocosts;
      }
    in
    let r =
      Support.Trace.with_span "branch-and-bound" (fun () ->
          Branch_bound.solve ~time_limit:remaining ~node_limit ~rel_gap
            ~domains ~deterministic ~warm:bb_warm ~root sub)
    in
    let status =
      match r.Branch_bound.status with
      | Branch_bound.Optimal -> Optimal
      | Branch_bound.Infeasible -> Infeasible
      | Branch_bound.Limit -> Limit
    in
    let solution, objective =
      if status = Infeasible then
        (Array.make (Problem.num_vars p) 0., infinity)
      else begin
        let s = postsolve_fn r.Branch_bound.solution in
        (s, Problem.objective_value p s)
      end
    in
    let ws_out =
      if status = Infeasible then no_warm_start
      else
        {
          ws_values =
            (let acc = ref [] in
             for j = Problem.num_vars p - 1 downto 0 do
               if Problem.var_integer p j
                  && Float.abs solution.(j) > 1e-6
               then acc := (j, Float.round solution.(j)) :: !acc
             done;
             !acc);
          ws_pseudocosts =
            List.filter_map
              (fun (j, h) ->
                Option.map (fun j' -> (j', h)) (sub_to_orig j))
              r.Branch_bound.pc_out;
        }
    in
    (* The search proves its bound on the presolved/cut problem while the
       reported objective is re-evaluated on the original problem, so the
       two can disagree by float drift (observed at the 1e-5 scale on the
       larger allocation models), yielding the absurd report
       "best_bound < objective" on a proven optimum.  At optimality the
       objective itself is the tightest valid bound: clamp to it. *)
    let best_bound =
      if status = Optimal then Float.max r.Branch_bound.best_bound objective
      else r.Branch_bound.best_bound
    in
    finish status objective solution ~root_time
      ~root_obj:r.Branch_bound.root_objective ~nodes:r.Branch_bound.nodes
      ~iters:r.Branch_bound.simplex_iterations ~cut_rounds ~cuts_added
      ~best_bound ~heur:r.Branch_bound.heuristic_incumbents ~after_stats
      ~warm_used:r.Branch_bound.warm_seeded
      ~inc_src:r.Branch_bound.incumbent_source ~ws_out
  in
  let empty_solution = Array.make (Problem.num_vars p) 0. in
  if presolve then begin
    match Support.Trace.with_span "presolve" (fun () -> Presolve.run p) with
    | Presolve.Infeasible_detected ->
        finish Infeasible infinity empty_solution ~root_time:0. ~root_obj:nan
          ~nodes:0 ~iters:0 ~cut_rounds:0 ~cuts_added:0 ~best_bound:infinity
          ~heur:0 ~after_stats:(Problem.stats p)
    | Presolve.Reduced (reduced, info) ->
        let after_stats = Problem.stats reduced in
        if Problem.num_vars reduced = 0 then begin
          (* Fully solved by presolve. *)
          let solution = Presolve.postsolve info [||] in
          let objective = Problem.objective_value p solution in
          finish Optimal objective solution ~root_time:0.
            ~root_obj:objective ~nodes:0 ~iters:0 ~cut_rounds:0 ~cuts_added:0
            ~best_bound:objective ~heur:0 ~after_stats
            ~inc_src:"presolve"
        end
        else begin
          let keep_map = info.Presolve.keep_map in
          let n_orig = Array.length keep_map in
          let inverse = Array.make (Problem.num_vars reduced) (-1) in
          Array.iteri
            (fun j j' -> if j' >= 0 then inverse.(j') <- j)
            keep_map;
          branch_and_bound reduced ~after_stats
            ~postsolve_fn:(Presolve.postsolve info)
            ~map_orig_to_sub:(fun j ->
              if j < 0 || j >= n_orig || keep_map.(j) < 0 then None
              else Some keep_map.(j))
            ~sub_to_orig:(fun j' ->
              if j' < 0 || j' >= Array.length inverse || inverse.(j') < 0
              then None
              else Some inverse.(j'))
        end
  end
  else
    (* root cuts append rows: give them a private copy of [p] *)
    branch_and_bound (Problem.copy p) ~after_stats:(Problem.stats p)
      ~postsolve_fn:(fun s -> s)
      ~map_orig_to_sub:(fun j ->
        if j >= 0 && j < Problem.num_vars p then Some j else None)
      ~sub_to_orig:(fun j -> Some j)
