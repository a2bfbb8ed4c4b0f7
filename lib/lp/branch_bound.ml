(* Branch and bound for 0-1 (and general-integer) programs over the
   revised dual simplex, single-threaded or parallel across OCaml 5
   domains.

   A solver state is threaded through a whole search chain; nodes only
   change variable bounds, which keeps the current basis dual feasible,
   so child re-solves are warm-started (the solver only re-examines the
   variables whose bounds actually changed between two nodes).

   Search order is dive-with-best-first-fallback: from each node the
   child with the better pseudocost estimate is explored immediately
   (keeping the warm-start chain intact and finding incumbents fast,
   like the old pure depth-first dive), while the other child is parked
   on a best-bound priority queue.  Whenever the chain dies (pruned or
   infeasible), the open node with the smallest LP bound is popped, so
   the proven global lower bound rises as fast as possible and the
   optimality gap actually closes instead of the search rat-holing in
   one subtree.

   Branching variables are chosen by pseudocosts: per-variable running
   averages of (LP objective degradation) / (distance branched), learned
   from every solved child.  Until a variable has history its estimate
   falls back to the global average, then to its objective coefficient
   (which preserves the old heuristic of branching on real decision
   variables before the symmetric color variables).

   A rounding/diving primal heuristic (see [Heuristic]) runs at the root
   and periodically at nodes so pruning starts before the dive reaches a
   leaf.  All time accounting is wall clock via [Clock].

   Parallel search ([domains] >= 2): the tree is explored in synchronous
   rounds.  Each round the coordinator pops a batch of open nodes off
   the shared best-bound heap, hands them to persistent worker domains
   (each owning a private [Revised] solver, so every node re-solve stays
   a warm restart), waits at a barrier, and merges the workers' parked
   children and incumbents back in a fixed worker order.  In
   deterministic mode seeds are distributed round-robin by worker index
   and the pruning cutoff is frozen per round, so the set of nodes
   expanded -- and therefore the reported node count -- is a pure
   function of the problem, reproducible run to run.  In the default
   (opportunistic) mode workers steal seeds from a shared cursor and
   prune against an atomically published global incumbent, trading
   reproducibility for strictly more pruning.

   The caller solves the root relaxation and hands it over as [~root]:
   the solver, at the root optimum when the status is [Optimal], and the
   status.  The search starts from that solver and its basis. *)

type status = Optimal | Infeasible | Limit

(* Warm-start input: hints from a previous solve of this (or a closely
   related) problem, both keyed by variable index.  [w_hints] is the
   previous integral solution -- seeded into an incumbent at the root by
   the guided dive ([Heuristic.guided_dive]) -- and [w_pc] is the
   previous search's pseudocost history (sum_dn, cnt_dn, sum_up,
   cnt_up), imported so branching is informed from node one instead of
   relearning degradation rates.  Stale entries (index out of range
   after a model change) are ignored. *)
type warm = {
  w_hints : (int * float) list;
  w_pc : (int * (float * int * float * int)) list;
}

let no_warm = { w_hints = []; w_pc = [] }

type result = {
  status : status;
  objective : float;
  solution : float array;
  nodes : int;
  root_objective : float;
  total_time : float;
  simplex_iterations : int;
  best_bound : float; (* proven lower bound on the optimum at exit *)
  heuristic_incumbents : int; (* incumbents found by the diving heuristic *)
  incumbent_source : string;
      (* where the emitted incumbent came from: "seeded" (warm-start
         guided dive), "heuristic" (plain rounding dive), "branch"
         (integral LP leaf), or "none" *)
  warm_seeded : bool; (* the warm-start hints produced an incumbent *)
  pc_out : (int * (float * int * float * int)) list;
      (* final pseudocost table, for the next warm start *)
}

let int_tol = 1e-6

(* An open node: the bound fixings along its path (each variable at most
   once), the parent's LP objective (a valid lower bound), and the
   branching step that created it (for pseudocost learning). *)
type node = {
  nb : float; (* parent LP bound *)
  fixings : (int * float * float) list; (* var, lo, hi *)
  depth : int;
  bvar : int; (* variable branched on to create this node; -1 at root *)
  bfrac : float; (* fractional part of bvar at the parent *)
  bup : bool; (* up child? *)
}

(* Minimal binary min-heap on [nb] (best-bound order). *)
module Heap = struct
  type t = { mutable a : node array; mutable len : int }

  let dummy =
    { nb = 0.; fixings = []; depth = 0; bvar = -1; bfrac = 0.; bup = false }

  let create () = { a = Array.make 64 dummy; len = 0 }
  let size h = h.len

  let push h x =
    if h.len = Array.length h.a then begin
      let a = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 a 0 h.len;
      h.a <- a
    end;
    h.a.(h.len) <- x;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.a.((!i - 1) / 2).nb > h.a.(!i).nb do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let min_bound h = if h.len = 0 then infinity else h.a.(0).nb

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      h.a.(h.len) <- dummy;
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.len && h.a.(l).nb < h.a.(!s).nb then s := l;
        if r < h.len && h.a.(r).nb < h.a.(!s).nb then s := r;
        if !s = !i then continue_ := false
        else begin
          let tmp = h.a.(!s) in
          h.a.(!s) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !s
        end
      done;
      Some top
    end
end

(* ------------------------------------------------------------------ *)
(* Pseudocost state (one instance per search thread)                   *)
(* ------------------------------------------------------------------ *)

type pc = {
  sum_dn : float array;
  cnt_dn : int array;
  sum_up : float array;
  cnt_up : int array;
  mutable g_sum_dn : float;
  mutable g_cnt_dn : int;
  mutable g_sum_up : float;
  mutable g_cnt_up : int;
}

let pc_create n =
  {
    sum_dn = Array.make n 0.;
    cnt_dn = Array.make n 0;
    sum_up = Array.make n 0.;
    cnt_up = Array.make n 0;
    g_sum_dn = 0.;
    g_cnt_dn = 0;
    g_sum_up = 0.;
    g_cnt_up = 0;
  }

let pc_est (p : Problem.t) pc up v =
  let sum, cnt, gsum, gcnt =
    if up then (pc.sum_up.(v), pc.cnt_up.(v), pc.g_sum_up, pc.g_cnt_up)
    else (pc.sum_dn.(v), pc.cnt_dn.(v), pc.g_sum_dn, pc.g_cnt_dn)
  in
  if cnt > 0 then sum /. float_of_int cnt
  else if gcnt > 0 then gsum /. float_of_int gcnt
  else Float.abs (Problem.var_obj p v) +. 1e-6

(* Seed a pseudocost table from a previous search's exported history.
   Imported history also feeds the global fallback averages, so even
   variables without their own record branch better than cold. *)
let pc_import pc n (w : warm) =
  List.iter
    (fun (j, (sd, cd, su, cu)) ->
      if j >= 0 && j < n then begin
        pc.sum_dn.(j) <- sd;
        pc.cnt_dn.(j) <- cd;
        pc.sum_up.(j) <- su;
        pc.cnt_up.(j) <- cu;
        pc.g_sum_dn <- pc.g_sum_dn +. sd;
        pc.g_cnt_dn <- pc.g_cnt_dn + cd;
        pc.g_sum_up <- pc.g_sum_up +. su;
        pc.g_cnt_up <- pc.g_cnt_up + cu
      end)
    w.w_pc

let pc_export n pc =
  let acc = ref [] in
  for j = n - 1 downto 0 do
    if pc.cnt_dn.(j) > 0 || pc.cnt_up.(j) > 0 then
      acc :=
        (j, (pc.sum_dn.(j), pc.cnt_dn.(j), pc.sum_up.(j), pc.cnt_up.(j)))
        :: !acc
  done;
  !acc

(* Element-wise sum of several per-worker tables (parallel search). *)
let pc_merge n (tables : pc array) =
  let m = pc_create n in
  Array.iter
    (fun pc ->
      for j = 0 to n - 1 do
        m.sum_dn.(j) <- m.sum_dn.(j) +. pc.sum_dn.(j);
        m.cnt_dn.(j) <- m.cnt_dn.(j) + pc.cnt_dn.(j);
        m.sum_up.(j) <- m.sum_up.(j) +. pc.sum_up.(j);
        m.cnt_up.(j) <- m.cnt_up.(j) + pc.cnt_up.(j)
      done)
    tables;
  m

let hints_of_warm n (w : warm) =
  if w.w_hints = [] then None
  else begin
    let h = Array.make n nan in
    let any = ref false in
    List.iter
      (fun (j, v) ->
        if j >= 0 && j < n then begin
          h.(j) <- v;
          any := true
        end)
      w.w_hints;
    if !any then Some h else None
  end

let pc_learn pc (nd : node) obj =
  if nd.bvar >= 0 then begin
    let gain = Float.max 0. (obj -. nd.nb) in
    let dist = if nd.bup then 1. -. nd.bfrac else nd.bfrac in
    let rate = gain /. Float.max dist 1e-6 in
    if nd.bup then begin
      pc.sum_up.(nd.bvar) <- pc.sum_up.(nd.bvar) +. rate;
      pc.cnt_up.(nd.bvar) <- pc.cnt_up.(nd.bvar) + 1;
      pc.g_sum_up <- pc.g_sum_up +. rate;
      pc.g_cnt_up <- pc.g_cnt_up + 1
    end
    else begin
      pc.sum_dn.(nd.bvar) <- pc.sum_dn.(nd.bvar) +. rate;
      pc.cnt_dn.(nd.bvar) <- pc.cnt_dn.(nd.bvar) + 1;
      pc.g_sum_dn <- pc.g_sum_dn +. rate;
      pc.g_cnt_dn <- pc.g_cnt_dn + 1
    end
  end

(* Pseudocost product-score branching variable, or -1 if integral. *)
let select_branch (p : Problem.t) pc n x =
  let best = ref (-1) in
  let best_score = ref neg_infinity in
  for j = 0 to n - 1 do
    if Problem.var_integer p j then begin
      let f = x.(j) -. floor x.(j) in
      if f > int_tol && f < 1. -. int_tol then begin
        let dn = pc_est p pc false j *. f in
        let up = pc_est p pc true j *. (1. -. f) in
        let score = Float.max dn 1e-8 *. Float.max up 1e-8 in
        if score > !best_score then begin
          best := j;
          best_score := score
        end
      end
    end
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Incumbent publication (shared across worker domains)                *)
(* ------------------------------------------------------------------ *)

type incumbent = { i_obj : float; i_x : float array }

(* Strictly-better-only compare-and-set loop: under any interleaving of
   concurrent publications the stored objective never regresses, and the
   final value is the minimum of everything published. *)
let publish_incumbent (best : incumbent option Atomic.t) ~obj ~x =
  let rec go () =
    let cur = Atomic.get best in
    let cur_obj = match cur with None -> infinity | Some i -> i.i_obj in
    if obj < cur_obj then
      if Atomic.compare_and_set best cur (Some { i_obj = obj; i_x = x }) then
        true
      else go ()
    else false
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Sequential search                                                   *)
(* ------------------------------------------------------------------ *)

let m_nodes = Support.Metrics.counter "lp.bb.nodes"
let m_incumbents = Support.Metrics.counter "lp.bb.incumbents"
let m_heur = Support.Metrics.counter "lp.bb.heuristic_incumbents"

let solve_sequential ~time_limit ~node_limit ~rel_gap ~use_heuristic
    ~heur_period ~warm ~t0 ~root (p : Problem.t) =
  let n = Problem.num_vars p in
  let solver, root_status = root in
  let orig_lo = Array.init n (Problem.var_lo p) in
  let orig_hi = Array.init n (Problem.var_hi p) in
  let pc = pc_create n in
  pc_import pc n warm;
  let hints = hints_of_warm n warm in
  let warm_seeded = ref false in
  let incumbent_src = ref "none" in
  (* Bound activation: undo the previous node's fixings, apply the new
     ones.  A variable appearing in both with the same bounds produces no
     net change, so the solver's incremental restart does no work for the
     shared prefix of the two paths. *)
  let applied = ref [] in
  let activate fixings =
    List.iter
      (fun (v, _, _) ->
        Revised.set_bounds solver v ~lo:orig_lo.(v) ~hi:orig_hi.(v))
      !applied;
    List.iter (fun (v, l, h) -> Revised.set_bounds solver v ~lo:l ~hi:h)
      fixings;
    applied := fixings
  in
  let nodes = ref 0 in
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let heur_found = ref 0 in
  let limit_hit = ref false in
  let root_objective = ref nan in
  (* The gap is taken relative to max(1, |incumbent|): the regalloc
     objectives carry 1e-7-scale symmetry-breaking perturbations, so a
     near-zero objective would otherwise keep the search alive chasing
     perturbation noise the gap can never close.  rel_gap = 0 remains an
     exact proof. *)
  let cutoff () =
    if !incumbent = None then infinity
    else
      !incumbent_obj
      -. (rel_gap *. Float.max 1. (Float.abs !incumbent_obj))
      -. 1e-9
  in
  let heap = Heap.create () in
  let next = ref (Some
    { nb = neg_infinity; fixings = []; depth = 0; bvar = -1; bfrac = 0.;
      bup = false }) in
  let lb_at_exit = ref neg_infinity in
  let running = ref true in
  while !running do
    let nd =
      match !next with
      | Some nd ->
          next := None;
          Some nd
      | None -> Heap.pop heap
    in
    match nd with
    | None -> running := false (* tree exhausted: proof complete *)
    | Some nd ->
        if nd.nb >= cutoff () then () (* prune unexplored *)
        else if Clock.since t0 > time_limit || !nodes >= node_limit then begin
          limit_hit := true;
          running := false;
          lb_at_exit := Float.min nd.nb (Heap.min_bound heap)
        end
        else begin
          activate nd.fixings;
          incr nodes;
          Support.Metrics.incr m_nodes;
          if Support.Trace.is_enabled () && !nodes land 255 = 0 then
            Support.Trace.counter "bb"
              [
                ("nodes", float_of_int !nodes);
                ("open", float_of_int (Heap.size heap));
                ("incumbent", !incumbent_obj);
              ];
          let lp_result =
            if nd.depth = 0 then root_status else Revised.solve solver
          in
          match lp_result with
          | Revised.Iteration_limit ->
              limit_hit := true;
              running := false;
              lb_at_exit := Float.min nd.nb (Heap.min_bound heap)
          | Revised.Infeasible -> ()
          | Revised.Optimal ->
              let obj = Revised.objective solver in
              if nd.depth = 0 then root_objective := obj;
              pc_learn pc nd obj;
              if obj < cutoff () then begin
                let x = Revised.primal solver in
                match select_branch p pc n x with
                | -1 ->
                    incumbent := Some (Array.copy x);
                    incumbent_obj := obj;
                    incumbent_src := "branch";
                    Support.Metrics.incr m_incumbents;
                    if Support.Trace.is_enabled () then
                      Support.Trace.instant "incumbent"
                        ~args:
                          [
                            ("objective", Support.Trace.Float obj);
                            ("node", Support.Trace.Int !nodes);
                          ]
                | v ->
                    (* Warm-start seeding, once, at the root: fix the
                       previous solution's values and let the guided
                       dive repair the remainder.  An incumbent before
                       the first branch is what collapses the tree. *)
                    (match hints with
                    | Some h when nd.depth = 0 -> (
                        match
                          Heuristic.guided_dive ~cutoff:(cutoff ())
                            ~deadline:(t0 +. time_limit) ~hints:h solver p
                        with
                        | Some (hobj, hx) when hobj < !incumbent_obj ->
                            incumbent := Some hx;
                            incumbent_obj := hobj;
                            incumbent_src := "seeded";
                            warm_seeded := true;
                            Support.Metrics.incr m_incumbents;
                            if Support.Trace.is_enabled () then
                              Support.Trace.instant "seeded-incumbent"
                                ~args:
                                  [ ("objective", Support.Trace.Float hobj) ]
                        | _ -> ())
                    | _ -> ());
                    (* Periodic primal heuristic (always at the root). *)
                    if
                      use_heuristic
                      && (nd.depth = 0 || !nodes mod heur_period = 0)
                    then begin
                      match
                        Heuristic.dive ~cutoff:(cutoff ())
                          ~deadline:(t0 +. time_limit) solver p
                      with
                      | Some (hobj, hx) when hobj < !incumbent_obj ->
                          incumbent := Some hx;
                          incumbent_obj := hobj;
                          incumbent_src := "heuristic";
                          incr heur_found;
                          Support.Metrics.incr m_incumbents;
                          Support.Metrics.incr m_heur;
                          if Support.Trace.is_enabled () then
                            Support.Trace.instant "heuristic-incumbent"
                              ~args:
                                [
                                  ("objective", Support.Trace.Float hobj);
                                  ("node", Support.Trace.Int !nodes);
                                ]
                      | _ -> ()
                    end;
                    let f = x.(v) -. floor x.(v) in
                    let cl, ch = Revised.bounds solver v in
                    let base =
                      List.filter (fun (w, _, _) -> w <> v) nd.fixings
                    in
                    let mk_child l h up =
                      if l > h +. 1e-9 then None
                      else
                        Some
                          {
                            nb = obj;
                            fixings = (v, l, h) :: base;
                            depth = nd.depth + 1;
                            bvar = v;
                            bfrac = f;
                            bup = up;
                          }
                    in
                    let down = mk_child cl (floor x.(v)) false in
                    let up = mk_child (ceil x.(v)) ch true in
                    let est_down = obj +. (pc_est p pc false v *. f) in
                    let est_up = obj +. (pc_est p pc true v *. (1. -. f)) in
                    let dive_first, park =
                      if est_down <= est_up then (down, up) else (up, down)
                    in
                    (match park with
                    | Some nd' -> Heap.push heap nd'
                    | None -> ());
                    next := dive_first
              end
        end
  done;
  let total_time = Clock.since t0 in
  let simplex_iterations = Revised.iterations solver in
  let pc_out = pc_export n pc in
  match !incumbent with
  | Some x ->
      let status = if !limit_hit then Limit else Optimal in
      let best_bound =
        if !limit_hit then Float.min !lb_at_exit !incumbent_obj
        else !incumbent_obj
      in
      {
        status;
        objective = !incumbent_obj;
        solution = x;
        nodes = !nodes;
        root_objective = !root_objective;
        total_time;
        simplex_iterations;
        best_bound;
        heuristic_incumbents = !heur_found;
        incumbent_source = !incumbent_src;
        warm_seeded = !warm_seeded;
        pc_out;
      }
  | None ->
      {
        status = (if !limit_hit then Limit else Infeasible);
        objective = infinity;
        solution = Array.make n 0.;
        nodes = !nodes;
        root_objective = !root_objective;
        total_time;
        simplex_iterations;
        best_bound = (if !limit_hit then !lb_at_exit else infinity);
        heuristic_incumbents = !heur_found;
        incumbent_source = "none";
        warm_seeded = !warm_seeded;
        pc_out;
      }

(* ------------------------------------------------------------------ *)
(* Parallel search across domains                                      *)
(* ------------------------------------------------------------------ *)

(* Batch geometry: each round the coordinator hands out up to
   [par_seeds_per_worker] seeds per worker, and each seed is dived for
   at most [par_chain_cap] nodes before the remainder of the chain is
   parked back on the shared heap.  Large enough to amortize the round
   barrier over hundreds of LP solves, small enough that cutoff
   improvements propagate between workers every few hundred nodes. *)
let par_seeds_per_worker = 4
let par_chain_cap = 64

(* What one worker hands back at the round barrier.  Written by exactly
   one worker between barrier crossings; read by the coordinator only
   after the barrier, so no field needs finer-grained synchronization. *)
type wout = {
  mutable o_children : node list; (* parked nodes, newest first *)
  mutable o_incumbent : (float * float array * string) option;
      (* round's best, with its source tag *)
  mutable o_nodes : int;
  mutable o_heur : int;
  mutable o_iters : int; (* cumulative solver iterations *)
  mutable o_limit : bool; (* simplex iteration limit / deadline hit *)
}

let solve_parallel ~domains ~deterministic ~time_limit ~node_limit ~rel_gap
    ~use_heuristic ~heur_period ~warm ~t0 ~root (p : Problem.t) =
  let n = Problem.num_vars p in
  let orig_lo = Array.init n (Problem.var_lo p) in
  let orig_hi = Array.init n (Problem.var_hi p) in
  let gap_margin obj = (rel_gap *. Float.max 1. (Float.abs obj)) +. 1e-9 in
  let heur_deadline = if deterministic then infinity else t0 +. time_limit in
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let incumbent_src = ref "none" in
  let warm_seeded = ref false in
  let heur_found = ref 0 in
  let hints = hints_of_warm n warm in
  (* per-worker pseudocost tables, created here so the final merged
     table can be exported after the workers join *)
  let worker_pcs =
    Array.init domains (fun _ ->
        let pc = pc_create n in
        pc_import pc n warm;
        pc)
  in
  let cutoff () =
    if !incumbent = None then infinity else !incumbent_obj -. gap_margin !incumbent_obj
  in
  let root_pc = pc_create n in
  pc_import root_pc n warm;
  let finish status ~nodes ~iters ~root_objective ~best_bound =
    let objective = match !incumbent with Some _ -> !incumbent_obj | None -> infinity in
    {
      status;
      objective;
      solution =
        (match !incumbent with Some x -> x | None -> Array.make n 0.);
      nodes;
      root_objective;
      total_time = Clock.since t0;
      simplex_iterations = iters;
      best_bound;
      heuristic_incumbents = !heur_found;
      incumbent_source =
        (match !incumbent with Some _ -> !incumbent_src | None -> "none");
      warm_seeded = !warm_seeded;
      pc_out =
        pc_export n (pc_merge n (Array.append [| root_pc |] worker_pcs));
    }
  in
  (* ---- root relaxation on the coordinator ---- *)
  let root_solver, root_status = root in
  Support.Metrics.incr m_nodes;
  match root_status with
  | Revised.Iteration_limit ->
      finish Limit ~nodes:1 ~iters:(Revised.iterations root_solver)
        ~root_objective:nan ~best_bound:neg_infinity
  | Revised.Infeasible ->
      finish Infeasible ~nodes:1 ~iters:(Revised.iterations root_solver)
        ~root_objective:nan ~best_bound:infinity
  | Revised.Optimal ->
      let root_objective = Revised.objective root_solver in
      let x = Revised.primal root_solver in
      let heap = Heap.create () in
      (match select_branch p root_pc n x with
      | -1 ->
          incumbent := Some (Array.copy x);
          incumbent_obj := root_objective;
          incumbent_src := "branch";
          Support.Metrics.incr m_incumbents
      | v ->
          (match hints with
          | Some h -> (
              match
                Heuristic.guided_dive ~cutoff:infinity
                  ~deadline:heur_deadline ~hints:h root_solver p
              with
              | Some (hobj, hx) when hobj < !incumbent_obj ->
                  incumbent := Some hx;
                  incumbent_obj := hobj;
                  incumbent_src := "seeded";
                  warm_seeded := true;
                  Support.Metrics.incr m_incumbents
              | _ -> ())
          | None -> ());
          (if use_heuristic then
             match
               Heuristic.dive ~cutoff:!incumbent_obj
                 ~deadline:heur_deadline root_solver p
             with
             | Some (hobj, hx) ->
                 incumbent := Some hx;
                 incumbent_obj := hobj;
                 incumbent_src := "heuristic";
                 incr heur_found;
                 Support.Metrics.incr m_incumbents;
                 Support.Metrics.incr m_heur
             | None -> ());
          let f = x.(v) -. floor x.(v) in
          let mk l h up =
            if l > h +. 1e-9 then ()
            else
              Heap.push heap
                {
                  nb = root_objective;
                  fixings = [ (v, l, h) ];
                  depth = 1;
                  bvar = v;
                  bfrac = f;
                  bup = up;
                }
          in
          let est_down = pc_est p root_pc false v *. f in
          let est_up = pc_est p root_pc true v *. (1. -. f) in
          if est_down <= est_up then begin
            mk orig_lo.(v) (floor x.(v)) false;
            mk (ceil x.(v)) orig_hi.(v) true
          end
          else begin
            mk (ceil x.(v)) orig_hi.(v) true;
            mk orig_lo.(v) (floor x.(v)) false
          end);
      if Heap.size heap = 0 then
        (* root was integral (or both children empty): done *)
        finish
          (if !incumbent = None then Infeasible else Optimal)
          ~nodes:1 ~iters:(Revised.iterations root_solver) ~root_objective
          ~best_bound:
            (if !incumbent = None then infinity else !incumbent_obj)
      else begin
        (* ---- round machinery ---- *)
        let mu = Mutex.create () in
        let cv = Condition.create () in
        let round = ref 0 in
        let stop = ref false in
        let seeds = ref [||] in
        let round_cutoff = ref infinity in
        let done_count = ref 0 in
        let steal = Atomic.make 0 in
        let shared_best : incumbent option Atomic.t = Atomic.make None in
        let outs =
          Array.init domains (fun _ ->
              {
                o_children = [];
                o_incumbent = None;
                o_nodes = 0;
                o_heur = 0;
                o_iters = 0;
                o_limit = false;
              })
        in
        let worker d =
          let solver = Revised.create p in
          let pc = worker_pcs.(d) in
          let applied = ref [] in
          let activate fixings =
            List.iter
              (fun (v, _, _) ->
                Revised.set_bounds solver v ~lo:orig_lo.(v) ~hi:orig_hi.(v))
              !applied;
            List.iter
              (fun (v, l, h) -> Revised.set_bounds solver v ~lo:l ~hi:h)
              fixings;
            applied := fixings
          in
          let out = outs.(d) in
          let my_nodes = ref 0 in
          let local_cutoff = ref infinity in
          let record_incumbent ?(heur = false) obj x =
            let src = if heur then "heuristic" else "branch" in
            (match out.o_incumbent with
            | Some (o, _, _) when o <= obj -> ()
            | _ -> out.o_incumbent <- Some (obj, x, src));
            local_cutoff := Float.min !local_cutoff (obj -. gap_margin obj);
            if not deterministic then
              ignore (publish_incumbent shared_best ~obj ~x);
            Support.Metrics.incr m_incumbents;
            if heur then begin
              out.o_heur <- out.o_heur + 1;
              Support.Metrics.incr m_heur
            end
          in
          let current_cutoff () =
            if deterministic then !local_cutoff
            else
              match Atomic.get shared_best with
              | Some i ->
                  Float.min !local_cutoff (i.i_obj -. gap_margin i.i_obj)
              | None -> !local_cutoff
          in
          let process_chain seed =
            let next = ref (Some seed) in
            let chain = ref 0 in
            while !next <> None do
              let nd = match !next with Some nd -> nd | None -> assert false in
              next := None;
              let cut = current_cutoff () in
              if nd.nb >= cut then () (* pruned *)
              else if !chain >= par_chain_cap then
                out.o_children <- nd :: out.o_children
              else if
                (not deterministic) && Clock.since t0 > time_limit
              then begin
                out.o_limit <- true;
                out.o_children <- nd :: out.o_children
              end
              else begin
                incr chain;
                activate nd.fixings;
                incr my_nodes;
                out.o_nodes <- out.o_nodes + 1;
                Support.Metrics.incr m_nodes;
                if Support.Trace.is_enabled () && !my_nodes land 255 = 0 then
                  Support.Trace.counter ~tid:(d + 1) "bb"
                    [ ("nodes", float_of_int !my_nodes) ];
                match Revised.solve solver with
                | Revised.Iteration_limit ->
                    out.o_limit <- true;
                    (* keep the node: its bound still counts at exit *)
                    out.o_children <- nd :: out.o_children
                | Revised.Infeasible -> ()
                | Revised.Optimal ->
                    let obj = Revised.objective solver in
                    pc_learn pc nd obj;
                    if obj < cut then begin
                      let x = Revised.primal solver in
                      match select_branch p pc n x with
                      | -1 -> record_incumbent obj (Array.copy x)
                      | v ->
                          if use_heuristic && !my_nodes mod heur_period = 0
                          then begin
                            match
                              Heuristic.dive ~cutoff:cut
                                ~deadline:heur_deadline solver p
                            with
                            | Some (hobj, hx) -> record_incumbent ~heur:true hobj hx
                            | None -> ()
                          end;
                          let f = x.(v) -. floor x.(v) in
                          let cl, ch = Revised.bounds solver v in
                          let base =
                            List.filter (fun (w, _, _) -> w <> v) nd.fixings
                          in
                          let mk_child l h up =
                            if l > h +. 1e-9 then None
                            else
                              Some
                                {
                                  nb = obj;
                                  fixings = (v, l, h) :: base;
                                  depth = nd.depth + 1;
                                  bvar = v;
                                  bfrac = f;
                                  bup = up;
                                }
                          in
                          let down = mk_child cl (floor x.(v)) false in
                          let up = mk_child (ceil x.(v)) ch true in
                          let est_down = obj +. (pc_est p pc false v *. f) in
                          let est_up =
                            obj +. (pc_est p pc true v *. (1. -. f))
                          in
                          let dive_first, park =
                            if est_down <= est_up then (down, up)
                            else (up, down)
                          in
                          (match park with
                          | Some nd' -> out.o_children <- nd' :: out.o_children
                          | None -> ());
                          next := dive_first
                    end
              end
            done
          in
          let last_round = ref 0 in
          let running = ref true in
          while !running do
            Mutex.lock mu;
            while (not !stop) && !round = !last_round do
              Condition.wait cv mu
            done;
            if !stop then begin
              Mutex.unlock mu;
              running := false
            end
            else begin
              last_round := !round;
              let sds = !seeds in
              let cut0 = !round_cutoff in
              Mutex.unlock mu;
              out.o_children <- [];
              out.o_incumbent <- None;
              out.o_nodes <- 0;
              out.o_heur <- 0;
              out.o_limit <- false;
              local_cutoff := cut0;
              let len = Array.length sds in
              if deterministic then begin
                let i = ref d in
                while !i < len do
                  process_chain sds.(!i);
                  i := !i + domains
                done
              end
              else begin
                let continue_ = ref true in
                while !continue_ do
                  let i = Atomic.fetch_and_add steal 1 in
                  if i < len then process_chain sds.(i) else continue_ := false
                done
              end;
              out.o_iters <- Revised.iterations solver;
              Mutex.lock mu;
              incr done_count;
              Condition.broadcast cv;
              Mutex.unlock mu
            end
          done
        in
        let doms = Array.init domains (fun d -> Domain.spawn (fun () -> worker d)) in
        let total_nodes = ref 1 (* root *) in
        let limit_hit = ref false in
        let lb_at_exit = ref neg_infinity in
        let running = ref true in
        (try
           while !running do
             let cut = cutoff () in
             (* collect the round's seeds, pruning stale nodes *)
             let buf = ref [] in
             let count = ref 0 in
             let batch = domains * par_seeds_per_worker in
             let collecting = ref true in
             while !collecting && !count < batch do
               match Heap.pop heap with
               | None -> collecting := false
               | Some nd ->
                   if nd.nb < cut then begin
                     buf := nd :: !buf;
                     incr count
                   end
             done;
             if !count = 0 then running := false (* tree exhausted *)
             else if
               Clock.since t0 > time_limit || !total_nodes >= node_limit
             then begin
               limit_hit := true;
               running := false;
               (* retain the seeds' bounds for the exit bound *)
               List.iter (Heap.push heap) !buf
             end
             else begin
               Mutex.lock mu;
               seeds := Array.of_list (List.rev !buf);
               Atomic.set steal 0;
               round_cutoff := cut;
               done_count := 0;
               incr round;
               Condition.broadcast cv;
               while !done_count < domains do
                 Condition.wait cv mu
               done;
               Mutex.unlock mu;
               (* merge in fixed worker order (determinism) *)
               Array.iter
                 (fun out ->
                   (match out.o_incumbent with
                   | Some (obj, x, src) when obj < !incumbent_obj ->
                       incumbent := Some x;
                       incumbent_obj := obj;
                       incumbent_src := src
                   | _ -> ());
                   List.iter (Heap.push heap) (List.rev out.o_children);
                   total_nodes := !total_nodes + out.o_nodes;
                   heur_found := !heur_found + out.o_heur;
                   if out.o_limit then begin
                     limit_hit := true;
                     running := false
                   end)
                 outs
             end
           done
         with e ->
           (* never leave worker domains blocked on the round condition *)
           Mutex.lock mu;
           stop := true;
           Condition.broadcast cv;
           Mutex.unlock mu;
           Array.iter Domain.join doms;
           raise e);
        if !limit_hit then lb_at_exit := Heap.min_bound heap;
        Mutex.lock mu;
        stop := true;
        Condition.broadcast cv;
        Mutex.unlock mu;
        Array.iter Domain.join doms;
        let iters =
          Array.fold_left
            (fun acc out -> acc + out.o_iters)
            (Revised.iterations root_solver)
            outs
        in
        match !incumbent with
        | Some _ ->
            let status = if !limit_hit then Limit else Optimal in
            let best_bound =
              if !limit_hit then Float.min !lb_at_exit !incumbent_obj
              else !incumbent_obj
            in
            finish status ~nodes:!total_nodes ~iters ~root_objective
              ~best_bound
        | None ->
            finish
              (if !limit_hit then Limit else Infeasible)
              ~nodes:!total_nodes ~iters ~root_objective
              ~best_bound:(if !limit_hit then !lb_at_exit else infinity)
      end

let solve ?(time_limit = 600.) ?(node_limit = 500_000) ?(rel_gap = 1e-4)
    ?(use_heuristic = true) ?(heur_period = 128) ?(domains = 1)
    ?(deterministic = false) ?(warm = no_warm) ~root (p : Problem.t) =
  let t0 = Clock.now () in
  if domains <= 1 then
    solve_sequential ~time_limit ~node_limit ~rel_gap ~use_heuristic
      ~heur_period ~warm ~t0 ~root p
  else
    solve_parallel ~domains ~deterministic ~time_limit ~node_limit ~rel_gap
      ~use_heuristic ~heur_period ~warm ~t0 ~root p
