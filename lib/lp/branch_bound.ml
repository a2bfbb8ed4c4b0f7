(* Branch and bound for 0-1 (and general-integer) programs over the
   revised dual simplex.

   One solver state is threaded through the whole search; nodes only
   change variable bounds, which keeps the current basis dual feasible,
   so child re-solves are warm-started (the solver only re-examines the
   variables whose bounds actually changed between two nodes).  That
   solver is the one the caller hands over as [~root], at the root
   optimum when the status is [Optimal]: the root is expanded from that
   basis and status without a second solve.

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

   Budgets are checked before every node, inside chains: past the
   wall-clock or node budget the node is parked, so its bound still
   counts at exit, and the search expands at most [node_limit] nodes. *)

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
  solution : float array option; (* [None]: no incumbent *)
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
(* Pseudocost state                                                    *)
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
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let m_nodes = Support.Metrics.counter "lp.bb.nodes"
let m_incumbents = Support.Metrics.counter "lp.bb.incumbents"
let m_heur = Support.Metrics.counter "lp.bb.heuristic_incumbents"

(* The diving heuristic runs at the root and at every [heur_period]-th
   node. *)
let heur_period = 128

let solve ?(time_limit = 600.) ?(node_limit = 500_000) ?(rel_gap = 1e-4)
    ?(warm = no_warm) ~root (p : Problem.t) =
  let t0 = Clock.now () in
  let deadline = t0 +. time_limit in
  let n = Problem.num_vars p in
  let solver, root_status = root in
  let orig_lo = Array.init n (Problem.var_lo p) in
  let orig_hi = Array.init n (Problem.var_hi p) in
  let hints = hints_of_warm n warm in
  let pc = pc_create n in
  pc_import pc n warm;
  let best = ref None (* objective, solution, source *) in
  let best_obj () = match !best with Some (o, _, _) -> o | None -> infinity in
  (* The gap is taken relative to max(1, |incumbent|): the regalloc
     objectives carry 1e-7-scale symmetry-breaking perturbations, so a
     near-zero objective would otherwise keep the search alive chasing
     perturbation noise the gap can never close.  rel_gap = 0 remains an
     exact proof. *)
  let cutoff () =
    let obj = best_obj () in
    if obj = infinity then infinity
    else obj -. (rel_gap *. Float.max 1. (Float.abs obj)) -. 1e-9
  in
  let nodes = ref 0 and heur = ref 0 and limit_hit = ref false in
  let warm_seeded = ref false and root_objective = ref nan in
  let heap = Heap.create () in
  (* Bound activation: undo the previous node's fixings, apply the new
     ones.  A variable appearing in both with the same bounds produces
     no net change, so the solver's incremental restart does no work for
     the shared prefix of the two paths. *)
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
  let record src obj x =
    if obj < best_obj () then best := Some (obj, x, src);
    Support.Metrics.incr m_incumbents;
    if Support.Trace.is_enabled () then
      Support.Trace.instant
        (if src = "branch" then "incumbent" else src ^ "-incumbent")
        ~args:
          [
            ("objective", Support.Trace.Float obj);
            ("node", Support.Trace.Int !nodes);
          ]
  in
  let park = Heap.push heap in
  let rec expand nd =
    if nd.nb >= cutoff () then () (* pruned *)
    else if Clock.since t0 > time_limit || !nodes >= node_limit then begin
      limit_hit := true;
      park nd
    end
    else begin
      activate nd.fixings;
      incr nodes;
      Support.Metrics.incr m_nodes;
      if Support.Trace.is_enabled () && !nodes land 255 = 0 then
        Support.Trace.counter "bb"
          [ ("nodes", float_of_int !nodes); ("incumbent", best_obj ()) ];
      match if nd.depth = 0 then root_status else Revised.solve solver with
      | Revised.Iteration_limit ->
          limit_hit := true;
          park nd
      | Revised.Infeasible -> ()
      | Revised.Optimal ->
          let obj = Revised.objective solver in
          if nd.depth = 0 then root_objective := obj;
          pc_learn pc nd obj;
          if obj < cutoff () then begin
            let x = Revised.primal solver in
            match select_branch p pc n x with
            | -1 -> record "branch" obj (Array.copy x)
            | v ->
                (* Warm-start seeding, once, at the root: fix the previous
                   solution's values and let the guided dive repair the
                   remainder.  An incumbent before the first branch is
                   what collapses the tree. *)
                (match hints with
                | Some h when nd.depth = 0 ->
                    Heuristic.guided_dive ~cutoff:(cutoff ()) ~deadline
                      ~hints:h solver p
                    |> Option.iter (fun (hobj, hx) ->
                           warm_seeded := true;
                           record "seeded" hobj hx)
                | _ -> ());
                if nd.depth = 0 || !nodes mod heur_period = 0 then
                  Heuristic.dive ~cutoff:(cutoff ()) ~deadline solver p
                  |> Option.iter (fun (hobj, hx) ->
                         incr heur;
                         Support.Metrics.incr m_heur;
                         record "heuristic" hobj hx);
                let f = x.(v) -. floor x.(v) in
                let cl, ch = Revised.bounds solver v in
                let base = List.filter (fun (w, _, _) -> w <> v) nd.fixings in
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
                let dive_first, parked =
                  if est_down <= est_up then (down, up) else (up, down)
                in
                Option.iter park parked;
                Option.iter expand dive_first
          end
    end
  in
  park
    { nb = neg_infinity; fixings = []; depth = 0; bvar = -1; bfrac = 0.;
      bup = false };
  (* Pop the best-bound open node and dive from it, until the heap
     empties or a budget stops a dive. *)
  let rec search () =
    match Heap.pop heap with
    | Some nd ->
        expand nd;
        if not !limit_hit then search ()
    | None -> ()
  in
  search ();
  let objective, solution, incumbent_source =
    match !best with
    | Some (o, x, src) -> (o, Some x, src)
    | None -> (infinity, None, "none")
  in
  {
    status =
      (if !limit_hit then Limit
       else if Option.is_none solution then Infeasible
       else Optimal);
    objective;
    solution;
    nodes = !nodes;
    root_objective = !root_objective;
    total_time = Clock.since t0;
    simplex_iterations = Revised.iterations solver;
    best_bound =
      (if !limit_hit then Float.min (Heap.min_bound heap) objective
       else objective);
    heuristic_incumbents = !heur;
    incumbent_source;
    warm_seeded = !warm_seeded;
    pc_out = pc_export n pc;
  }
