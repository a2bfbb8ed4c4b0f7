(* Rounding/diving primal heuristic.

   Branch and bound prunes with the incumbent objective, so the sooner a
   good integral solution exists, the smaller the tree.  The pure
   depth-first dive used to be the only incumbent source, and it only
   produces one after committing to a full branching path.  This module
   instead dives greedily from the current LP optimum: repeatedly fix the
   *least* fractional integer variable to its nearest integer and
   re-solve the (warm-started, dual-feasible) LP.  Least-fractional-first
   keeps each re-solve near the parent optimum, so a dive typically costs
   a few hundred simplex pivots total on the allocation models.

   The dive runs on the caller's solver state and restores every bound it
   touched before returning; the caller keeps using the same solver for
   branching afterwards (its next [solve] restarts incrementally from the
   restored bounds). *)

let int_tol = 1e-6

(* Iteration budget per re-solve inside the dive: a warm dual re-solve
   after fixing one variable normally takes a handful of pivots, so
   hitting this means the dive wandered somewhere expensive -- abort. *)
let dive_max_iters = 2_000

(* [dive solver p ~cutoff ~deadline ~integer] assumes [solver] has just
   solved the LP over its current bounds to optimality; [integer.(j)]
   flags [p]'s integer variables.  Returns [Some (obj, x)] with an
   integral solution strictly better than [cutoff], or [None].  All
   bounds touched are restored before returning (the solver's basis is
   left wherever the dive ended; the caller re-solves as needed). *)
let dive ?(max_fixes = 500) ?(cutoff = infinity) ?(deadline = infinity)
    ~integer (solver : Revised.t) (p : Problem.t) =
  let n = Problem.num_vars p in
  (* the LP solution at each step, returned when it is integral *)
  let x = Array.make n 0. in
  let saved = Hashtbl.create 32 in
  let save v =
    if not (Hashtbl.mem saved v) then
      Hashtbl.replace saved v (Revised.bounds solver v)
  in
  let restore () =
    Hashtbl.iter (fun v (l, h) -> Revised.set_bounds solver v ~lo:l ~hi:h) saved
  in
  let resolve_ok () =
    match Revised.solve ~max_iters:dive_max_iters solver with
    | Revised.Optimal -> Revised.objective solver < cutoff
    | Revised.Infeasible | Revised.Iteration_limit -> false
  in
  let rec go fixes =
    if fixes > max_fixes || Clock.now () > deadline then None
    else begin
      Revised.primal_into solver x;
      (* least-fractional unfixed integer variable *)
      let best = ref (-1) and bestf = ref infinity in
      for j = 0 to n - 1 do
        if integer.(j) then begin
          let f = Float.abs (x.(j) -. Float.round x.(j)) in
          if f > int_tol && f < !bestf then begin
            best := j;
            bestf := f
          end
        end
      done;
      if !best < 0 then begin
        (* Integral: snap and report. *)
        let obj = Revised.objective solver in
        if obj < cutoff then begin
          for j = 0 to n - 1 do
            if integer.(j) then x.(j) <- Float.round x.(j)
          done;
          Some (obj, x)
        end
        else None
      end
      else begin
        let v = !best in
        let lo, hi = Revised.bounds solver v in
        let r = Float.max lo (Float.min hi (Float.round x.(v))) in
        save v;
        Revised.set_bounds solver v ~lo:r ~hi:r;
        if resolve_ok () then go (fixes + 1)
        else begin
          (* one shot at the opposite rounding, then give up *)
          let alt = if r > x.(v) then r -. 1. else r +. 1. in
          if alt < lo -. 1e-9 || alt > hi +. 1e-9 then None
          else begin
            Revised.set_bounds solver v ~lo:alt ~hi:alt;
            if resolve_ok () then go (fixes + 1) else None
          end
        end
      end
    end
  in
  (* The solver may be carrying queued bound deltas (e.g. a preceding
     [guided_dive] restores its fixings without re-solving), in which
     case the stored primal is stale -- possibly infeasible for the
     current bounds.  Re-establish optimality before reading it; when
     the caller really did just solve, this costs zero pivots. *)
  let result = if resolve_ok () then go 0 else None in
  restore ();
  result

(* Warm-start seeding dive: fix every hinted integer variable to its
   hinted value at once (clamped to current bounds), re-solve, and let
   the ordinary dive above finish off any remaining fractional
   variables.  The bulk re-solve *is* the [Sparse_lu] warm-restart path:
   [Revised.set_bounds] only queues bound deltas, so the dual simplex
   restarts from the current factored basis instead of refactorizing --
   which is what makes seeding from a previous solve's solution cheap.
   When the hints describe an incompatible model (the program changed
   enough that the old assignment is infeasible here), the fix-all LP
   comes back infeasible and the caller falls back to the plain dive.

   [hints.(j)] is the suggested value for variable [j], or [nan] for no
   suggestion; [integer] is as in [dive].  All bounds touched are
   restored before returning. *)
let guided_max_iters = 20_000

let guided_dive ?(cutoff = infinity) ?(deadline = infinity) ~integer
    ~(hints : float array) (solver : Revised.t) (p : Problem.t) =
  let n = Problem.num_vars p in
  let saved = ref [] in
  let fixed = ref 0 in
  for j = 0 to min n (Array.length hints) - 1 do
    let h = hints.(j) in
    if integer.(j) && not (Float.is_nan h) then begin
      let lo, hi = Revised.bounds solver j in
      let v = Float.max lo (Float.min hi (Float.round h)) in
      saved := (j, lo, hi) :: !saved;
      Revised.set_bounds solver j ~lo:v ~hi:v;
      incr fixed
    end
  done;
  let restore () =
    List.iter (fun (j, lo, hi) -> Revised.set_bounds solver j ~lo ~hi) !saved
  in
  if !fixed = 0 then begin
    restore ();
    None
  end
  else begin
    let result =
      match Revised.solve ~max_iters:guided_max_iters solver with
      | Revised.Infeasible | Revised.Iteration_limit -> None
      | Revised.Optimal ->
          if Revised.objective solver >= cutoff then None
          else
            (* hinted variables are fixed integral; the plain dive now
               only has the unhinted remainder to round *)
            dive ~cutoff ~deadline ~integer solver p
    in
    restore ();
    result
  end
