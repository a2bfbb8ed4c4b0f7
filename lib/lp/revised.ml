(* Production LP solver: bounded-variable revised dual simplex on a
   sparse LU-factored basis (see [Sparse_lu]) with sparse columns.

   Why dual simplex: the register-allocation MIPs have nonnegative move
   costs, so the all-slack basis with every structural variable at a
   dual-feasible bound is immediately dual feasible -- no phase 1 is ever
   needed.  Branch and bound only ever changes variable bounds, which
   preserves dual feasibility of the current basis, so node re-solves are
   warm-started for free.

   Warm restarts after bound changes are fully incremental: duals do not
   depend on bound values at all, so a bound change on a nonbasic
   variable only requires (a) re-checking which bound that one variable
   should sit at (using the maintained reduced cost) and (b) shifting
   x_B by one FTRAN column per net value change.  No global dual rescan
   ever happens between branch-and-bound nodes.

   Internal form: every row [a_i x (sense) b_i] becomes [a_i x + s_i = b_i]
   with slack bounds
       Le: s_i in [0, +inf)    Ge: s_i in (-inf, 0]    Eq: s_i in [0, 0].

   Requirements (checked at [create]): every structural variable must have
   at least one finite bound, and a finite bound on the side demanded by
   the sign of its objective coefficient (so that an initial dual-feasible
   placement exists).  The 0-1 models satisfy this trivially. *)

type status = Optimal | Infeasible | Iteration_limit

type t = {
  n : int; (* structural variables *)
  m : int; (* rows = slack variables *)
  cost : float array; (* length n+m; slacks cost 0 *)
  lo : float array; (* length n+m, mutable via set_bounds *)
  hi : float array;
  (* Column j of [A | I] is entries [col_start.(j)] ..
     [col_start.(j+1) - 1] of [col_row]/[col_val], by increasing row. *)
  col_start : int array; (* length n+m+1 *)
  col_row : int array;
  col_val : float array;
  (* The same matrix by rows: row i holds its structural terms, then
     its slack. *)
  row_start : int array; (* length m+1 *)
  row_col : int array;
  row_val : float array;
  rhs : float array; (* length m *)
  mutable lu : Sparse_lu.t; (* factored basis *)
  basis : int array; (* length m: variable in basis position i *)
  in_basis : int array; (* var -> basis position, or -1 *)
  at_upper : bool array; (* nonbasic status; meaningful when not basic *)
  xb : float array; (* values of basic variables *)
  dvals : float array; (* reduced costs, maintained incrementally *)
  mutable dvals_fresh : bool;
  mutable xb_fresh : bool;
  (* cheap-restart queue: (nonbasic var, its value before the bound
     change); the basis and duals are unaffected by bound changes, so
     only these variables need their placement re-checked and x_B
     shifted by one FTRAN column each *)
  mutable bound_deltas : (int * float) list;
  rho : float array; (* workspace: BTRAN pivot row, length m; zero
                        between iterations *)
  wcol : float array; (* workspace: FTRAN entering column, length m *)
  rho_nz : int array; (* workspace: nonzero positions of [rho] *)
  w_nz : int array; (* workspace: nonzero positions of [wcol], ... *)
  mutable nw : int; (* ... the first [nw] *)
  alpha : float array; (* workspace: pivot row, length n+m; zero between
                          iterations *)
  in_row : bool array; (* workspace: column is listed in [row_cols] *)
  row_cols : int array; (* workspace: columns the pivot row touched *)
  dw : float array; (* devex reference weights, one per basis row *)
  (* Pricing candidates: the first [ncand] entries of [cand] list the
     rows whose x_B changed since pricing last found them feasible, and
     [in_cand] marks them.  Every infeasible row is listed. *)
  cand : int array;
  in_cand : bool array;
  mutable ncand : int;
  mutable iters : int;
  mutable total_iters : int;
  mutable factorizations : int;
}

let feas_tol = 1e-7
let dual_tol = 1e-7
let pivot_tol = 1e-9

(* The column of basis position [k], in the form [Sparse_lu.factorize]
   reads. *)
let basis_column col_start col_row col_val basis k f =
  let j = basis.(k) in
  for p = col_start.(j) to col_start.(j + 1) - 1 do
    f col_row.(p) col_val.(p)
  done

let create (p : Problem.t) =
  let n = Problem.num_vars p in
  let m = Problem.num_rows p in
  let nm = n + m in
  let cost = Array.make nm 0. in
  let lo = Array.make nm 0. in
  let hi = Array.make nm 0. in
  let rhs = Array.make m 0. in
  for j = 0 to n - 1 do
    cost.(j) <- Problem.var_obj p j;
    lo.(j) <- Problem.var_lo p j;
    hi.(j) <- Problem.var_hi p j;
    if Float.is_finite lo.(j) = false && Float.is_finite hi.(j) = false then
      invalid_arg "Revised.create: free variables are not supported";
    if cost.(j) > 0. && not (Float.is_finite lo.(j)) then
      invalid_arg "Revised.create: positive cost needs a finite lower bound";
    if cost.(j) < 0. && not (Float.is_finite hi.(j)) then
      invalid_arg "Revised.create: negative cost needs a finite upper bound"
  done;
  let rows = ref [] in
  Problem.iter_rows (fun r -> rows := r :: !rows) p;
  let rows = Array.of_list (List.rev !rows) in
  (* Row-wise copy first, then its transpose: scanning the rows in order
     lists each column's entries by increasing row. *)
  let row_start = Array.make (m + 1) 0 in
  Array.iteri
    (fun i (r : Problem.row) ->
      row_start.(i + 1) <- row_start.(i) + List.length r.terms + 1)
    rows;
  let nnz = row_start.(m) in
  let row_col = Array.make nnz 0 and row_val = Array.make nnz 0. in
  Array.iteri
    (fun i (r : Problem.row) ->
      rhs.(i) <- r.rhs;
      (match r.sense with
      | Problem.Le ->
          lo.(n + i) <- 0.;
          hi.(n + i) <- infinity
      | Problem.Ge ->
          lo.(n + i) <- neg_infinity;
          hi.(n + i) <- 0.
      | Problem.Eq ->
          lo.(n + i) <- 0.;
          hi.(n + i) <- 0.);
      let p = ref row_start.(i) in
      List.iter
        (fun (v, c) ->
          row_col.(!p) <- v;
          row_val.(!p) <- c;
          incr p)
        r.terms;
      row_col.(!p) <- n + i;
      row_val.(!p) <- 1.0)
    rows;
  let col_start = Array.make (nm + 1) 0 in
  Array.iter (fun j -> col_start.(j + 1) <- col_start.(j + 1) + 1) row_col;
  for j = 0 to nm - 1 do
    col_start.(j + 1) <- col_start.(j + 1) + col_start.(j)
  done;
  let col_row = Array.make nnz 0 and col_val = Array.make nnz 0. in
  let fill = Array.sub col_start 0 nm in
  for i = 0 to m - 1 do
    for p = row_start.(i) to row_start.(i + 1) - 1 do
      let j = row_col.(p) in
      col_row.(fill.(j)) <- i;
      col_val.(fill.(j)) <- row_val.(p);
      fill.(j) <- fill.(j) + 1
    done
  done;
  let basis = Array.init m (fun i -> n + i) in
  let in_basis = Array.make nm (-1) in
  for i = 0 to m - 1 do
    in_basis.(n + i) <- i
  done;
  let at_upper = Array.make nm false in
  for j = 0 to n - 1 do
    (* Dual-feasible initial placement. *)
    if cost.(j) < 0. then at_upper.(j) <- true
    else if not (Float.is_finite lo.(j)) then at_upper.(j) <- true
  done;
  (* All-slack basis: the identity factors trivially. *)
  let lu = Sparse_lu.factorize m (basis_column col_start col_row col_val basis) in
  {
    n; m; cost; lo; hi; col_start; col_row; col_val; row_start; row_col;
    row_val; rhs; lu; basis; in_basis; at_upper;
    xb = Array.make m 0.;
    dvals = Array.make nm 0.;
    dvals_fresh = false;
    xb_fresh = false;
    bound_deltas = [];
    rho = Array.make m 0.;
    wcol = Array.make m 0.;
    rho_nz = Array.make m 0;
    w_nz = Array.make m 0;
    nw = 0;
    alpha = Array.make nm 0.;
    in_row = Array.make nm false;
    row_cols = Array.make nm 0;
    dw = Array.make m 1.;
    cand = Array.make m 0;
    in_cand = Array.make m false;
    ncand = 0;
    iters = 0;
    total_iters = 0;
    factorizations = 0;
  }

let nonbasic_value t j = if t.at_upper.(j) then t.hi.(j) else t.lo.(j)

(* Resolved once at module initialization; [Metrics.reset] keeps the
   handle valid. *)
let m_refactorizations = Support.Metrics.counter "lp.lu.refactorizations"

let refactorize t =
  t.factorizations <- t.factorizations + 1;
  Support.Metrics.incr m_refactorizations;
  match
    Sparse_lu.factorize t.m
      (basis_column t.col_start t.col_row t.col_val t.basis)
  with
  | lu -> t.lu <- lu
  | exception Sparse_lu.Singular -> failwith "Revised.refactorize: singular basis"

(* The positions of [v]'s nonzeros, for a solve's right-hand side. *)
let nonzero_list v =
  let nz = Array.make (Array.length v) 0 and n = ref 0 in
  Array.iteri
    (fun i x ->
      if x <> 0. then begin
        nz.(!n) <- i;
        incr n
      end)
    v;
  (nz, !n)

(* List every row as a pricing candidate. *)
let all_candidates t =
  for i = 0 to t.m - 1 do
    t.cand.(i) <- i;
    t.in_cand.(i) <- true
  done;
  t.ncand <- t.m

let add_candidate t i =
  if not t.in_cand.(i) then begin
    t.in_cand.(i) <- true;
    t.cand.(t.ncand) <- i;
    t.ncand <- t.ncand + 1
  end

(* Recompute x_B = Binv (b - N x_N) from scratch. *)
let recompute_xb t =
  Array.blit t.rhs 0 t.xb 0 t.m;
  for j = 0 to t.n + t.m - 1 do
    if t.in_basis.(j) < 0 then begin
      let xj = nonbasic_value t j in
      if xj <> 0. then
        for p = t.col_start.(j) to t.col_start.(j + 1) - 1 do
          let i = t.col_row.(p) in
          t.xb.(i) <- t.xb.(i) -. (t.col_val.(p) *. xj)
        done
    end
  done;
  let nz, n = nonzero_list t.xb in
  ignore (Sparse_lu.ftran t.lu t.xb nz n);
  t.xb_fresh <- true

(* Dual values and reduced costs for all variables, from one BTRAN. *)
let refresh_dvals t =
  let y = Array.make t.m 0. in
  for i = 0 to t.m - 1 do
    y.(i) <- t.cost.(t.basis.(i))
  done;
  let nz, n = nonzero_list y in
  ignore (Sparse_lu.btran t.lu y nz n);
  for j = 0 to t.n + t.m - 1 do
    if t.in_basis.(j) >= 0 then t.dvals.(j) <- 0.
    else begin
      let d = ref t.cost.(j) in
      for p = t.col_start.(j) to t.col_start.(j + 1) - 1 do
        d := !d -. (y.(t.col_row.(p)) *. t.col_val.(p))
      done;
      t.dvals.(j) <- !d
    end
  done;
  t.dvals_fresh <- true

(* Re-check which bound a single nonbasic variable should sit at, after
   its bounds changed.  Duals are untouched by bound changes, so the
   maintained reduced cost decides; an infinite current side forces a
   move regardless of the sign. *)
let fix_placement t j =
  if t.in_basis.(j) < 0 then begin
    let d = t.dvals.(j) in
    if t.at_upper.(j) && not (Float.is_finite t.hi.(j)) then
      t.at_upper.(j) <- false
    else if (not t.at_upper.(j)) && not (Float.is_finite t.lo.(j)) then
      t.at_upper.(j) <- true
    else if t.lo.(j) < t.hi.(j) -. 1e-15 then begin
      if (not t.at_upper.(j)) && d < -.dual_tol && Float.is_finite t.hi.(j)
      then t.at_upper.(j) <- true
      else if t.at_upper.(j) && d > dual_tol && Float.is_finite t.lo.(j) then
        t.at_upper.(j) <- false
    end
  end

(* FTRAN of the sparse column of variable [q] into the [wcol] workspace,
   its nonzero positions into [w_nz]. *)
let ftran_col t q =
  for k = 0 to t.nw - 1 do
    t.wcol.(t.w_nz.(k)) <- 0.
  done;
  let n = ref 0 in
  for p = t.col_start.(q) to t.col_start.(q + 1) - 1 do
    t.wcol.(t.col_row.(p)) <- t.col_val.(p);
    t.w_nz.(!n) <- t.col_row.(p);
    incr n
  done;
  t.nw <- Sparse_lu.ftran t.lu t.wcol t.w_nz !n

let set_bounds t j ~lo ~hi =
  if j < 0 || j >= t.n then invalid_arg "Revised.set_bounds";
  (* Record the pre-change value once per variable: several changes
     between two solves must not double-count the x_B shift, and only
     the OLDEST value matters. *)
  if
    t.in_basis.(j) < 0
    && not (List.exists (fun (k, _) -> k = j) t.bound_deltas)
  then t.bound_deltas <- (j, nonbasic_value t j) :: t.bound_deltas;
  t.lo.(j) <- lo;
  t.hi.(j) <- hi

let bounds t j =
  if j < 0 || j >= t.n then invalid_arg "Revised.bounds";
  (t.lo.(j), t.hi.(j))

exception Done of status

(* Kernel split of the simplex iterations: microseconds spent in leaving-
   row pricing, the BTRAN of the pivot row of Binv, building the pivot
   row and its ratio test, the FTRAN of the entering column, and the
   dual / primal / devex / eta updates; the summed nonzero counts of
   rho, of the pivot row over nonbasic columns, and of the FTRAN
   column; and the row entries the pivot-row pass read.  Each solve
   adds its totals once, when it returns. *)
let m_price_us = Support.Metrics.counter "lp.simplex.price_us"
let m_btran_us = Support.Metrics.counter "lp.simplex.btran_us"
let m_row_us = Support.Metrics.counter "lp.simplex.row_us"
let m_ftran_us = Support.Metrics.counter "lp.simplex.ftran_us"
let m_update_us = Support.Metrics.counter "lp.simplex.update_us"
let m_rho_nnz = Support.Metrics.counter "lp.simplex.rho_nnz"
let m_alpha_nnz = Support.Metrics.counter "lp.simplex.alpha_nnz"
let m_w_nnz = Support.Metrics.counter "lp.simplex.w_nnz"
let m_row_reads = Support.Metrics.counter "lp.simplex.row_reads"

(* The L, U, eta and eta-index entries FTRAN and BTRAN read, search
   edges included, added once per solve. *)
let m_solve_reads = Support.Metrics.counter "lp.lu.solve_reads"

(* Zero the pivot-row workspace at the [n] columns in [row_cols]. *)
let clear_pivot_row t n =
  for k = 0 to n - 1 do
    let j = t.row_cols.(k) in
    t.alpha.(j) <- 0.;
    t.in_row.(j) <- false
  done

let solve ?(max_iters = 200_000) t =
  let lu_reads = ref 0 in
  (* Refactorize, recompute x_B and the duals from the fresh factors,
     and list every row for pricing. *)
  let refresh () =
    lu_reads := !lu_reads + Sparse_lu.take_reads t.lu;
    refactorize t;
    recompute_xb t;
    refresh_dvals t;
    all_candidates t
  in
  if not t.dvals_fresh then refresh_dvals t;
  (* Incremental restart: re-place the variables whose bounds changed,
     then shift x_B by the net value changes (one FTRAN each). *)
  if t.xb_fresh then
    List.iter
      (fun (j, old_value) ->
        if t.in_basis.(j) < 0 then begin
          fix_placement t j;
          let new_value = nonbasic_value t j in
          let delta = new_value -. old_value in
          if Float.abs delta > 1e-13 then begin
            ftran_col t j;
            for k = 0 to t.nw - 1 do
              let i = t.w_nz.(k) in
              t.xb.(i) <- t.xb.(i) -. (delta *. t.wcol.(i))
            done
          end
        end)
      t.bound_deltas
  else begin
    List.iter (fun (j, _) -> fix_placement t j) t.bound_deltas;
    recompute_xb t
  end;
  t.bound_deltas <- [];
  all_candidates t;
  t.iters <- 0;
  let price_s = ref 0. and btran_s = ref 0. and row_s = ref 0. in
  let ftran_s = ref 0. and update_s = ref 0. in
  let rho_nnz = ref 0 and alpha_nnz = ref 0 and w_nnz = ref 0 in
  let row_reads = ref 0 in
  let alpha = t.alpha and in_row = t.in_row and row_cols = t.row_cols in
  (try
     while true do
       if t.iters >= max_iters then raise (Done Iteration_limit);
       t.iters <- t.iters + 1;
       t.total_iters <- t.total_iters + 1;
       if Sparse_lu.should_refactorize t.lu then refresh ();
       let t0 = Clock.now () in
       (* Leaving variable: dual Devex pricing (Forrest-Goldfarb
          reference-framework weights, an approximation of steepest
          edge).  Among primal-infeasible basic variables, score each
          row by infeasibility^2 / weight, the estimate of infeasibility
          per unit of (dual) edge length. *)
       let r = ref (-1) in
       let best_score = ref 0. in
       let sigma = ref 1.0 in
       (* Only listed rows can be infeasible; a feasible one leaves the
          list.  The lowest row wins a tie, as in a sweep over every
          row by increasing index. *)
       let cand = t.cand and k = ref 0 in
       while !k < t.ncand do
         let i = Array.unsafe_get cand !k in
         let v = Array.unsafe_get t.basis i in
         let x = Array.unsafe_get t.xb i in
         let above = x > t.hi.(v) +. feas_tol in
         let infeas =
           if above then x -. t.hi.(v)
           else if x < t.lo.(v) -. feas_tol then t.lo.(v) -. x
           else 0.
         in
         if infeas > feas_tol then begin
           let score = infeas *. infeas /. Array.unsafe_get t.dw i in
           if score > !best_score || (score = !best_score && i < !r) then begin
             r := i;
             best_score := score;
             sigma := if above then 1.0 else -1.0
           end;
           incr k
         end
         else begin
           t.in_cand.(i) <- false;
           t.ncand <- t.ncand - 1;
           Array.unsafe_set cand !k (Array.unsafe_get cand t.ncand)
         end
       done;
       let t1 = Clock.now () in
       price_s := !price_s +. (t1 -. t0);
       if !r < 0 then raise (Done Optimal);
       let r = !r and sigma = !sigma in
       (* Pivot row of Binv: rho = e_r' Binv via one sparse BTRAN. *)
       let rho = t.rho in
       rho.(r) <- 1.0;
       t.rho_nz.(0) <- r;
       let nrho = Sparse_lu.btran t.lu rho t.rho_nz 1 in
       let t2 = Clock.now () in
       btran_s := !btran_s +. (t2 -. t1);
       (* Pivot row alpha_j = rho . a_j over the rows with rho_i <> 0,
          in increasing row order: each alpha_j adds the same nonzero
          products in the same order as a dot product down column j,
          and every column no such row reaches has alpha_j = 0. *)
       rho_nnz := !rho_nnz + nrho;
       let ntouched = ref 0 in
       for k = 0 to nrho - 1 do
         let i = Array.unsafe_get t.rho_nz k in
         let rho_i = Array.unsafe_get rho i in
         row_reads := !row_reads + t.row_start.(i + 1) - t.row_start.(i);
         for p = t.row_start.(i) to t.row_start.(i + 1) - 1 do
           let j = Array.unsafe_get t.row_col p in
           if not (Array.unsafe_get in_row j) then begin
             Array.unsafe_set in_row j true;
             Array.unsafe_set row_cols !ntouched j;
             incr ntouched
           end;
           Array.unsafe_set alpha j
             (Array.unsafe_get alpha j
             +. (rho_i *. Array.unsafe_get t.row_val p))
         done
       done;
       for k = 0 to nrho - 1 do
         Array.unsafe_set rho (Array.unsafe_get t.rho_nz k) 0.
       done;
       (* The ratio test breaks near-ties by scan order, so it scans the
          touched columns in increasing index order: sorted when they
          are few, gathered by a scan of [in_row] when they are many. *)
       let ncols = !ntouched in
       Sparse_lu.ascending row_cols ncols (t.n + t.m) (fun j -> in_row.(j));
       let best_j = ref (-1) in
       let best_ratio = ref infinity in
       let best_alpha = ref 0. in
       for k = 0 to ncols - 1 do
         let j = Array.unsafe_get row_cols k in
         if t.in_basis.(j) < 0 then begin
           let alpha_j = Array.unsafe_get alpha j in
           if alpha_j <> 0. then incr alpha_nnz;
           if t.lo.(j) < t.hi.(j) -. 1e-15 then begin
             let a = sigma *. alpha_j in
             let eligible =
               if t.at_upper.(j) then a < -.pivot_tol else a > pivot_tol
             in
             if eligible then begin
               let d = Array.unsafe_get t.dvals j in
               let ratio = Float.abs (d /. a) in
               if
                 ratio < !best_ratio -. 1e-12
                 || (ratio < !best_ratio +. 1e-12
                    && Float.abs a > Float.abs !best_alpha)
               then begin
                 best_j := j;
                 best_ratio := ratio;
                 best_alpha := alpha_j
               end
             end
           end
         end
       done;
       let t3 = Clock.now () in
       row_s := !row_s +. (t3 -. t2);
       if !best_j < 0 then begin
         clear_pivot_row t ncols;
         raise (Done Infeasible)
       end;
       let q = !best_j in
       (* Full entering column. *)
       ftran_col t q;
       let w = t.wcol and nw = t.nw in
       w_nnz := !w_nnz + nw;
       let t4 = Clock.now () in
       ftran_s := !ftran_s +. (t4 -. t3);
       if Float.abs w.(r) < pivot_tol then begin
         clear_pivot_row t ncols;
         (* The FTRAN image disagrees with the BTRAN-side alpha: the
            factors have drifted.  Refactorize and redo the iteration. *)
         if Sparse_lu.n_etas t.lu = 0 then
           failwith "Revised.solve: numerically singular pivot";
         refresh ()
       end
       else begin
         (* incremental dual update: d_j -= (d_q / alpha_q) * alpha_j;
            it leaves the columns outside the pivot row unchanged *)
         let theta = t.dvals.(q) /. alpha.(q) in
         if theta <> 0. then
           for k = 0 to ncols - 1 do
             let j = Array.unsafe_get row_cols k in
             if t.in_basis.(j) < 0 && j <> q then
               Array.unsafe_set t.dvals j
                 (Array.unsafe_get t.dvals j
                 -. (theta *. Array.unsafe_get alpha j))
           done;
         clear_pivot_row t ncols;
         let wr = w.(r) in
         let leaving = t.basis.(r) in
         let target =
           if sigma > 0. then t.hi.(leaving) else t.lo.(leaving)
         in
         let step = (t.xb.(r) -. target) /. wr in
         (* Update basic values. *)
         for k = 0 to nw - 1 do
           let i = Array.unsafe_get t.w_nz k in
           t.xb.(i) <- t.xb.(i) -. (step *. w.(i));
           add_candidate t i
         done;
         let entering_old = nonbasic_value t q in
         (* Absorb the basis change as a product-form eta. *)
         Sparse_lu.update t.lu ~r ~w ~nz:t.w_nz ~nnz:nw;
         (* Swap basis membership. *)
         t.basis.(r) <- q;
         t.in_basis.(q) <- r;
         t.in_basis.(leaving) <- -1;
         t.at_upper.(leaving) <- sigma > 0.;
         t.xb.(r) <- entering_old +. step;
         add_candidate t r;
         t.dvals.(leaving) <- -.theta;
         t.dvals.(q) <- 0.;
         (* Forrest-Goldfarb dual devex update: with gamma_r the old
            weight of the leaving row and w = Binv a_q the entering
            column, the new row-r weight is max(gamma_r / w_r^2, 1)
            and every other row takes max(gamma_i, (w_i/w_r)^2 *
            gamma_r).  When the reference framework has degraded
            (weights blown past 1e12) restart it from unit weights. *)
         let gr = t.dw.(r) /. (wr *. wr) in
         if gr > 1e12 then Array.fill t.dw 0 t.m 1.
         else begin
           for k = 0 to nw - 1 do
             let i = Array.unsafe_get t.w_nz k in
             if i <> r then begin
               let wi = Array.unsafe_get w i in
               let cand = wi *. wi *. gr in
               if cand > Array.unsafe_get t.dw i then
                 Array.unsafe_set t.dw i cand
             end
           done;
           t.dw.(r) <- Float.max gr 1.0
         end;
         update_s := !update_s +. Clock.since t4
       end
     done;
     assert false
   with Done s ->
     let us secs = int_of_float (secs *. 1e6) in
     Support.Metrics.add m_price_us (us !price_s);
     Support.Metrics.add m_btran_us (us !btran_s);
     Support.Metrics.add m_row_us (us !row_s);
     Support.Metrics.add m_ftran_us (us !ftran_s);
     Support.Metrics.add m_update_us (us !update_s);
     Support.Metrics.add m_rho_nnz !rho_nnz;
     Support.Metrics.add m_alpha_nnz !alpha_nnz;
     Support.Metrics.add m_w_nnz !w_nnz;
     Support.Metrics.add m_row_reads !row_reads;
     Support.Metrics.add m_solve_reads
       (!lu_reads + Sparse_lu.take_reads t.lu);
     s)

let primal t =
  let x = Array.make t.n 0. in
  for j = 0 to t.n - 1 do
    let pos = t.in_basis.(j) in
    x.(j) <- (if pos >= 0 then t.xb.(pos) else nonbasic_value t j)
  done;
  x

let objective t =
  let x = primal t in
  let acc = ref 0. in
  for j = 0 to t.n - 1 do
    acc := !acc +. (t.cost.(j) *. x.(j))
  done;
  !acc

let iterations t = t.total_iters
let factorizations t = t.factorizations
let num_rows t = t.m
