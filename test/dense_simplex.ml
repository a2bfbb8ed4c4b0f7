(* Textbook two-phase primal simplex on a dense tableau, in exact
   rational arithmetic ([Lp.Rat]).

   The test suite's reference solver: it favours clarity and exactness
   over speed, is immune to cycling thanks to Bland's rule, and is the
   cross-check for the production revised solver ([Lp.Revised]) and the
   presolver.  Problem sizes here are expected to be small (tens to a few
   hundred variables). *)

open Lp

type status = Optimal | Infeasible | Unbounded

type result = {
  status : status;
  objective : Rat.t; (* meaningful when Optimal *)
  solution : Rat.t array; (* values of the original problem variables *)
}

(* Internal standard form:  min c'y  s.t.  Ay = b, y >= 0, b >= 0. *)

type std = {
  ncols : int;
  nrows : int;
  a : Rat.t array array; (* nrows x ncols *)
  b : Rat.t array;
  c : Rat.t array;
  (* Mapping back: original var j has value
     offset_j + sum_k scale_k * y_{col_k}. *)
  recover : (Rat.t * (Rat.t * int) list) array;
}

(* Convert a [Problem.t] into standard form:
   - each variable is shifted/flipped/split so that it becomes one or two
     nonnegative columns;
   - finite upper bounds become extra [<=] rows;
   - every row gets a slack (Le), surplus (Ge) or nothing (Eq). *)
let standardize (p : Problem.t) =
  let nv = Problem.num_vars p in
  let ncols = ref 0 in
  let recover = Array.make nv (Rat.zero, []) in
  (* per original var: list of (coef, col) and constant offset s.t.
     x = offset + sum coef*y_col, with y >= 0 *)
  let var_expr = Array.make nv (Rat.zero, []) in
  let extra_ub_rows = ref [] in
  for j = 0 to nv - 1 do
    let lo = Problem.var_lo p j and hi = Problem.var_hi p j in
    if lo > hi then extra_ub_rows := `Contradiction :: !extra_ub_rows
    else if Float.is_finite lo then begin
      (* x = lo + y, y >= 0, y <= hi - lo (if finite) *)
      let col = !ncols in
      incr ncols;
      var_expr.(j) <- (Rat.of_float lo, [ (Rat.one, col) ]);
      if Float.is_finite hi then
        extra_ub_rows := `Ub (col, Rat.of_float (hi -. lo)) :: !extra_ub_rows
    end
    else if Float.is_finite hi then begin
      (* x = hi - y, y >= 0 *)
      let col = !ncols in
      incr ncols;
      var_expr.(j) <- (Rat.of_float hi, [ (Rat.neg Rat.one, col) ])
    end
    else begin
      (* free: x = y+ - y- *)
      let cp = !ncols and cm = !ncols + 1 in
      ncols := !ncols + 2;
      var_expr.(j) <- (Rat.zero, [ (Rat.one, cp); (Rat.neg Rat.one, cm) ])
    end
  done;
  Array.blit var_expr 0 recover 0 nv;
  (* Count rows: original rows + upper-bound rows. *)
  let ub_rows =
    List.filter_map (function `Ub x -> Some x | `Contradiction -> None)
      !extra_ub_rows
  in
  let contradiction =
    List.exists (function `Contradiction -> true | _ -> false) !extra_ub_rows
  in
  let orig_rows =
    List.init (Problem.num_rows p) (fun i ->
        ( Problem.row_sense p i,
          Problem.row_rhs p i,
          List.init
            (Problem.row_end p i - Problem.row_begin p i)
            (fun k ->
              let k = Problem.row_begin p i + k in
              (Problem.term_var p k, Problem.term_coef p k)) ))
  in
  let slack_count =
    List.length ub_rows
    + List.length
        (List.filter (fun (sense, _, _) -> sense <> Problem.Eq) orig_rows)
  in
  let nrows = List.length orig_rows + List.length ub_rows in
  let total_cols = !ncols + slack_count in
  let a = Array.make_matrix nrows total_cols Rat.zero in
  let b = Array.make nrows Rat.zero in
  let c = Array.make total_cols Rat.zero in
  (* Objective in terms of the new columns. *)
  for j = 0 to nv - 1 do
    let cj = Rat.of_float (Problem.var_obj p j) in
    if Rat.compare cj Rat.zero <> 0 then begin
      let _, terms = var_expr.(j) in
      List.iter
        (fun (coef, col) -> c.(col) <- Rat.add c.(col) (Rat.mul cj coef))
        terms
    end
  done;
  let slack = ref !ncols in
  let set_row i sense rhs terms =
    (* terms are (orig var, coef); expand through var_expr. *)
    let rhs = ref rhs in
    List.iter
      (fun (v, coef) ->
        let coef = Rat.of_float coef in
        let off, cols = var_expr.(v) in
        rhs := Rat.sub !rhs (Rat.mul coef off);
        List.iter
          (fun (scale, col) ->
            a.(i).(col) <- Rat.add a.(i).(col) (Rat.mul coef scale))
          cols)
      terms;
    (match sense with
    | Problem.Le ->
        a.(i).(!slack) <- Rat.one;
        incr slack
    | Problem.Ge ->
        a.(i).(!slack) <- Rat.neg Rat.one;
        incr slack
    | Problem.Eq -> ());
    b.(i) <- !rhs
  in
  List.iteri
    (fun i (sense, rhs, terms) -> set_row i sense (Rat.of_float rhs) terms)
    orig_rows;
  List.iteri
    (fun k (col, ub) ->
      let i = List.length orig_rows + k in
      a.(i).(col) <- Rat.one;
      a.(i).(!slack) <- Rat.one;
      incr slack;
      b.(i) <- ub)
    ub_rows;
  (* Make b >= 0 by row negation. *)
  for i = 0 to nrows - 1 do
    if Rat.compare b.(i) Rat.zero < 0 then begin
      b.(i) <- Rat.neg b.(i);
      for j = 0 to total_cols - 1 do
        a.(i).(j) <- Rat.neg a.(i).(j)
      done
    end
  done;
  ({ ncols = total_cols; nrows; a; b; c; recover }, contradiction)

(* Consecutive degenerate pivots tolerated under Dantzig pricing
   before falling back to Bland's rule. *)
let bland_trigger = 64

(* One phase of the simplex method on the extended tableau [t]
   (nrows x (ncols+1), last column = b), with basis array [basis] and
   cost row [cost] (ncols+1 wide, last entry = -z).

   Dantzig pricing enters the most negative reduced cost.  It can
   cycle on degenerate bases, so a streak of [bland_trigger]
   consecutive degenerate pivots flips pricing to Bland's
   smallest-index rule, whose finiteness guarantee breaks the cycle;
   the first nondegenerate step switches back.  Termination: every
   nondegenerate pivot strictly decreases the objective (and there are
   finitely many bases), and every all-degenerate stretch either ends
   within [bland_trigger] pivots or continues under Bland's rule,
   which provably terminates. *)
let run_phase t basis cost nrows ncols ~max_enter =
  let degen_streak = ref 0 in
  let rec iterate () =
    (* Artificial columns (j >= max_enter) are never allowed to enter:
       they start basic and once driven out must stay out, regardless of
       what pivoting does to their reduced costs. *)
    let entering = ref (-1) in
    if !degen_streak >= bland_trigger then (
      (* Bland: smallest index with negative reduced cost. *)
      try
        for j = 0 to max_enter - 1 do
          if Rat.compare cost.(j) Rat.zero < 0 then begin
            entering := j;
            raise Exit
          end
        done
      with Exit -> ())
    else begin
      (* Dantzig: most negative reduced cost, smallest index on ties. *)
      let bestc = ref Rat.zero in
      for j = 0 to max_enter - 1 do
        if Rat.compare cost.(j) !bestc < 0 then begin
          entering := j;
          bestc := cost.(j)
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let e = !entering in
      (* Ratio test, Bland ties: smallest basis var index. *)
      let leave = ref (-1) in
      let best = ref Rat.zero in
      for i = 0 to nrows - 1 do
        if Rat.compare t.(i).(e) Rat.zero > 0 then begin
          let ratio = Rat.div t.(i).(ncols) t.(i).(e) in
          if
            !leave < 0
            || Rat.compare ratio !best < 0
            || (Rat.compare ratio !best = 0 && basis.(i) < basis.(!leave))
          then begin
            leave := i;
            best := ratio
          end
        end
      done;
      if !leave < 0 then `Unbounded
      else begin
        let l = !leave in
        if Rat.is_zero !best then incr degen_streak else degen_streak := 0;
        (* Pivot on (l, e). *)
        let piv = t.(l).(e) in
        for j = 0 to ncols do
          t.(l).(j) <- Rat.div t.(l).(j) piv
        done;
        for i = 0 to nrows - 1 do
          if i <> l && not (Rat.is_zero t.(i).(e)) then begin
            let f = t.(i).(e) in
            for j = 0 to ncols do
              t.(i).(j) <- Rat.sub t.(i).(j) (Rat.mul f t.(l).(j))
            done
          end
        done;
        if not (Rat.is_zero cost.(e)) then begin
          let f = cost.(e) in
          for j = 0 to ncols do
            cost.(j) <- Rat.sub cost.(j) (Rat.mul f t.(l).(j))
          done
        end;
        basis.(l) <- e;
        iterate ()
      end
    end
  in
  iterate ()

let solve (p : Problem.t) =
  let std, contradiction = standardize p in
  let nv = Problem.num_vars p in
  let fail status =
    { status; objective = Rat.zero; solution = Array.make nv Rat.zero }
  in
  if contradiction then fail Infeasible
  else begin
    let m = std.nrows and n = std.ncols in
    (* Extended tableau with artificials: columns [0,n) structural+slack,
       [n, n+m) artificial, column n+m = rhs. *)
    let width = n + m in
    let t = Array.make_matrix m (width + 1) Rat.zero in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        t.(i).(j) <- std.a.(i).(j)
      done;
      t.(i).(n + i) <- Rat.one;
      t.(i).(width) <- std.b.(i)
    done;
    let basis = Array.init m (fun i -> n + i) in
    (* Phase-1 cost row: minimize sum of artificials; start reduced. *)
    let cost1 = Array.make (width + 1) Rat.zero in
    for j = 0 to width - 1 do
      if j >= n then cost1.(j) <- Rat.zero
      else begin
        (* reduced cost of column j = -(sum of rows) since artificial
           basis has cost 1 each *)
        let s = ref Rat.zero in
        for i = 0 to m - 1 do
          s := Rat.add !s t.(i).(j)
        done;
        cost1.(j) <- Rat.neg !s
      end
    done;
    let z1 = ref Rat.zero in
    for i = 0 to m - 1 do
      z1 := Rat.add !z1 t.(i).(width)
    done;
    cost1.(width) <- Rat.neg !z1;
    (match run_phase t basis cost1 m width ~max_enter:n with
    | `Unbounded -> failwith "dense_simplex: phase 1 unbounded (impossible)"
    | `Optimal -> ());
    (* Infeasible if phase-1 optimum > 0. *)
    let phase1_obj = Rat.neg cost1.(width) in
    if Rat.compare phase1_obj Rat.zero > 0 then
      fail Infeasible
    else begin
      (* Drive any artificial still in the basis out (degenerate). *)
      for i = 0 to m - 1 do
        if basis.(i) >= n then begin
          (* find a structural column with nonzero entry in this row *)
          let found = ref (-1) in
          (try
             for j = 0 to n - 1 do
               if not (Rat.is_zero t.(i).(j)) then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          match !found with
          | -1 -> () (* redundant row; leave artificial at zero *)
          | e ->
              let piv = t.(i).(e) in
              for j = 0 to width do
                t.(i).(j) <- Rat.div t.(i).(j) piv
              done;
              for i' = 0 to m - 1 do
                if i' <> i && not (Rat.is_zero t.(i').(e)) then begin
                  let f = t.(i').(e) in
                  for j = 0 to width do
                    t.(i').(j) <- Rat.sub t.(i').(j) (Rat.mul f t.(i).(j))
                  done
                end
              done;
              basis.(i) <- e
        end
      done;
      (* Phase-2 cost row: original costs, reduced w.r.t. current basis.
         Artificial columns are forbidden (treat as +inf cost: zero them
         and never let them enter by giving them cost 0 but blocking). *)
      let cost2 = Array.make (width + 1) Rat.zero in
      for j = 0 to n - 1 do
        cost2.(j) <- std.c.(j)
      done;
      (* Reduce: subtract basis costs. *)
      for i = 0 to m - 1 do
        let cb = if basis.(i) < n then std.c.(basis.(i)) else Rat.zero in
        if not (Rat.is_zero cb) then
          for j = 0 to width do
            cost2.(j) <- Rat.sub cost2.(j) (Rat.mul cb t.(i).(j))
          done
      done;
      match run_phase t basis cost2 m width ~max_enter:n with
      | `Unbounded -> fail Unbounded
      | `Optimal ->
          let y = Array.make width Rat.zero in
          for i = 0 to m - 1 do
            if basis.(i) < width then y.(basis.(i)) <- t.(i).(width)
          done;
          let solution =
            Array.init nv (fun j ->
                let off, terms = std.recover.(j) in
                List.fold_left
                  (fun acc (coef, col) -> Rat.add acc (Rat.mul coef y.(col)))
                  off terms)
          in
          let objective = ref Rat.zero in
          Array.iteri
            (fun j v ->
              let cj = Rat.of_float (Problem.var_obj p j) in
              objective := Rat.add !objective (Rat.mul cj v))
            solution;
          { status = Optimal; objective = !objective; solution }
    end
  end
