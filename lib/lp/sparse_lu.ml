(* Sparse LU factorization of a simplex basis, with product-form eta
   updates between refactorizations.

   The revised simplex needs four operations against the basis matrix B
   (whose columns are the sparse constraint columns of the basic
   variables):

     FTRAN:  solve B x = b        (entering column, x_B recomputation)
     BTRAN:  solve B' y = c       (dual values, pivot rows of Binv)
     UPDATE: replace column r of B by a new column a_q
     REFACTORIZE: rebuild the factors from the current basis

   B is factored as

     E B = U        (Gaussian elimination, Markowitz-ordered pivoting)

   where E is the product of the recorded elementary row operations
   (stored column-wise per elimination step, [l_*]) and U is the sparse
   upper-triangular matrix of pivot rows (stored row-wise per step,
   [u_*], with entries indexed by *elimination step* of their column,
   and its structure also column-wise, [ut_*]).  Both are flat
   index/value arrays, so the solves read no boxed entries, and the L
   passes skip the steps with no multipliers.  Slack columns are unit
   vectors, and the structural columns of the allocation models are
   short, so the greedy singleton-first Markowitz order dissolves almost
   the whole basis with no fill-in; only a small "bump" needs real
   elimination.

   Column replacements are absorbed as product-form etas: replacing
   column r by a_q multiplies B on the right by the eta matrix E_r that
   is the identity except for column r = w, where w = B^-1 a_q (the
   FTRAN of the entering column, which the simplex iteration has already
   computed).  FTRAN applies the eta file oldest-to-newest after the LU
   solve; BTRAN applies it newest-to-oldest before the LU solve.  An
   update is O(nnz w) and leaves L and U alone; the caller refactorizes
   once the eta file is long, every few dozen pivots.

   The solves are hypersparse: a right-hand side with a few nonzeros
   reaches a few elimination steps, and FTRAN and BTRAN touch only
   those.  Both take the vector's nonzero positions and return them.  A
   depth-first search over U's structure (Gilbert-Peierls) finds the
   steps the nonzeros reach; FTRAN computes each reached step's U row as
   a dot product in stored entry order, in a topological order of the
   reach, and BTRAN pushes each reached step's U row in ascending step
   order.  Every sum therefore adds the same products in the same order
   as a pass over all m steps would, so every result is bit-identical
   to the dense solves (the sign of a zero aside). *)

exception Singular

type eta = {
  e_r : int; (* basis position whose column was replaced *)
  e_wr : float; (* w_r, the pivot element of the replacement *)
  e_idx : int array; (* positions i <> r with |w_i| > drop, descending *)
  e_val : float array; (* w_i, parallel to [e_idx] *)
  e_rnext : int; (* the links that follow position r's ... *)
  e_next : int array; (* ... and each [e_idx] position's in [eta_head] *)
  mutable e_stamp : int; (* BTRAN applies the eta when it is [t.stamp] *)
}

(* L and U are stored compressed by elimination step: step k's entries
   are [start.(k)] .. [start.(k+1) - 1] of parallel index/value arrays. *)
type t = {
  m : int;
  pr : int array; (* elimination step -> pivot row *)
  pc : int array; (* elimination step -> pivot column (basis position) *)
  step_of_row : int array; (* inverse of [pr] *)
  step_of_pos : int array; (* inverse of [pc] *)
  pivots : float array; (* elimination step -> pivot value *)
  l_start : int array; (* length m+1 *)
  l_row : int array; (* row of each multiplier *)
  l_mult : float array;
  l_steps : int array; (* the steps whose L column is not empty, ascending *)
  u_start : int array; (* length m+1 *)
  u_step : int array; (* later elimination step of each U entry *)
  u_val : float array;
  ut_start : int array; (* length m+1 *)
  ut_step : int array; (* U by columns: the earlier steps whose row holds
                          step l, ascending *)
  lu_nnz : int;
  etas : eta Support.Vec.t;
  mutable eta_nnz : int;
  (* The etas each position takes part in, newest first: position i's
     list starts at link [eta_head.(i)].  Link [id * (m + 1) + q + 1]
     stands for entry q of eta [id], q = -1 for its position r, and the
     list goes on at that entry's [e_rnext] or [e_next.(q)]; -1 ends
     it. *)
  eta_head : int array;
  (* Solve workspace.  [ws] is zero between solves.  A step is reached
     by the current search when its [visit] equals [stamp], and an index
     is listed when its [mark] does; [stamp] grows by one per list, so
     neither array is ever cleared. *)
  ws : float array; (* step-space values, length m *)
  visit : int array;
  mark : int array;
  mutable stamp : int;
  reach : int array; (* the reached steps *)
  stack : int array; (* depth-first search: steps ... *)
  next : int array; (* ... and the next edge of each *)
  mutable reads : int; (* L, U, eta and eta-index entries the solves
                          read, the search's edges included *)
}

let drop_tol = 1e-13
let abs_pivot_tol = 1e-11
let rel_pivot_tol = 0.1 (* threshold pivoting within the chosen column *)

(* Quicksort a.(lo) .. a.(hi - 1) into runs of at most 16 entries,
   each run below the next, pivoting on a median of three.  Past
   [depth] levels a range is heap-sorted, so no input costs more than
   O(depth n + n log n). *)
let rec quick_runs (a : int array) lo hi depth =
  if hi - lo > 16 then
    if depth = 0 then begin
      let s = Array.sub a lo (hi - lo) in
      Array.sort Int.compare s;
      Array.blit s 0 a lo (hi - lo)
    end
    else begin
      let x = a.(lo) and y = a.((lo + hi) / 2) and z = a.(hi - 1) in
      let pivot = Int.max (Int.min x y) (Int.min (Int.max x y) z) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while a.(!i) < pivot do
          incr i
        done;
        while a.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          let t = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- t;
          incr i;
          decr j
        end
      done;
      quick_runs a lo (!j + 1) (depth - 1);
      quick_runs a !i hi (depth - 1)
    end

(* Sort a.(0) .. a.(n - 1) ascending: quicksort into short runs, then
   one insertion sort, which moves no entry out of its run. *)
let sort_prefix (a : int array) n =
  quick_runs a 0 n 64;
  for q = 1 to n - 1 do
    let x = a.(q) in
    let p = ref (q - 1) in
    while !p >= 0 && a.(!p) > x do
      a.(!p + 1) <- a.(!p);
      decr p
    done;
    a.(!p + 1) <- x
  done

(* [a] if it has room for [n] elements, else a copy at least half as
   long again, padded with [fill]. *)
let ensure a n fill =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (max n (len + (len / 2))) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* Resolved once at module initialization; [Metrics.reset] keeps the
   handle valid. *)
let h_factorize_us = Support.Metrics.histogram "lp.lu.factorize_us"
let m_search_reads = Support.Metrics.counter "lp.lu.search_reads"
let m_l_nnz = Support.Metrics.counter "lp.lu.l_nnz"
let m_u_nnz = Support.Metrics.counter "lp.lu.u_nnz"

(* [factorize m column] factors the m x m matrix whose [j]-th column has
   the entries that [column j f] passes to [f row value]; a row passed
   twice gets the sum, and zeros are skipped.  [column] is called twice
   per column and must pass the same entries both times.  Raises
   [Singular] when no acceptable pivot remains.  Each successful call
   records its duration in the [lp.lu.factorize_us] histogram and adds
   the count-list entries its pivot search read to [lp.lu.search_reads]
   and the off-diagonal entries of L and U to [lp.lu.l_nnz] and
   [lp.lu.u_nnz].

   The order is written down, because it decides which of several equal
   pivots wins and the order U rows are summed in, and so which of
   several equal-cost optima the simplex reaches:

   - a column lists its rows in the order [column j] passed them, a
     duplicate summed in place; a row lists its columns ascending.
     Fill-in goes at the end of both, and a cancelled entry leaves its
     column with the rest kept in order;
   - columns sit in doubly-linked lists by entry count, each built in
     ascending column index; a column whose count an elimination changes
     moves to the front of its new list, and a pivoted column leaves;
   - the search reads the lists by ascending count, each front to back;
   - within a column, the pivot has the fewest row entries, then the
     largest magnitude, then comes first in the column;
   - L column k and U row k keep the pivot column's and pivot row's
     order. *)
let factorize m column =
  let t0 = Clock.now () in
  (* Active submatrix.  Column j holds rows [c_row] and values [c_val]
     at [c_beg.(j)] .. [c_beg.(j) + colcnt.(j) - 1], in a slot with room
     for [c_cap.(j)]; [colcnt.(j)] is -1 once column j is pivoted.  Row
     i holds columns [r_col] at [r_beg.(i)] .. [r_beg.(i) + r_len.(i) -
     1], in a slot with room for [r_cap.(i)]; [rowcnt.(i)] of them are
     live, the rest are pivoted columns or -1.  A full slot moves to the
     end of its arena, a row slot dropping its dead entries on the way;
     the arenas start a quarter larger than their entries, room for the
     few slots that fill-in moves.  [where.(r)] is row r's offset in the
     column being built or eliminated, and -1 otherwise. *)
  let nnz = ref 0 in
  for j = 0 to m - 1 do
    column j (fun _ v -> if v <> 0. then incr nnz)
  done;
  let room n = n + (n / 4) + 64 in
  let c_row = ref (Array.make (room !nnz) 0) in
  let c_val = ref (Array.make (room !nnz) 0.) in
  let c_beg = Array.make m 0 and c_cap = Array.make m 0 in
  let colcnt = Array.make m 0 in
  let where = Array.make m (-1) in
  let c_top = ref 0 in
  for j = 0 to m - 1 do
    let base = !c_top in
    c_beg.(j) <- base;
    column j (fun i v ->
        if v <> 0. then begin
          let q = where.(i) in
          if q >= 0 then !c_val.(base + q) <- !c_val.(base + q) +. v
          else begin
            let n = colcnt.(j) in
            !c_row.(base + n) <- i;
            !c_val.(base + n) <- v;
            where.(i) <- n;
            colcnt.(j) <- n + 1
          end
        end);
    let n = colcnt.(j) in
    for p = base to base + n - 1 do
      where.(!c_row.(p)) <- -1
    done;
    c_cap.(j) <- n;
    c_top := base + n
  done;
  let rowcnt = Array.make m 0 in
  for p = 0 to !c_top - 1 do
    let i = !c_row.(p) in
    rowcnt.(i) <- rowcnt.(i) + 1
  done;
  let r_beg = Array.make m 0 and r_len = Array.make m 0 in
  let r_cap = Array.copy rowcnt in
  for i = 1 to m - 1 do
    r_beg.(i) <- r_beg.(i - 1) + rowcnt.(i - 1)
  done;
  let r_col = ref (Array.make (room !c_top) 0) in
  let r_top = ref !c_top in
  for j = 0 to m - 1 do
    for p = c_beg.(j) to c_beg.(j) + colcnt.(j) - 1 do
      let i = !c_row.(p) in
      !r_col.(r_beg.(i) + r_len.(i)) <- j;
      r_len.(i) <- r_len.(i) + 1
    done
  done;
  (* Move column j's first [len] entries to a slot of [cap] at the end
     of the arena. *)
  let move_col j len cap =
    let base = !c_top in
    c_row := ensure !c_row (base + cap) 0;
    c_val := ensure !c_val (base + cap) 0.;
    Array.blit !c_row c_beg.(j) !c_row base len;
    Array.blit !c_val c_beg.(j) !c_val base len;
    c_beg.(j) <- base;
    c_cap.(j) <- cap;
    c_top := base + cap
  in
  let row_push i j =
    if r_len.(i) = r_cap.(i) then begin
      let cap = (2 * rowcnt.(i)) + 4 in
      let base = !r_top in
      r_col := ensure !r_col (base + cap) 0;
      let cols = !r_col and n = ref 0 in
      for p = r_beg.(i) to r_beg.(i) + r_len.(i) - 1 do
        let c = cols.(p) in
        if c >= 0 && colcnt.(c) >= 0 then begin
          cols.(base + !n) <- c;
          incr n
        end
      done;
      r_beg.(i) <- base;
      r_len.(i) <- !n;
      r_cap.(i) <- cap;
      r_top := base + cap
    end;
    !r_col.(r_beg.(i) + r_len.(i)) <- j;
    r_len.(i) <- r_len.(i) + 1
  in
  let row_remove i j =
    let cols = !r_col in
    let p = ref r_beg.(i) in
    while cols.(!p) <> j do
      incr p
    done;
    cols.(!p) <- -1
  in
  (* Count lists: [head.(c)] is the first column with c entries, and
     [next] and [prev] link the columns of a list; -1 ends them. *)
  let head = Array.make (m + 1) (-1) in
  let next = Array.make m (-1) and prev = Array.make m (-1) in
  let link j =
    let c = colcnt.(j) in
    prev.(j) <- -1;
    next.(j) <- head.(c);
    if head.(c) >= 0 then prev.(head.(c)) <- j;
    head.(c) <- j
  in
  let unlink j c =
    if prev.(j) >= 0 then next.(prev.(j)) <- next.(j) else head.(c) <- next.(j);
    if next.(j) >= 0 then prev.(next.(j)) <- prev.(j)
  in
  for j = m - 1 downto 0 do
    link j
  done;
  (* Best threshold-acceptable pivot in column [j], preferring short
     rows, then large values, then the earlier entry; found when
     [best_in_col] returns true, as row [bi], value [bv] and row count
     [bc]. *)
  let bi = ref 0 and bv = ref 0. and bc = ref 0 in
  let best_in_col j =
    let rows = !c_row and vals = !c_val in
    let base = c_beg.(j) and n = colcnt.(j) in
    let colmax = ref 0. in
    for p = base to base + n - 1 do
      colmax := Float.max (Float.abs vals.(p)) !colmax
    done;
    if !colmax < abs_pivot_tol then false
    else begin
      let thresh = rel_pivot_tol *. !colmax in
      let found = ref false in
      for p = base to base + n - 1 do
        let v = vals.(p) in
        let av = Float.abs v in
        if av >= thresh then begin
          let i = rows.(p) in
          let rc = rowcnt.(i) in
          if
            (not !found) || rc < !bc || (rc = !bc && av > Float.abs !bv)
          then begin
            found := true;
            bi := i;
            bv := v;
            bc := rc
          end
        end
      done;
      !found
    end
  in
  (* Markowitz pivot selection: read the count lists by increasing
     count, stop at the first zero-cost candidate, after four
     candidates, or at the end of the first list that had one (partial
     pricing of pivots, GLPK-style).  [reads] counts the list entries
     read.  The choice is column [sel_j], row [sel_i], value [sel_v]. *)
  let reads = ref 0 in
  let sel_j = ref (-1) and sel_i = ref 0 and sel_v = ref 0. in
  let sel_cost = ref 0 in
  let select () =
    sel_j := -1;
    let ncand = ref 0 in
    let stop = ref false in
    let c = ref 1 in
    while (not !stop) && !c <= m do
      let j = ref head.(!c) in
      while (not !stop) && !j >= 0 do
        incr reads;
        if best_in_col !j then begin
          let cost = (!c - 1) * (!bc - 1) in
          if !sel_j < 0 || cost < !sel_cost then begin
            sel_cost := cost;
            sel_j := !j;
            sel_i := !bi;
            sel_v := !bv
          end;
          incr ncand;
          if cost = 0 || !ncand >= 4 then stop := true
        end;
        j := next.(!j)
      done;
      if !sel_j >= 0 then stop := true;
      incr c
    done;
    !sel_j >= 0
  in
  (* L and U are appended in step order; U entries name their column
     until the last step fixes every column's step.  U has about one
     entry per off-diagonal entry of B. *)
  let l_start = Array.make (m + 1) 0 and u_start = Array.make (m + 1) 0 in
  let l_row = ref (Array.make 64 0) and l_mult = ref (Array.make 64 0.) in
  let u_col = ref (Array.make (room (max 0 (!c_top - m))) 0) in
  let u_val = ref (Array.make (room (max 0 (!c_top - m))) 0.) in
  let l_len = ref 0 and u_len = ref 0 in
  (* Eliminate pivot row [i] from column [j] with the multipliers at
     [lb] .. [le - 1] of the L arrays.  The column's entry in row i
     leaves the active submatrix as the next U entry. *)
  let eliminate j i lb le =
    let c0 = colcnt.(j) and base = c_beg.(j) in
    let rows = !c_row and vals = !c_val in
    let q = ref base in
    while rows.(!q) <> i do
      incr q
    done;
    let u = vals.(!q) in
    !u_col.(!u_len) <- j;
    !u_val.(!u_len) <- u;
    incr u_len;
    for p = !q to base + c0 - 2 do
      rows.(p) <- rows.(p + 1);
      vals.(p) <- vals.(p + 1)
    done;
    colcnt.(j) <- c0 - 1;
    if lb < le then begin
      let base = ref base and len = ref (c0 - 1) in
      for q = 0 to !len - 1 do
        where.(rows.(!base + q)) <- q
      done;
      let lrow = !l_row and lmult = !l_mult in
      for p = lb to le - 1 do
        let r = lrow.(p) in
        let delta = -.(lmult.(p) *. u) in
        let q = where.(r) in
        if q >= 0 then begin
          let nv = !c_val.(!base + q) +. delta in
          if Float.abs nv <= drop_tol then begin
            !c_row.(!base + q) <- -1;
            where.(r) <- -1;
            colcnt.(j) <- colcnt.(j) - 1;
            row_remove r j;
            rowcnt.(r) <- rowcnt.(r) - 1
          end
          else !c_val.(!base + q) <- nv
        end
        else if Float.abs delta > drop_tol then begin
          if !len = c_cap.(j) then begin
            move_col j !len ((2 * !len) + 4);
            base := c_beg.(j)
          end;
          !c_row.(!base + !len) <- r;
          !c_val.(!base + !len) <- delta;
          where.(r) <- !len;
          incr len;
          colcnt.(j) <- colcnt.(j) + 1;
          row_push r j;
          rowcnt.(r) <- rowcnt.(r) + 1
        end
      done;
      (* close the gaps left by cancelled rows, keeping the order *)
      let rows = !c_row and vals = !c_val and w = ref !base in
      for p = !base to !base + !len - 1 do
        let r = rows.(p) in
        if r >= 0 then begin
          where.(r) <- -1;
          rows.(!w) <- r;
          vals.(!w) <- vals.(p);
          incr w
        end
      done
    end;
    if colcnt.(j) <> c0 then begin
      unlink j c0;
      link j
    end
  in
  let pr = Array.make m (-1) in
  let pc = Array.make m (-1) in
  let pivots = Array.make m 0. in
  for k = 0 to m - 1 do
    if not (select ()) then raise Singular;
    let j = !sel_j and i = !sel_i and piv = !sel_v in
    pr.(k) <- i;
    pc.(k) <- j;
    pivots.(k) <- piv;
    unlink j colcnt.(j);
    (* L column k: the pivot column's other rows; they leave the row
       counts with it *)
    let base = c_beg.(j) and n = colcnt.(j) in
    let rows = !c_row and vals = !c_val in
    l_start.(k) <- !l_len;
    l_row := ensure !l_row (!l_len + n) 0;
    l_mult := ensure !l_mult (!l_len + n) 0.;
    for p = base to base + n - 1 do
      let r = rows.(p) in
      if r <> i then begin
        !l_row.(!l_len) <- r;
        !l_mult.(!l_len) <- vals.(p) /. piv;
        incr l_len;
        rowcnt.(r) <- rowcnt.(r) - 1
      end
    done;
    colcnt.(j) <- -1;
    (* U row k: the pivot row's other columns, each with the pivot row
       eliminated from it.  Fill-in moves other rows' slots, never row
       i's. *)
    u_start.(k) <- !u_len;
    u_col := ensure !u_col (!u_len + r_len.(i)) 0;
    u_val := ensure !u_val (!u_len + r_len.(i)) 0.;
    for p = r_beg.(i) to r_beg.(i) + r_len.(i) - 1 do
      let c = !r_col.(p) in
      if c >= 0 && colcnt.(c) >= 0 then eliminate c i l_start.(k) !l_len
    done
  done;
  l_start.(m) <- !l_len;
  u_start.(m) <- !u_len;
  (* Remap U entries from columns to elimination steps, so back
     substitution indexes the step-space solution vector directly. *)
  let step_of_pos = where (* no longer needed for offsets *) in
  Array.iteri (fun k j -> step_of_pos.(j) <- k) pc;
  let step_of_row = Array.make m 0 in
  Array.iteri (fun k i -> step_of_row.(i) <- k) pr;
  let u_step = Array.init !u_len (fun p -> step_of_pos.(!u_col.(p))) in
  (* U's transpose structure, for FTRAN's search *)
  let ut_start = Array.make (m + 1) 0 in
  Array.iter (fun l -> ut_start.(l + 1) <- ut_start.(l + 1) + 1) u_step;
  for l = 0 to m - 1 do
    ut_start.(l + 1) <- ut_start.(l + 1) + ut_start.(l)
  done;
  let ut_step = Array.make !u_len 0 in
  let fill = Array.sub ut_start 0 m in
  for k = 0 to m - 1 do
    for p = u_start.(k) to u_start.(k + 1) - 1 do
      let l = u_step.(p) in
      ut_step.(fill.(l)) <- k;
      fill.(l) <- fill.(l) + 1
    done
  done;
  let n_lsteps = ref 0 in
  for k = 0 to m - 1 do
    if l_start.(k + 1) > l_start.(k) then incr n_lsteps
  done;
  let l_steps = Array.make !n_lsteps 0 in
  n_lsteps := 0;
  for k = 0 to m - 1 do
    if l_start.(k + 1) > l_start.(k) then begin
      l_steps.(!n_lsteps) <- k;
      incr n_lsteps
    end
  done;
  Support.Metrics.observe h_factorize_us (Clock.since t0 *. 1e6);
  Support.Metrics.add m_search_reads !reads;
  Support.Metrics.add m_l_nnz !l_len;
  Support.Metrics.add m_u_nnz !u_len;
  {
    m;
    pr;
    pc;
    step_of_row;
    step_of_pos;
    pivots;
    l_start;
    l_row = Array.sub !l_row 0 !l_len;
    l_mult = Array.sub !l_mult 0 !l_len;
    l_steps;
    u_start;
    u_step;
    u_val = Array.sub !u_val 0 !u_len;
    ut_start;
    ut_step;
    lu_nnz = m + !l_len + !u_len;
    etas = Support.Vec.create ();
    eta_nnz = 0;
    eta_head = Array.make m (-1);
    ws = Array.make m 0.;
    visit = Array.make m 0;
    mark = Array.make m 0;
    stamp = 0;
    reach = Array.make m 0;
    stack = Array.make m 0;
    next = Array.make m 0;
    reads = 0;
  }

let n_etas t = Support.Vec.length t.etas

(* Depth-first search from step [root] along [adj]: step l's edges are
   [adj.(adj_start.(l))] .. [adj.(adj_start.(l + 1) - 1)].  Each step
   not yet reached in this solve is marked and appended to [reach], from
   [nr] on, after every step it leads to (postorder); returns the new
   count.  The edges of every reached step are read once. *)
let search t adj_start adj root nr =
  let visit = t.visit and stamp = t.stamp in
  if visit.(root) = stamp then nr
  else begin
    let stack = t.stack and next = t.next and reach = t.reach in
    let nr = ref nr and top = ref 0 and reads = ref 0 in
    visit.(root) <- stamp;
    stack.(0) <- root;
    next.(0) <- adj_start.(root);
    while !top >= 0 do
      let k = Array.unsafe_get stack !top in
      let p = Array.unsafe_get next !top in
      if p < Array.unsafe_get adj_start (k + 1) then begin
        Array.unsafe_set next !top (p + 1);
        let l = Array.unsafe_get adj p in
        if Array.unsafe_get visit l <> stamp then begin
          Array.unsafe_set visit l stamp;
          incr top;
          Array.unsafe_set stack !top l;
          Array.unsafe_set next !top (Array.unsafe_get adj_start l)
        end
      end
      else begin
        reads := !reads + p - Array.unsafe_get adj_start k;
        Array.unsafe_set reach !nr k;
        incr nr;
        decr top
      end
    done;
    t.reads <- t.reads + !reads;
    !nr
  end

(* Start a new list: no index is marked. *)
let new_list t =
  t.stamp <- t.stamp + 1;
  t.stamp

(* List index [i] at [nz.(n)] unless it is marked; returns the new
   length. *)
let add t nz n i =
  if Array.unsafe_get t.mark i = t.stamp then n
  else begin
    Array.unsafe_set t.mark i t.stamp;
    Array.unsafe_set nz n i;
    n + 1
  end

(* Put in ascending order the [n] indices at the front of [idx], which
   are exactly the indices below [m] that [mem] accepts: sorted when
   16 n < m, else gathered by a scan of every index.  The factor was
   measured on AES and NAT; 8 and 32 did no better. *)
let ascending idx n m mem =
  if n * 16 < m then sort_prefix idx n
  else begin
    let k = ref 0 in
    for i = 0 to m - 1 do
      if mem i then begin
        Array.unsafe_set idx !k i;
        incr k
      end
    done
  end

(* [nz]'s first [n] entries list, without repeats, every index where [v]
   may be nonzero.  Replace them by exactly the indices of [v]'s
   nonzeros, ascending, and return how many there are, by the rule of
   [ascending]; written out, because a closure call per scanned index
   costs FTRAN measurably. *)
let nonzeros_ascending v nz n =
  let k = ref 0 in
  if n * 16 < Array.length v then begin
    for p = 0 to n - 1 do
      let i = Array.unsafe_get nz p in
      if Array.unsafe_get v i <> 0. then begin
        Array.unsafe_set nz !k i;
        incr k
      end
    done;
    sort_prefix nz !k
  end
  else
    for i = 0 to Array.length v - 1 do
      if Array.unsafe_get v i <> 0. then begin
        Array.unsafe_set nz !k i;
        incr k
      end
    done;
  !k

(* FTRAN: overwrite the row-space vector [b] with x = B^-1 b, in basis-
   position space.  On entry the first [nnz] entries of [nz] list,
   without repeats, every row where [b] may be nonzero; on return they
   are x's nonzero positions, ascending, and the new count is returned.
   [nz] must have room for m entries.

   Each row of E b takes its multiples in ascending step order, as in a
   pass over every step with multipliers.  U x = E b is solved over the
   steps the nonzeros of E b reach along U's columns, each as a dot
   product of its U row in stored order, in reverse postorder of the
   search: every step after the steps its row reads. *)
let ftran t b nz nnz =
  let stamp = new_list t in
  let mark = t.mark in
  for p = 0 to nnz - 1 do
    mark.(nz.(p)) <- stamp
  done;
  let n = ref nnz and reads = ref 0 in
  (* forward elimination: b := E b *)
  let l_start = t.l_start and l_row = t.l_row and l_mult = t.l_mult in
  for s = 0 to Array.length t.l_steps - 1 do
    let k = Array.unsafe_get t.l_steps s in
    let tv = Array.unsafe_get b t.pr.(k) in
    if tv <> 0. then begin
      reads := !reads + l_start.(k + 1) - l_start.(k);
      for p = l_start.(k) to l_start.(k + 1) - 1 do
        let r = Array.unsafe_get l_row p in
        Array.unsafe_set b r
          (Array.unsafe_get b r -. (Array.unsafe_get l_mult p *. tv));
        n := add t nz !n r
      done
    end
  done;
  (* back substitution over the reach: U xs = b, xs by step *)
  let nr = ref 0 in
  for p = 0 to !n - 1 do
    nr := search t t.ut_start t.ut_step t.step_of_row.(nz.(p)) !nr
  done;
  let xs = t.ws and reach = t.reach in
  let u_start = t.u_start and u_step = t.u_step and u_val = t.u_val in
  for q = !nr - 1 downto 0 do
    let k = Array.unsafe_get reach q in
    let r = t.pr.(k) in
    let s = ref b.(r) in
    b.(r) <- 0.;
    reads := !reads + u_start.(k + 1) - u_start.(k);
    for p = u_start.(k) to u_start.(k + 1) - 1 do
      s :=
        !s
        -. (Array.unsafe_get u_val p
           *. Array.unsafe_get xs (Array.unsafe_get u_step p))
    done;
    xs.(k) <- !s /. t.pivots.(k)
  done;
  (* scatter into basis-position space *)
  ignore (new_list t);
  n := 0;
  for q = 0 to !nr - 1 do
    let k = Array.unsafe_get reach q in
    let x = xs.(k) in
    if x <> 0. then begin
      let j = t.pc.(k) in
      b.(j) <- x;
      n := add t nz !n j
    end;
    xs.(k) <- 0.
  done;
  (* eta file, oldest to newest *)
  for idx = 0 to Support.Vec.length t.etas - 1 do
    let e = Support.Vec.get t.etas idx in
    let br = b.(e.e_r) in
    if br <> 0. then begin
      let xr = br /. e.e_wr in
      b.(e.e_r) <- xr;
      if xr <> 0. then begin
        reads := !reads + Array.length e.e_idx;
        for p = 0 to Array.length e.e_idx - 1 do
          let i = Array.unsafe_get e.e_idx p in
          Array.unsafe_set b i
            (Array.unsafe_get b i -. (Array.unsafe_get e.e_val p *. xr));
          n := add t nz !n i
        done
      end
    end
  done;
  t.reads <- t.reads + !reads;
  nonzeros_ascending b nz !n

(* BTRAN: overwrite the basis-position-space vector [c] with the row-
   space solution y of y' B = c'.  [nz] and [nnz] list [c]'s nonzeros
   and the return value and [nz] list y's, as in [ftran].

   U' v = c is solved over the steps the nonzeros of c reach along U's
   rows, pushing each reached step's U row in ascending step order, as a
   pass over every step would. *)
let btran t c nz nnz =
  let stamp = new_list t in
  let mark = t.mark in
  for p = 0 to nnz - 1 do
    mark.(nz.(p)) <- stamp
  done;
  let n = ref nnz and reads = ref 0 in
  (* eta file, newest to oldest: z_r = (c_r - sum_{i<>r} c_i w_i) / w_r.
     An eta none of whose positions is listed leaves c as it is, so
     only the etas of listed positions are applied. *)
  let flag i =
    let l = ref t.eta_head.(i) in
    while !l >= 0 do
      let e = Support.Vec.get t.etas (!l / (t.m + 1)) in
      e.e_stamp <- stamp;
      let q = (!l mod (t.m + 1)) - 1 in
      l := if q < 0 then e.e_rnext else e.e_next.(q);
      incr reads
    done
  in
  for p = 0 to nnz - 1 do
    flag nz.(p)
  done;
  for idx = Support.Vec.length t.etas - 1 downto 0 do
    let e = Support.Vec.get t.etas idx in
    if e.e_stamp = stamp then begin
      let s = ref 0. in
      reads := !reads + Array.length e.e_idx;
      for p = 0 to Array.length e.e_idx - 1 do
        s :=
          !s
          +. (Array.unsafe_get c (Array.unsafe_get e.e_idx p)
             *. Array.unsafe_get e.e_val p)
      done;
      let cr = c.(e.e_r) in
      if !s <> 0. || cr <> 0. then begin
        c.(e.e_r) <- (cr -. !s) /. e.e_wr;
        let n' = add t nz !n e.e_r in
        if n' > !n then begin
          n := n';
          flag e.e_r
        end
      end
    end
  done;
  (* U' v = c over the reach, in ascending step order; [accs] takes c by
     step and v overwrites c *)
  let nr = ref 0 in
  for p = 0 to !n - 1 do
    nr := search t t.u_start t.u_step t.step_of_pos.(nz.(p)) !nr
  done;
  let reach = t.reach and nr = !nr in
  ascending reach nr t.m (fun k -> t.visit.(k) = stamp);
  let accs = t.ws in
  for q = 0 to nr - 1 do
    let k = Array.unsafe_get reach q in
    let j = t.pc.(k) in
    accs.(k) <- c.(j);
    c.(j) <- 0.
  done;
  ignore (new_list t);
  n := 0;
  let u_start = t.u_start and u_step = t.u_step and u_val = t.u_val in
  for q = 0 to nr - 1 do
    let k = Array.unsafe_get reach q in
    let vk = accs.(k) /. t.pivots.(k) in
    accs.(k) <- 0.;
    if vk <> 0. then begin
      let r = t.pr.(k) in
      c.(r) <- vk;
      n := add t nz !n r;
      reads := !reads + u_start.(k + 1) - u_start.(k);
      for p = u_start.(k) to u_start.(k + 1) - 1 do
        let l = Array.unsafe_get u_step p in
        Array.unsafe_set accs l
          (Array.unsafe_get accs l -. (Array.unsafe_get u_val p *. vk))
      done
    end
  done;
  (* y = v E (apply the recorded row operations transposed, in reverse) *)
  let l_start = t.l_start and l_row = t.l_row and l_mult = t.l_mult in
  for s = Array.length t.l_steps - 1 downto 0 do
    let k = Array.unsafe_get t.l_steps s in
    let acc = ref 0. in
    reads := !reads + l_start.(k + 1) - l_start.(k);
    for p = l_start.(k) to l_start.(k + 1) - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get l_mult p
           *. Array.unsafe_get c (Array.unsafe_get l_row p))
    done;
    if !acc <> 0. then begin
      let r = t.pr.(k) in
      c.(r) <- c.(r) -. !acc;
      n := add t nz !n r
    end
  done;
  t.reads <- t.reads + !reads;
  nonzeros_ascending c nz !n

(* Record the replacement of basis position [r] by the column whose
   FTRAN image is [w] (dense, position space); the first [nnz] entries
   of [nz] are [w]'s nonzero positions, ascending.  [w] must be the
   image under the *current* factorization, i.e. computed before this
   call.  The eta lists its entries by descending position, the order
   BTRAN sums them in, and joins the [eta_head] list of each position
   it has. *)
let update t ~r ~w ~nz ~nnz =
  let wr = w.(r) in
  if Float.abs wr < abs_pivot_tol then raise Singular;
  let kept i = i <> r && Float.abs w.(i) > drop_tol in
  let count = ref 0 in
  for p = 0 to nnz - 1 do
    if kept nz.(p) then incr count
  done;
  let e_idx = Array.make !count 0 and e_val = Array.make !count 0. in
  let e_next = Array.make !count 0 in
  let link q = (Support.Vec.length t.etas * (t.m + 1)) + q + 1 in
  let k = ref 0 in
  for p = nnz - 1 downto 0 do
    let i = nz.(p) in
    if kept i then begin
      e_idx.(!k) <- i;
      e_val.(!k) <- w.(i);
      e_next.(!k) <- t.eta_head.(i);
      t.eta_head.(i) <- link !k;
      incr k
    end
  done;
  let e_rnext = t.eta_head.(r) in
  t.eta_head.(r) <- link (-1);
  Support.Vec.push t.etas
    { e_r = r; e_wr = wr; e_idx; e_val; e_rnext; e_next; e_stamp = 0 };
  t.eta_nnz <- t.eta_nnz + !count + 1

(* Heuristic refactorization trigger: the eta file has grown past the
   point where replaying it costs more than a fresh factorization. *)
let should_refactorize t = n_etas t >= 100 || t.eta_nnz > 2 * (t.lu_nnz + t.m)

let nnz t = t.lu_nnz + t.eta_nnz

(* The entries the solves have read ([reads]) since the last call. *)
let take_reads t =
  let r = t.reads in
  t.reads <- 0;
  r
