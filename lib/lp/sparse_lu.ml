(* Sparse LU factorization of a simplex basis, with product-form eta
   updates between refactorizations.

   The revised simplex needs four operations against the basis matrix B
   (whose columns are the sparse constraint columns of the basic
   variables):

     FTRAN:  solve B x = b        (entering column, x_B recomputation)
     BTRAN:  solve B' y = c       (dual values, pivot rows of Binv)
     UPDATE: replace column r of B by a new column a_q
     REFACTORIZE: rebuild the factors from the current basis

   The previous implementation kept a dense m x m explicit inverse:
   O(m^2) memory and per-pivot update, O(m^3) refactorization -- hopeless
   on the thousand-row register-allocation models.  Here B is factored as

     E B = U        (Gaussian elimination, Markowitz-ordered pivoting)

   where E is the product of the recorded elementary row operations
   (stored column-wise per elimination step, [l_*]) and U is the sparse
   upper-triangular matrix of pivot rows (stored row-wise per step,
   [u_*], with entries indexed by *elimination step* of their column).
   Both are flat index/value arrays, so the solves read no boxed
   entries, and the L passes skip the steps with no multipliers.
   Slack columns are unit vectors, and the structural columns of the
   allocation models are short, so the greedy singleton-first Markowitz
   order dissolves almost the whole basis with no fill-in; only a small
   "bump" needs real elimination.

   Column replacements are absorbed as product-form etas: replacing
   column r by a_q multiplies B on the right by the eta matrix E_r that
   is the identity except for column r = w, where w = B^-1 a_q (the
   FTRAN of the entering column, which the simplex iteration has already
   computed).  FTRAN applies the eta file oldest-to-newest after the LU
   solve; BTRAN applies it newest-to-oldest before the LU solve.  The
   caller refactorizes periodically to keep the eta file short (the
   classic Forrest-Tomlin trade: cheap O(nnz) updates between
   refactorizations, a sparse refactorization every few dozen pivots). *)

exception Singular

type eta = {
  e_r : int; (* basis position whose column was replaced *)
  e_wr : float; (* w_r, the pivot element of the replacement *)
  e_idx : int array; (* positions i <> r with |w_i| > drop, descending *)
  e_val : float array; (* w_i, parallel to [e_idx] *)
}

(* L and U are stored compressed by elimination step: step k's entries
   are [start.(k)] .. [start.(k+1) - 1] of parallel index/value arrays. *)
type t = {
  m : int;
  pr : int array; (* elimination step -> pivot row *)
  pc : int array; (* elimination step -> pivot column (basis position) *)
  pivots : float array; (* elimination step -> pivot value *)
  l_start : int array; (* length m+1 *)
  l_row : int array; (* row of each multiplier *)
  l_mult : float array;
  l_steps : int array; (* the steps whose L column is not empty, ascending *)
  u_start : int array; (* length m+1 *)
  u_step : int array; (* later elimination step of each U entry *)
  u_val : float array;
  lu_nnz : int;
  etas : eta Support.Vec.t;
  mutable eta_nnz : int;
  ws : float array; (* step-space workspace, length m *)
}

let drop_tol = 1e-13
let abs_pivot_tol = 1e-11
let rel_pivot_tol = 0.1 (* threshold pivoting within the chosen column *)

(* A column bucket of the Markowitz search: a ring buffer read and
   written at one end only, its head, with a bit saying which end that
   is, so reversing the bucket is O(1). *)
type bucket = {
  mutable ring : int array; (* capacity 0 or a power of two *)
  mutable lo : int; (* ring index of the low end *)
  mutable len : int;
  mutable head_hi : bool; (* the head is the high end *)
}

let bucket_push b x =
  let cap = Array.length b.ring in
  if b.len = cap then begin
    let ring = Array.make (max 8 (2 * cap)) 0 in
    for k = 0 to b.len - 1 do
      ring.(k) <- b.ring.((b.lo + k) land (cap - 1))
    done;
    b.ring <- ring;
    b.lo <- 0
  end;
  let mask = Array.length b.ring - 1 in
  if b.head_hi then b.ring.((b.lo + b.len) land mask) <- x
  else begin
    b.lo <- (b.lo - 1) land mask;
    b.ring.(b.lo) <- x
  end;
  b.len <- b.len + 1

let bucket_pop b =
  let mask = Array.length b.ring - 1 in
  b.len <- b.len - 1;
  if b.head_hi then b.ring.((b.lo + b.len) land mask)
  else begin
    let x = b.ring.(b.lo) in
    b.lo <- (b.lo + 1) land mask;
    x
  end

(* The active submatrix keeps each column's rows and each row's columns
   in the order an int-keyed [Hashtbl.create 8] iterates them.  That
   order breaks the ties of the pivot search and fixes the order U rows
   are summed in, so it decides which of several equal-cost optima the
   simplex reaches:

   - a table has [nb] buckets: 16 at first, doubled whenever a new key
     takes its size past [2 nb], never shrunk by removals;
   - iteration visits buckets by ascending [Hashtbl.hash key land
     (nb - 1)], and each bucket newest key first.  Updating a value
     keeps the key's age; removing a key and adding it again makes it
     new.

   A column's or row's arena slot holds its entries oldest first, so
   iteration order is the slot read backwards and stably sorted by
   ascending bucket.  The lists the pivot step builds with
   [Hashtbl.fold] reverse that: the slot read forwards and stably sorted
   by descending bucket, the "fold order".  Only the pivot column and
   the pivot row are ever sorted, once each. *)

let bucket_of key nb = Hashtbl.hash key land (nb - 1)

(* The bucket count of a table with [nb] buckets that a new key has
   just taken to [size] entries. *)
let grown nb size = if size > 2 * nb then 2 * nb else nb

(* Sort key of the entry for [key] at arena position [p < 2^32] in a
   table of [nb] buckets: ascending keys are the fold order. *)
let fold_key key nb p = ((nb - 1 - bucket_of key nb) lsl 32) lor p
let key_pos k = k land 0xFFFF_FFFF

(* Sort a.(0) .. a.(n - 1) ascending. *)
let sort_prefix a n =
  if n <= 16 then
    for q = 1 to n - 1 do
      let x = a.(q) in
      let p = ref (q - 1) in
      while !p >= 0 && a.(!p) > x do
        a.(!p + 1) <- a.(!p);
        decr p
      done;
      a.(!p + 1) <- x
    done
  else begin
    let s = Array.sub a 0 n in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 n
  end

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

(* The pivot search's [killed] table; nothing iterates it. *)
module Int_map = Hashtbl.Make (Int)

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
   the bucket entries its pivot search read to [lp.lu.search_reads] and
   the off-diagonal entries of L and U to [lp.lu.l_nnz] and
   [lp.lu.u_nnz]. *)
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
  let colcnt = Array.make m 0 and col_nb = Array.make m 16 in
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
            colcnt.(j) <- n + 1;
            col_nb.(j) <- grown col_nb.(j) (n + 1)
          end
        end);
    let n = colcnt.(j) in
    for p = base to base + n - 1 do
      where.(!c_row.(p)) <- -1
    done;
    c_cap.(j) <- n;
    c_top := base + n
  done;
  let rowcnt = Array.make m 0 and row_nb = Array.make m 16 in
  for p = 0 to !c_top - 1 do
    let i = !c_row.(p) in
    rowcnt.(i) <- rowcnt.(i) + 1;
    row_nb.(i) <- grown row_nb.(i) rowcnt.(i)
  done;
  let r_beg = Array.make m 0 and r_len = Array.make m 0 in
  let r_cap = Array.copy rowcnt in
  for i = 1 to m - 1 do
    r_beg.(i) <- r_beg.(i - 1) + rowcnt.(i - 1)
  done;
  let r_col = ref (Array.make (room !c_top) 0) in
  let r_top = ref !c_top in
  (* rows receive their columns in ascending order *)
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
  (* Columns bucketed by current entry count.  A bucket holds entry ids;
     ids are handed out in push order, so an id is also its push time.
     An entry goes stale when its column is pivoted, or when a scan of
     its bucket finds the column's count elsewhere: [departed.(c)] lists
     the columns whose count left c since c's last scan, and [killed]
     maps (c, column) to the first id that scan left alive.  Stale
     entries are dropped when a scan reaches them, so a bucket's live
     entries keep the order a full filter on every scan would give.
     Most counts never occur, so a bucket is made on its first push and
     [no_bucket], always empty, stands in until then. *)
  let no_bucket = { ring = [||]; lo = 0; len = 0; head_hi = false } in
  let buckets = Array.make (m + 1) no_bucket in
  let entry_col = Support.Vec.with_capacity (room !c_top) in
  let departed = Array.make (m + 1) [] in
  let killed = Int_map.create 64 in
  let key c j = (c * m) + j in
  let push_bucket j =
    let c = colcnt.(j) in
    if c >= 0 && c <= m then begin
      if buckets.(c) == no_bucket then
        buckets.(c) <- { ring = [||]; lo = 0; len = 0; head_hi = false };
      bucket_push buckets.(c) (Support.Vec.length entry_col);
      Support.Vec.push entry_col j
    end
  in
  let live_entry c e =
    let j = Support.Vec.get entry_col e in
    colcnt.(j) = c
    && e >= Option.value ~default:0 (Int_map.find_opt killed (key c j))
  in
  for j = 0 to m - 1 do
    push_bucket j
  done;
  (* Best threshold-acceptable pivot in column [j], preferring short
     rows, then large values, then the entry the column's iteration
     order reaches first; found when [best_in_col] returns true, as row
     [bi], value [bv] and row count [bc]. *)
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
      let nb = col_nb.(j) in
      let found = ref false in
      for p = base to base + n - 1 do
        let v = vals.(p) in
        let av = Float.abs v in
        if av >= thresh then begin
          let i = rows.(p) in
          let rc = rowcnt.(i) in
          if
            (not !found)
            || rc < !bc
            || rc = !bc
               && (av > Float.abs !bv
                  || av = Float.abs !bv
                     && bucket_of i nb <= bucket_of !bi nb)
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
  (* Markowitz pivot selection: scan buckets in increasing column count,
     stop at the first zero-cost candidate or after a handful of
     candidates (partial pricing of pivots, GLPK-style).  A scan pops
     entries off the bucket's head until it stops, pushes the live ones
     back and reverses the bucket, so it reads only the entries it needs
     ([reads] counts them), however long the bucket is.  The choice is
     column [sel_j], row [sel_i], value [sel_v]. *)
  let reads = ref 0 in
  let sel_j = ref (-1) and sel_i = ref 0 and sel_v = ref 0. in
  let sel_cost = ref 0 in
  let live = ref (Array.make 16 0) in
  let select () =
    sel_j := -1;
    let ncand = ref 0 in
    let stop = ref false in
    let cnt = ref 1 in
    while (not !stop) && !cnt <= m do
      let c = !cnt in
      let b = buckets.(c) in
      if b.len > 0 then begin
        List.iter
          (fun j ->
            if colcnt.(j) <> c then
              Int_map.replace killed (key c j) (Support.Vec.length entry_col))
          departed.(c);
        departed.(c) <- [];
        let nlive = ref 0 in
        while (not !stop) && b.len > 0 do
          let e = bucket_pop b in
          incr reads;
          if live_entry c e then begin
            let j = Support.Vec.get entry_col e in
            live := ensure !live (!nlive + 1) 0;
            !live.(!nlive) <- e;
            incr nlive;
            if best_in_col j then begin
              let cost = (c - 1) * (!bc - 1) in
              if !sel_j < 0 || cost < !sel_cost then begin
                sel_cost := cost;
                sel_j := j;
                sel_i := !bi;
                sel_v := !bv
              end;
              incr ncand;
              if cost = 0 || !ncand >= 4 then stop := true
            end
          end
        done;
        for q = !nlive - 1 downto 0 do
          bucket_push b !live.(q)
        done;
        b.head_hi <- not b.head_hi
      end;
      if !sel_j >= 0 then stop := true;
      incr cnt
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
          col_nb.(j) <- grown col_nb.(j) colcnt.(j);
          row_push r j;
          rowcnt.(r) <- rowcnt.(r) + 1;
          row_nb.(r) <- grown row_nb.(r) rowcnt.(r)
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
    if colcnt.(j) <> c0 then departed.(c0) <- j :: departed.(c0);
    push_bucket j
  in
  let pr = Array.make m (-1) in
  let pc = Array.make m (-1) in
  let pivots = Array.make m 0. in
  let sk = ref (Array.make 64 0) in
  for k = 0 to m - 1 do
    if not (select ()) then raise Singular;
    let j = !sel_j and i = !sel_i and piv = !sel_v in
    pr.(k) <- i;
    pc.(k) <- j;
    pivots.(k) <- piv;
    (* L column k: the pivot column's other rows in fold order *)
    let base = c_beg.(j) and n = colcnt.(j) and nb = col_nb.(j) in
    let rows = !c_row and vals = !c_val in
    sk := ensure !sk n 0;
    let keys = !sk in
    for p = base to base + n - 1 do
      keys.(p - base) <- fold_key rows.(p) nb p
    done;
    sort_prefix keys n;
    l_start.(k) <- !l_len;
    l_row := ensure !l_row (!l_len + n) 0;
    l_mult := ensure !l_mult (!l_len + n) 0.;
    for q = 0 to n - 1 do
      let p = key_pos keys.(q) in
      let r = rows.(p) in
      if r <> i then begin
        !l_row.(!l_len) <- r;
        !l_mult.(!l_len) <- vals.(p) /. piv;
        incr l_len
      end
    done;
    (* retire the pivot column from the row counts *)
    for p = base to base + n - 1 do
      let r = rows.(p) in
      if r <> i then rowcnt.(r) <- rowcnt.(r) - 1
    done;
    colcnt.(j) <- -1;
    (* U row k: the pivot row's other columns in fold order, each with
       the pivot row eliminated from it *)
    let base = r_beg.(i) and nb = row_nb.(i) in
    sk := ensure !sk r_len.(i) 0;
    let keys = !sk and cols = !r_col and n = ref 0 in
    for p = base to base + r_len.(i) - 1 do
      let c = cols.(p) in
      if c >= 0 && colcnt.(c) >= 0 then begin
        keys.(!n) <- fold_key c nb p;
        incr n
      end
    done;
    sort_prefix keys !n;
    for q = 0 to !n - 1 do
      keys.(q) <- cols.(key_pos keys.(q))
    done;
    u_start.(k) <- !u_len;
    u_col := ensure !u_col (!u_len + !n) 0;
    u_val := ensure !u_val (!u_len + !n) 0.;
    for q = 0 to !n - 1 do
      eliminate keys.(q) i l_start.(k) !l_len
    done
  done;
  l_start.(m) <- !l_len;
  u_start.(m) <- !u_len;
  (* Remap U entries from columns to elimination steps, so back
     substitution indexes the step-space solution vector directly. *)
  let step_of_col = where (* no longer needed for offsets *) in
  Array.iteri (fun k j -> step_of_col.(j) <- k) pc;
  let u_step = Array.init !u_len (fun p -> step_of_col.(!u_col.(p))) in
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
    pivots;
    l_start;
    l_row = Array.sub !l_row 0 !l_len;
    l_mult = Array.sub !l_mult 0 !l_len;
    l_steps;
    u_start;
    u_step;
    u_val = Array.sub !u_val 0 !u_len;
    lu_nnz = m + !l_len + !u_len;
    etas = Support.Vec.create ();
    eta_nnz = 0;
    ws = Array.make m 0.;
  }

let n_etas t = Support.Vec.length t.etas

(* FTRAN: overwrite the dense row-space vector [b] with x = B^-1 b, in
   basis-position space. *)
let ftran t b =
  let m = t.m in
  (* forward elimination: b := E b *)
  let l_start = t.l_start and l_row = t.l_row and l_mult = t.l_mult in
  for s = 0 to Array.length t.l_steps - 1 do
    let k = Array.unsafe_get t.l_steps s in
    let tv = Array.unsafe_get b t.pr.(k) in
    if tv <> 0. then
      for p = l_start.(k) to l_start.(k + 1) - 1 do
        let r = Array.unsafe_get l_row p in
        Array.unsafe_set b r
          (Array.unsafe_get b r -. (Array.unsafe_get l_mult p *. tv))
      done
  done;
  (* back substitution: U xs = b, xs indexed by elimination step *)
  let xs = t.ws in
  let u_start = t.u_start and u_step = t.u_step and u_val = t.u_val in
  for k = m - 1 downto 0 do
    let s = ref b.(t.pr.(k)) in
    for p = u_start.(k) to u_start.(k + 1) - 1 do
      s :=
        !s
        -. (Array.unsafe_get u_val p
           *. Array.unsafe_get xs (Array.unsafe_get u_step p))
    done;
    xs.(k) <- !s /. t.pivots.(k)
  done;
  (* scatter into basis-position space *)
  for k = 0 to m - 1 do
    b.(t.pc.(k)) <- xs.(k)
  done;
  (* eta file, oldest to newest *)
  Support.Vec.iter
    (fun e ->
      let xr = b.(e.e_r) /. e.e_wr in
      b.(e.e_r) <- xr;
      if xr <> 0. then
        for p = 0 to Array.length e.e_idx - 1 do
          let i = Array.unsafe_get e.e_idx p in
          Array.unsafe_set b i
            (Array.unsafe_get b i -. (Array.unsafe_get e.e_val p *. xr))
        done)
    t.etas

(* BTRAN: overwrite the dense basis-position-space vector [c] with the
   row-space solution y of y' B = c'. *)
let btran t c =
  let m = t.m in
  (* eta file, newest to oldest: z_r = (c_r - sum_{i<>r} c_i w_i) / w_r *)
  for idx = Support.Vec.length t.etas - 1 downto 0 do
    let e = Support.Vec.get t.etas idx in
    let s = ref 0. in
    for p = 0 to Array.length e.e_idx - 1 do
      s :=
        !s
        +. (Array.unsafe_get c (Array.unsafe_get e.e_idx p)
           *. Array.unsafe_get e.e_val p)
    done;
    c.(e.e_r) <- (c.(e.e_r) -. !s) /. e.e_wr
  done;
  (* U' v = c (forward over steps, scatter style); once [accs] holds c
     by step, v overwrites c *)
  let accs = t.ws and v = c in
  for k = 0 to m - 1 do
    accs.(k) <- c.(t.pc.(k))
  done;
  let u_start = t.u_start and u_step = t.u_step and u_val = t.u_val in
  for k = 0 to m - 1 do
    let vk = accs.(k) /. t.pivots.(k) in
    v.(t.pr.(k)) <- vk;
    if vk <> 0. then
      for p = u_start.(k) to u_start.(k + 1) - 1 do
        let l = Array.unsafe_get u_step p in
        Array.unsafe_set accs l
          (Array.unsafe_get accs l -. (Array.unsafe_get u_val p *. vk))
      done
  done;
  (* y = v E (apply the recorded row operations transposed, in reverse) *)
  let l_start = t.l_start and l_row = t.l_row and l_mult = t.l_mult in
  for s = Array.length t.l_steps - 1 downto 0 do
    let k = Array.unsafe_get t.l_steps s in
    let acc = ref 0. in
    for p = l_start.(k) to l_start.(k + 1) - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get l_mult p
           *. Array.unsafe_get v (Array.unsafe_get l_row p))
    done;
    v.(t.pr.(k)) <- v.(t.pr.(k)) -. !acc
  done

(* Write the positions of [v]'s nonzeros, ascending, to the front of
   [nz] and return how many there are. *)
let nonzeros v nz =
  let n = ref 0 in
  for i = 0 to Array.length v - 1 do
    if Array.unsafe_get v i <> 0. then begin
      nz.(!n) <- i;
      incr n
    end
  done;
  !n

(* Record the replacement of basis position [r] by the column whose
   FTRAN image is [w] (dense, position space); the first [nnz] entries
   of [nz] are [w]'s nonzero positions, ascending.  [w] must be the
   image under the *current* factorization, i.e. computed before this
   call.  The eta lists its entries by descending position, the order
   BTRAN sums them in. *)
let update t ~r ~w ~nz ~nnz =
  let wr = w.(r) in
  if Float.abs wr < abs_pivot_tol then raise Singular;
  let kept i = i <> r && Float.abs w.(i) > drop_tol in
  let count = ref 0 in
  for p = 0 to nnz - 1 do
    if kept nz.(p) then incr count
  done;
  let e_idx = Array.make !count 0 and e_val = Array.make !count 0. in
  let k = ref 0 in
  for p = nnz - 1 downto 0 do
    let i = nz.(p) in
    if kept i then begin
      e_idx.(!k) <- i;
      e_val.(!k) <- w.(i);
      incr k
    end
  done;
  Support.Vec.push t.etas { e_r = r; e_wr = wr; e_idx; e_val };
  t.eta_nnz <- t.eta_nnz + !count + 1

(* Heuristic refactorization trigger: the eta file has grown past the
   point where replaying it costs more than a fresh factorization. *)
let should_refactorize ?(max_etas = 100) t =
  n_etas t >= max_etas || t.eta_nnz > 2 * (t.lu_nnz + t.m)

let nnz t = t.lu_nnz + t.eta_nnz
