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

(* Pack per-step entry lists into one index/value array pair in list
   order, mapping each index through [f]. *)
let compress lists f =
  let steps = Array.length lists in
  let start = Array.make (steps + 1) 0 in
  Array.iteri (fun k l -> start.(k + 1) <- start.(k) + List.length l) lists;
  let idx = Array.make start.(steps) 0 in
  let value = Array.make start.(steps) 0. in
  Array.iteri
    (fun k l ->
      List.iteri
        (fun p (i, v) ->
          idx.(start.(k) + p) <- f i;
          value.(start.(k) + p) <- v)
        l)
    lists;
  (start, idx, value)

(* Resolved once at module initialization; [Metrics.reset] keeps the
   handle valid. *)
let h_factorize_us = Support.Metrics.histogram "lp.lu.factorize_us"
let m_search_reads = Support.Metrics.counter "lp.lu.search_reads"

(* [factorize m column] factors the m x m matrix whose [j]-th column has
   the entries that [column j f] passes to [f row value].  Raises
   [Singular] when no acceptable pivot remains.  Each successful call
   records its duration in the [lp.lu.factorize_us] histogram and adds
   the bucket entries its pivot search read to [lp.lu.search_reads]. *)
let factorize m column =
  let t0 = Clock.now () in
  (* Active submatrix: per-column hashtables row -> value, plus a
     row -> column-set index and entry counts, all maintained under
     elimination. *)
  let acols =
    Array.init m (fun j ->
        let tbl = Hashtbl.create 8 in
        column j (fun i v ->
            if v <> 0. then
              match Hashtbl.find_opt tbl i with
              | Some prev -> Hashtbl.replace tbl i (prev +. v)
              | None -> Hashtbl.replace tbl i v);
        tbl)
  in
  let rowcols = Array.init m (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun j tbl -> Hashtbl.iter (fun i _ -> Hashtbl.replace rowcols.(i) j ()) tbl)
    acols;
  let colcnt = Array.map Hashtbl.length acols in
  let rowcnt = Array.map Hashtbl.length rowcols in
  let col_active = Array.make m true in
  (* Columns bucketed by current entry count.  A bucket holds entry ids;
     ids are handed out in push order, so an id is also its push time.
     An entry goes stale when its column is pivoted, or when a scan of
     its bucket finds the column's count elsewhere: [departed.(c)] lists
     the columns whose count left c since c's last scan, and [killed]
     maps (c, column) to the first id that scan left alive.  Stale
     entries are dropped when a scan reaches them, so a bucket's live
     entries keep the order a full filter on every scan would give.  The
     order is kept on purpose: another pivot order rounds differently
     and can steer the simplex to a different equal-cost optimum. *)
  let buckets =
    Array.init (m + 1) (fun _ ->
        { ring = [||]; lo = 0; len = 0; head_hi = false })
  in
  let entry_col = Support.Vec.create () in
  let departed = Array.make (m + 1) [] in
  let killed = Hashtbl.create 64 in
  let key c j = (c * m) + j in
  let push_bucket j =
    let c = colcnt.(j) in
    if c >= 0 && c <= m then begin
      bucket_push buckets.(c) (Support.Vec.length entry_col);
      Support.Vec.push entry_col j
    end
  in
  let live_entry c e =
    let j = Support.Vec.get entry_col e in
    col_active.(j)
    && colcnt.(j) = c
    && e >= Option.value ~default:0 (Hashtbl.find_opt killed (key c j))
  in
  for j = 0 to m - 1 do
    push_bucket j
  done;
  (* Best (threshold-acceptable) pivot entry within column [j]:
     (row, value, rowcount), preferring short rows then large values. *)
  let best_in_col j =
    let tbl = acols.(j) in
    let colmax = Hashtbl.fold (fun _ v acc -> Float.max (Float.abs v) acc) tbl 0. in
    if colmax < abs_pivot_tol then None
    else begin
      let thresh = rel_pivot_tol *. colmax in
      let bi = ref (-1) and bv = ref 0. and bc = ref max_int in
      Hashtbl.iter
        (fun i v ->
          let av = Float.abs v in
          if av >= thresh then
            if
              rowcnt.(i) < !bc
              || (rowcnt.(i) = !bc && av > Float.abs !bv)
            then begin
              bi := i;
              bv := v;
              bc := rowcnt.(i)
            end)
        tbl;
      if !bi < 0 then None else Some (!bi, !bv, !bc)
    end
  in
  (* Markowitz pivot selection: scan buckets in increasing column count,
     stop at the first zero-cost candidate or after a handful of
     candidates (partial pricing of pivots, GLPK-style).  A scan pops
     entries off the bucket's head until it stops, pushes the live ones
     back and reverses the bucket, so it reads only the entries it needs
     ([reads] counts them), however long the bucket is. *)
  let reads = ref 0 in
  let select () =
    let best = ref None in
    let ncand = ref 0 in
    let stop = ref false in
    let cnt = ref 1 in
    while (not !stop) && !cnt <= m do
      let b = buckets.(!cnt) in
      if b.len > 0 then begin
        List.iter
          (fun j ->
            if colcnt.(j) <> !cnt then
              Hashtbl.replace killed (key !cnt j)
                (Support.Vec.length entry_col))
          departed.(!cnt);
        departed.(!cnt) <- [];
        let live = ref [] in
        while (not !stop) && b.len > 0 do
          let e = bucket_pop b in
          incr reads;
          if live_entry !cnt e then begin
            let j = Support.Vec.get entry_col e in
            live := e :: !live;
            match best_in_col j with
            | None -> ()
            | Some (i, v, rc) ->
                let cost = (!cnt - 1) * (rc - 1) in
                (match !best with
                | Some (c0, _, _, _) when c0 <= cost -> ()
                | _ -> best := Some (cost, j, i, v));
                incr ncand;
                if cost = 0 || !ncand >= 4 then stop := true
          end
        done;
        List.iter (bucket_push b) !live;
        b.head_hi <- not b.head_hi
      end;
      if !best <> None then stop := true;
      incr cnt
    done;
    !best
  in
  let pr = Array.make m (-1) in
  let pc = Array.make m (-1) in
  let pivots = Array.make m 0. in
  let lmat = Array.make m [] in
  let umat_cols = Array.make m [] in
  for k = 0 to m - 1 do
    match select () with
    | None -> raise Singular
    | Some (_cost, j, i, piv) ->
        pr.(k) <- i;
        pc.(k) <- j;
        pivots.(k) <- piv;
        let tbl_j = acols.(j) in
        let mults =
          Hashtbl.fold
            (fun r v acc -> if r = i then acc else (r, v /. piv) :: acc)
            tbl_j []
        in
        lmat.(k) <- mults;
        let urow =
          Hashtbl.fold
            (fun j' () acc ->
              if j' = j then acc
              else
                match Hashtbl.find_opt acols.(j') i with
                | Some u -> (j', u) :: acc
                | None -> acc)
            rowcols.(i) []
        in
        umat_cols.(k) <- urow;
        (* retire the pivot column from the row index *)
        Hashtbl.iter
          (fun r _ ->
            if r <> i then begin
              Hashtbl.remove rowcols.(r) j;
              rowcnt.(r) <- rowcnt.(r) - 1
            end)
          tbl_j;
        col_active.(j) <- false;
        (* eliminate the pivot row from every other active column *)
        List.iter
          (fun (j', u) ->
            let tbl = acols.(j') in
            let c0 = colcnt.(j') in
            Hashtbl.remove tbl i;
            colcnt.(j') <- colcnt.(j') - 1;
            List.iter
              (fun (r, mu) ->
                let delta = -.(mu *. u) in
                match Hashtbl.find_opt tbl r with
                | Some old ->
                    let nv = old +. delta in
                    if Float.abs nv <= drop_tol then begin
                      Hashtbl.remove tbl r;
                      colcnt.(j') <- colcnt.(j') - 1;
                      Hashtbl.remove rowcols.(r) j';
                      rowcnt.(r) <- rowcnt.(r) - 1
                    end
                    else Hashtbl.replace tbl r nv
                | None ->
                    if Float.abs delta > drop_tol then begin
                      Hashtbl.replace tbl r delta;
                      colcnt.(j') <- colcnt.(j') + 1;
                      Hashtbl.replace rowcols.(r) j' ();
                      rowcnt.(r) <- rowcnt.(r) + 1
                    end)
              mults;
            if colcnt.(j') <> c0 then departed.(c0) <- j' :: departed.(c0);
            push_bucket j')
          urow;
        Hashtbl.reset rowcols.(i);
        Hashtbl.reset tbl_j
  done;
  (* Remap U entries from column ids to elimination steps, so back
     substitution indexes the step-space solution vector directly. *)
  let pos_of_col = Array.make m (-1) in
  for k = 0 to m - 1 do
    pos_of_col.(pc.(k)) <- k
  done;
  let l_start, l_row, l_mult = compress lmat Fun.id in
  let u_start, u_step, u_val = compress umat_cols (fun j' -> pos_of_col.(j')) in
  let l_steps =
    Array.of_list
      (List.filter (fun k -> l_start.(k + 1) > l_start.(k)) (List.init m Fun.id))
  in
  let lu_nnz = m + Array.length l_row + Array.length u_step in
  Support.Metrics.observe h_factorize_us (Clock.since t0 *. 1e6);
  Support.Metrics.add m_search_reads !reads;
  {
    m;
    pr;
    pc;
    pivots;
    l_start;
    l_row;
    l_mult;
    l_steps;
    u_start;
    u_step;
    u_val;
    lu_nnz;
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
