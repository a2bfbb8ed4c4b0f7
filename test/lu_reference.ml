(* Reference LU factorization: the Hashtbl-based Markowitz elimination
   that [Lp.Sparse_lu.factorize] must reproduce bit for bit.  Each
   column and row of the active submatrix is a [Hashtbl], so the order
   the tables iterate in decides pivot ties and U summation order by
   construction; [Sparse_lu] keeps the same order in flat arrays.  It is
   slow and allocates heavily: it is the oracle, not the kernel. *)

open Lp

exception Singular = Sparse_lu.Singular

let drop_tol = Sparse_lu.drop_tol
let abs_pivot_tol = Sparse_lu.abs_pivot_tol
let rel_pivot_tol = Sparse_lu.rel_pivot_tol

type factors = {
  pr : int array;
  pc : int array;
  pivots : float array;
  l_start : int array;
  l_row : int array;
  l_mult : float array;
  l_steps : int array;
  u_start : int array;
  u_step : int array;
  u_val : float array;
}

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

let factorize m column : factors =
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
  { pr; pc; pivots; l_start; l_row; l_mult; l_steps; u_start; u_step; u_val }
