(* LP/MIP presolve.

   The register-allocation models contain vast numbers of structurally
   trivial constraints -- copy-propagation equalities (After = Before),
   two-bank one-place constraints (x + y = 1), and variables fixed by the
   static bank-pruning analysis.  Presolve eliminates these before the
   simplex ever sees them, typically shrinking the model by 3-10x:

     - empty rows        : dropped (checked for consistency);
     - singleton rows    : converted into variable bounds;
     - fixed variables   : substituted into rows and objective;
     - doubleton x = y   : alias elimination (coefs +-1, integral rhs,
                           preserving 0-1 integrality);
     - doubleton x+y = c : substitution y := c - x (same restriction).

   A postsolve record reconstructs values of eliminated variables.

   Working form.  The rows and variables live in flat arrays:
     - row r's terms sit in slots [start r, start r + len r) of the slot
       arrays, a range sized by the original row.  A substitution never
       lengthens a row: the surviving variable takes the eliminated
       one's slot or adds into its own.  Removing a term moves the row's
       last slot into its place;
     - each variable lists (row, slot) entries in the order it joined
       those rows (its original rows ascending, then the rows it entered
       by substitution), as a chain through a growing entry pool.  Each
       slot records its entry, so moving or removing a term updates the
       entry in O(1); a removed entry keeps its place with slot -1;
     - a variable's live entries count its slots in live rows, exactly.

   Order.  Nothing reads slot order, so the reductions, the reduced rows
   and the reduced LP follow from these rules alone:
     - rows 0 .. m-1 enter a FIFO queue of row ids first; a row is in
       the queue at most once at a time.  A pre-pass fixes the variables
       whose bounds already coincide, in index order, before the first
       pop;
     - substituting v visits v's entries in list order, skips removed
       entries and dead rows, rewrites each remaining row and queues it;
     - of a unit doubleton equality's two variables, the one with fewer
       live entries is eliminated (the row counts for both), the lower
       index on a tie.  If that would lose integrality and eliminating
       the other would not, the other goes; otherwise the row stays.
       Union by size: a row's term moves to a variable at least as
       large as the one it leaves, so an alias chain costs time in
       proportion to its nonzeros, where always eliminating one fixed
       side re-absorbs every row the survivor has collected;
     - variables keep their index order; surviving rows come out in
       their original order, terms by reduced index.  A row whose sense
       and terms equal an earlier surviving row's merges into it under
       the earlier name: Le keeps the smaller rhs, Ge the larger, and Eq
       rhs that differ by more than [feas_tol] mean infeasibility. *)

type elim =
  | Fixed of int * float (* var = value *)
  | Affine of int * float * float * int (* var = a + b * other *)

type info = {
  n_original : int;
  elims : elim list; (* in elimination order; replay in reverse *)
  keep_map : int array; (* original var -> reduced var, or -1 *)
  obj_constant : float;
}

type outcome = Reduced of Problem.t * info | Infeasible_detected

let feas_tol = 1e-9

(* Entries and slots that substitutions read, including the lookups of
   the surviving variable's slot; each run adds its total once. *)
let m_reads = Support.Metrics.counter "lp.presolve.reads"

(* Mutable working representation. *)
type work = {
  n : int;
  lo : float array;
  hi : float array;
  obj : float array;
  integer : bool array;
  alive_var : bool array;
  (* rows *)
  m : int;
  row_start : int array;
  row_len : int array;
  sense : Problem.sense array;
  rhs : float array;
  row_alive : bool array;
  (* slots *)
  slot_var : int array;
  slot_coef : float array;
  slot_entry : int array;
  (* entry pool: a variable's entries chain from [first] through [next] *)
  mutable ent_row : int array;
  mutable ent_slot : int array; (* -1 once removed *)
  mutable ent_next : int array; (* -1 at the tail *)
  mutable n_ent : int;
  first : int array;
  last : int array;
  listed : int array; (* entries in the variable's list, removed ones too *)
  live : int array; (* slots in live rows *)
  (* FIFO queue of row ids, at most m at once *)
  queue : int array;
  queued : bool array;
  mutable q_head : int;
  mutable q_size : int;
  mutable reads : int;
  mutable elims : elim list;
  mutable obj_constant : float;
  mutable infeasible : bool;
}

let enqueue w r =
  if not w.queued.(r) then begin
    w.queued.(r) <- true;
    w.queue.((w.q_head + w.q_size) mod w.m) <- r;
    w.q_size <- w.q_size + 1
  end

let pop w =
  let r = w.queue.(w.q_head) in
  w.q_head <- (w.q_head + 1) mod w.m;
  w.q_size <- w.q_size - 1;
  w.queued.(r) <- false;
  r

(* Append entry (r, s) to [v]'s list and record it in slot [s]. *)
let add_entry w v r s =
  let e = w.n_ent in
  if e = Array.length w.ent_row then begin
    let grow a = Array.append a (Array.make (max 16 e) (-1)) in
    w.ent_row <- grow w.ent_row;
    w.ent_slot <- grow w.ent_slot;
    w.ent_next <- grow w.ent_next
  end;
  w.ent_row.(e) <- r;
  w.ent_slot.(e) <- s;
  w.ent_next.(e) <- -1;
  w.n_ent <- e + 1;
  if w.first.(v) < 0 then w.first.(v) <- e else w.ent_next.(w.last.(v)) <- e;
  w.last.(v) <- e;
  w.listed.(v) <- w.listed.(v) + 1;
  w.slot_entry.(s) <- e

let init (p : Problem.t) =
  let n = Problem.num_vars p and m = Problem.num_rows p in
  let nnz = Problem.num_nonzeros p in
  let w =
    {
      n;
      lo = Array.init n (Problem.var_lo p);
      hi = Array.init n (Problem.var_hi p);
      obj = Array.init n (Problem.var_obj p);
      integer = Array.init n (Problem.var_integer p);
      alive_var = Array.make n true;
      m;
      row_start = Array.make m 0;
      row_len = Array.make m 0;
      sense = Array.make m Problem.Eq;
      rhs = Array.make m 0.;
      row_alive = Array.make m true;
      slot_var = Array.make nnz 0;
      slot_coef = Array.make nnz 0.;
      slot_entry = Array.make nnz 0;
      ent_row = Array.make nnz 0;
      ent_slot = Array.make nnz 0;
      ent_next = Array.make nnz 0;
      n_ent = 0;
      first = Array.make n (-1);
      last = Array.make n (-1);
      listed = Array.make n 0;
      live = Array.make n 0;
      queue = Array.make m 0;
      queued = Array.make m false;
      q_head = 0;
      q_size = 0;
      reads = 0;
      elims = [];
      obj_constant = 0.;
      infeasible = false;
    }
  in
  let s = ref 0 in
  for r = 0 to m - 1 do
    w.row_start.(r) <- !s;
    w.sense.(r) <- Problem.row_sense p r;
    w.rhs.(r) <- Problem.row_rhs p r;
    Problem.iter_row
      (fun v c ->
        w.slot_var.(!s) <- v;
        w.slot_coef.(!s) <- c;
        add_entry w v r !s;
        w.live.(v) <- w.live.(v) + 1;
        incr s)
      p r;
    w.row_len.(r) <- !s - w.row_start.(r);
    enqueue w r
  done;
  w

let kill_row w r =
  w.row_alive.(r) <- false;
  let st = w.row_start.(r) in
  for s = st to st + w.row_len.(r) - 1 do
    let v = w.slot_var.(s) in
    w.live.(v) <- w.live.(v) - 1
  done

(* Remove the term in slot [s] of live row [r]: the row's last slot
   moves into its place. *)
let remove_slot w r s =
  let v = w.slot_var.(s) in
  w.live.(v) <- w.live.(v) - 1;
  w.ent_slot.(w.slot_entry.(s)) <- -1;
  let tail = w.row_start.(r) + w.row_len.(r) - 1 in
  if s <> tail then begin
    w.slot_var.(s) <- w.slot_var.(tail);
    w.slot_coef.(s) <- w.slot_coef.(tail);
    w.slot_entry.(s) <- w.slot_entry.(tail);
    w.ent_slot.(w.slot_entry.(s)) <- s
  end;
  w.row_len.(r) <- w.row_len.(r) - 1

(* [u]'s slot in row [r], or -1: scans the row or [u]'s entries,
   whichever is shorter. *)
let find_slot w r u =
  let len = w.row_len.(r) in
  if len <= w.listed.(u) then begin
    let st = w.row_start.(r) in
    let rec scan s =
      if s = st + len then -1
      else begin
        w.reads <- w.reads + 1;
        if w.slot_var.(s) = u then s else scan (s + 1)
      end
    in
    scan st
  end
  else
    let rec walk e =
      if e < 0 then -1
      else begin
        w.reads <- w.reads + 1;
        if w.ent_row.(e) = r && w.ent_slot.(e) >= 0 then w.ent_slot.(e)
        else walk w.ent_next.(e)
      end
    in
    walk w.first.(u)

(* A derived bound [x] carries one rounding (a quotient, or a
   difference over a unit slope), so it may lie up to one ulp inside the
   true bound.  A continuous variable's bound is therefore moved one ulp
   outward, so it never cuts off a point the rows allow; an integer
   variable's is rounded to the integer within [feas_tol]. *)
let tighten_lo w v x =
  if x > w.lo.(v) then begin
    w.lo.(v) <-
      (if w.integer.(v) then Float.ceil (x -. feas_tol) else Float.pred x);
    if w.lo.(v) > w.hi.(v) +. feas_tol then w.infeasible <- true
  end

let tighten_hi w v x =
  if x < w.hi.(v) then begin
    w.hi.(v) <-
      (if w.integer.(v) then Float.floor (x +. feas_tol) else Float.succ x);
    if w.lo.(v) > w.hi.(v) +. feas_tol then w.infeasible <- true
  end

(* Rewrite slot [s] of live row [r], which holds [v], under
   v := a + b * u ([u] < 0 means a pure constant). *)
let rewrite_slot w r s ~a ~b ~u =
  let c = w.slot_coef.(s) in
  w.rhs.(r) <- w.rhs.(r) -. (c *. a);
  if u < 0 then remove_slot w r s
  else
    let su = find_slot w r u in
    if su < 0 then begin
      let c' = c *. b in
      if Float.abs c' < 1e-12 then remove_slot w r s
      else begin
        (* u takes v's slot *)
        w.live.(w.slot_var.(s)) <- w.live.(w.slot_var.(s)) - 1;
        w.ent_slot.(w.slot_entry.(s)) <- -1;
        w.slot_var.(s) <- u;
        w.slot_coef.(s) <- c';
        add_entry w u r s;
        w.live.(u) <- w.live.(u) + 1
      end
    end
    else begin
      let c' = w.slot_coef.(su) +. (c *. b) in
      let eu = w.slot_entry.(su) in
      w.slot_coef.(su) <- c';
      remove_slot w r s;
      if Float.abs c' < 1e-12 then remove_slot w r w.ent_slot.(eu)
    end

(* Substitute variable [v] := [a] + [b] * [u] everywhere ([u] < 0 means a
   pure constant).  Re-queue all affected rows. *)
let substitute w v ~a ~b ~u =
  w.alive_var.(v) <- false;
  w.elims <- (if u < 0 then Fixed (v, a) else Affine (v, a, b, u)) :: w.elims;
  (* objective *)
  if w.obj.(v) <> 0. then begin
    w.obj_constant <- w.obj_constant +. (w.obj.(v) *. a);
    if u >= 0 then w.obj.(u) <- w.obj.(u) +. (w.obj.(v) *. b);
    w.obj.(v) <- 0.
  end;
  let rec visit e =
    if e >= 0 then begin
      w.reads <- w.reads + 1;
      let s = w.ent_slot.(e) and r = w.ent_row.(e) in
      if s >= 0 && w.row_alive.(r) then begin
        rewrite_slot w r s ~a ~b ~u;
        enqueue w r
      end;
      visit w.ent_next.(e)
    end
  in
  visit w.first.(v)

let fix_var w v x =
  if w.alive_var.(v) then begin
    if x < w.lo.(v) -. feas_tol || x > w.hi.(v) +. feas_tol then
      w.infeasible <- true
    else if w.integer.(v) && Float.abs (x -. Float.round x) > feas_tol then
      w.infeasible <- true
    else substitute w v ~a:x ~b:0. ~u:(-1)
  end

(* Eliminate [y] through the live row [r], a x + b y = rhs:
   y = rhs/b - (a/b) x. *)
let eliminate w r ~x ~a ~y ~b =
  let const = w.rhs.(r) /. b and slope = -.(a /. b) in
  kill_row w r;
  (* implied bounds on x from y's bounds *)
  let ylo = w.lo.(y) and yhi = w.hi.(y) in
  if slope > 0. then begin
    if Float.is_finite ylo then tighten_lo w x ((ylo -. const) /. slope);
    if Float.is_finite yhi then tighten_hi w x ((yhi -. const) /. slope)
  end
  else begin
    if Float.is_finite ylo then tighten_hi w x ((ylo -. const) /. slope);
    if Float.is_finite yhi then tighten_lo w x ((yhi -. const) /. slope)
  end;
  substitute w y ~a:const ~b:slope ~u:x;
  if w.lo.(x) >= w.hi.(x) -. feas_tol && w.alive_var.(x) then
    fix_var w x w.lo.(x)

(* Process one row: empty/singleton/doubleton reductions. *)
let process_row w r =
  let st = w.row_start.(r) in
  match w.row_len.(r) with
  | 0 ->
      let rhs = w.rhs.(r) in
      let ok =
        match w.sense.(r) with
        | Problem.Le -> rhs >= -.feas_tol
        | Problem.Ge -> rhs <= feas_tol
        | Problem.Eq -> Float.abs rhs <= feas_tol
      in
      if not ok then w.infeasible <- true;
      kill_row w r
  | 1 ->
      let v = w.slot_var.(st) and c = w.slot_coef.(st) in
      let x = w.rhs.(r) /. c in
      kill_row w r;
      (match (w.sense.(r), c > 0.) with
      | Problem.Eq, _ -> fix_var w v x
      | Problem.Le, true | Problem.Ge, false -> tighten_hi w v x
      | Problem.Le, false | Problem.Ge, true -> tighten_lo w v x);
      if w.lo.(v) >= w.hi.(v) -. feas_tol && w.alive_var.(v) then
        fix_var w v w.lo.(v)
  | 2 when w.sense.(r) = Problem.Eq ->
      (* a x + b y = c with |a| = |b| = 1: eliminate y = (c - a x)/b. *)
      let v0 = w.slot_var.(st) and c0 = w.slot_coef.(st) in
      let v1 = w.slot_var.(st + 1) and c1 = w.slot_coef.(st + 1) in
      let unit c = Float.abs (Float.abs c -. 1.) < 1e-12 in
      (* Eliminating y must not lose y's integrality: with unit
         coefficients, y is integral iff x is, provided rhs is integral. *)
      let integrality_safe x y =
        (not w.integer.(y)) || (w.integer.(x) && Float.is_integer w.rhs.(r))
      in
      if unit c0 && unit c1 then begin
        (* the variable in fewer live rows goes, the lower index on a tie *)
        let (x, a), (y, b) =
          if w.live.(v0) < w.live.(v1) || (w.live.(v0) = w.live.(v1) && v0 < v1)
          then ((v1, c1), (v0, c0))
          else ((v0, c0), (v1, c1))
        in
        if integrality_safe x y then eliminate w r ~x ~a ~y ~b
        else if integrality_safe y x then eliminate w r ~x:y ~a:b ~y:x ~b:a
      end
  | _ -> ()

(* A surviving row in reduced indices, terms ascending. *)
type out_row = {
  o_sense : Problem.sense;
  o_terms : (int * float) list;
  mutable o_rhs : float;
  o_name : string;
}

module Row_key = Hashtbl.Make (struct
  type t = out_row

  let equal a b = a.o_sense = b.o_sense && a.o_terms = b.o_terms

  let hash o =
    List.fold_left
      (fun h (v, c) -> (h * 31) + v + (Hashtbl.hash c * 17))
      (Hashtbl.hash o.o_sense) o.o_terms
    land max_int
end)

let run (p : Problem.t) =
  let w = init p in
  (* Pre-pass: fix variables whose bounds already coincide. *)
  for v = 0 to w.n - 1 do
    if w.lo.(v) >= w.hi.(v) -. feas_tol && Float.is_finite w.lo.(v) then
      fix_var w v w.lo.(v)
  done;
  while (not w.infeasible) && w.q_size > 0 do
    let r = pop w in
    if w.row_alive.(r) then process_row w r
  done;
  Support.Metrics.add m_reads w.reads;
  if w.infeasible then Infeasible_detected
  else begin
    (* Rebuild reduced problem. *)
    let keep_map = Array.make w.n (-1) in
    let reduced = Problem.create () in
    for v = 0 to w.n - 1 do
      if w.alive_var.(v) then
        keep_map.(v) <-
          Problem.add_var reduced ~lo:w.lo.(v) ~hi:w.hi.(v) ~obj:w.obj.(v)
            ~integer:w.integer.(v)
            (Problem.var_name p v)
    done;
    (* Deduplicate rows: chains of aliased variables leave many copies
       of the same constraint (e.g. per-program-point interference rows
       collapse onto one representative).  Identical term vectors merge
       into the first; for inequalities the tightest bound wins. *)
    let merged = Row_key.create 256 in
    let out = ref [] in
    for r = 0 to w.m - 1 do
      if w.row_alive.(r) then begin
        let st = w.row_start.(r) in
        let terms =
          List.init w.row_len.(r) (fun i ->
              (keep_map.(w.slot_var.(st + i)), w.slot_coef.(st + i)))
        in
        let o =
          {
            o_sense = w.sense.(r);
            o_terms = List.sort (fun (a, _) (b, _) -> Int.compare a b) terms;
            o_rhs = w.rhs.(r);
            o_name = Problem.row_name p r;
          }
        in
        match Row_key.find_opt merged o with
        | None ->
            Row_key.add merged o o;
            out := o :: !out
        | Some e -> (
            match e.o_sense with
            | Problem.Le -> e.o_rhs <- Float.min e.o_rhs o.o_rhs
            | Problem.Ge -> e.o_rhs <- Float.max e.o_rhs o.o_rhs
            | Problem.Eq ->
                if Float.abs (e.o_rhs -. o.o_rhs) > feas_tol then
                  w.infeasible <- true)
      end
    done;
    List.iter
      (fun o ->
        Problem.add_row reduced ~name:o.o_name o.o_sense o.o_rhs o.o_terms)
      (List.rev !out);
    if w.infeasible then Infeasible_detected
    else
      Reduced
        ( reduced,
          {
            n_original = w.n;
            elims = w.elims;
            keep_map;
            obj_constant = w.obj_constant;
          } )
  end

let postsolve info reduced_solution =
  let x = Array.make info.n_original 0. in
  Array.iteri
    (fun v r -> if r >= 0 then x.(v) <- reduced_solution.(r))
    info.keep_map;
  (* [elims] is newest-first.  An elimination only ever refers to a
     variable that was alive at its time, i.e. one that is either kept or
     eliminated *later* (appearing nearer the head).  Replaying head to
     tail therefore resolves every reference to an already-computed
     value. *)
  List.iter
    (fun e ->
      match e with
      | Fixed (v, a) -> x.(v) <- a
      | Affine (v, a, b, u) -> x.(v) <- a +. (b *. x.(u)))
    info.elims;
  x
