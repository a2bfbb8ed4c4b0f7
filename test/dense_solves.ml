(* Reference solves: the dense FTRAN and BTRAN that [Lp.Sparse_lu]'s
   hypersparse solves must reproduce, entry for entry.  Each pass visits
   every elimination step and every eta, so its sums are in step and
   entry order by construction; the hypersparse solves keep that order
   over the steps a right-hand side reaches.  Kept verbatim, with the
   scan that lists a vector's nonzeros: it is the oracle, not the
   kernel.  The passes leave garbage in [t.ws], which the hypersparse
   solves need zero, so call them on a copy of the factors with a
   [ws] of their own. *)

open Lp.Sparse_lu

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
