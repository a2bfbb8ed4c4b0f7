(* A bank/color assignment for a flowgraph: the common interface between
   the ILP allocator and the heuristic baseline.  [Emit] consumes this to
   produce the physical program, so both allocators share emission,
   checking and simulation.

   The assignment is plain data on [Modelgen]'s dense indices: banks by
   Exists pair, moves by point, colors by temporary index.  Each
   allocator fills it once; every later read is an array access. *)

open Support
module Bank = Ixp.Bank

type t = {
  mg : Modelgen.t;
  (* by Exists pair: the bank before and after the point's moves *)
  before : Bank.t array;
  after : Bank.t array;
  (* by point: the non-identity moves performed there, in the order
     emission visits them (and [move_cost] sums them) *)
  moves : (Ident.t * Bank.t * Bank.t) list array;
  (* by temporary index and transfer bank ([color_index]): the register
     number within the bank (point-independent, §9), -1 for none *)
  colors : int array;
}

let color_index i b =
  let slot =
    match b with
    | Bank.L -> 0
    | Bank.LD -> 1
    | Bank.S -> 2
    | Bank.SD -> 3
    | Bank.A | Bank.B | Bank.M | Bank.C ->
        Diag.ice "assignment: %s is not a transfer bank" (Bank.to_string b)
  in
  (4 * i) + slot

let no_colors (mg : Modelgen.t) =
  Array.make (4 * Array.length mg.Modelgen.temps) (-1)

let pair a p v =
  let k = Modelgen.pair_of a.mg p v in
  if k < 0 then
    Diag.ice "assignment: no bank for %a at point %a" Ident.pp v
      Ixp.Flowgraph.pp_point (Modelgen.point_of a.mg p);
  k

let bank_before a p v = a.before.(pair a p v)
let bank_after a p v = a.after.(pair a p v)

let xfer_color a v b =
  let c = a.colors.(color_index (Modelgen.temp_index a.mg v) b) in
  if c < 0 then
    Diag.ice "assignment: no %s color for %a" (Bank.to_string b) Ident.pp v;
  c

(* Read an ILP solution: one walk over the members the model resolved,
   in [Modelgen]'s dense order.  A pair's bank is the first of its
   temporary's allowed banks whose variable is set, a color the lowest
   register set.  A point's moves are listed newest first: by descending
   temporary, and one temporary's in reverse of the order the model
   offers them. *)
let of_ilp (s : Ilp.solution) : t =
  let ilp = s.Ilp.ilp in
  let mg = ilp.Ilp.mg in
  let one m = Ampl.Model.member_is_one ilp.Ilp.instance s.Ilp.assignment m in
  let npairs = Modelgen.num_pairs mg in
  let before = Array.make npairs Bank.A and after = Array.make npairs Bank.A in
  let moves = Array.make (Array.length mg.Modelgen.points) [] in
  let fixed = Array.map (Modelgen.fixed_bank mg) mg.Modelgen.temps in
  let slot_start = ilp.Ilp.slot_start and slot_bank = ilp.Ilp.slot_bank in
  let mv_start = mg.Modelgen.mv_start in
  for p = 0 to Array.length moves - 1 do
    for k = mg.Modelgen.ex_start.(p) to mg.Modelgen.ex_start.(p + 1) - 1 do
      let i = mg.Modelgen.ex_temp.(k) in
      let v = mg.Modelgen.temps.(i) in
      match fixed.(i) with
      | Some b ->
          before.(k) <- b;
          after.(k) <- b
      | None ->
          let bank members =
            let rec go s =
              if s >= slot_start.(k + 1) then
                Diag.ice "assignment: no bank for %a at point %a" Ident.pp v
                  Ixp.Flowgraph.pp_point (Modelgen.point_of mg p)
              else if one members.(s) then slot_bank.(s)
              else go (s + 1)
            in
            go slot_start.(k)
          in
          before.(k) <- bank ilp.Ilp.before_m;
          after.(k) <- bank ilp.Ilp.after_m;
          for m = mv_start.(k) to mv_start.(k + 1) - 1 do
            if one ilp.Ilp.move_m.(m) then
              moves.(p) <-
                (v, mg.Modelgen.mv_src.(m), mg.Modelgen.mv_dst.(m)) :: moves.(p)
          done
    done
  done;
  let colors = no_colors mg in
  Array.iteri
    (fun i allowed ->
      List.iteri
        (fun j b ->
          let base = ilp.Ilp.color_start.(i) + (8 * j) in
          let rec go r =
            if r < 8 then
              if one ilp.Ilp.color_m.(base + r) then
                colors.(color_index i b) <- r
              else go (r + 1)
          in
          go 0)
        (List.filter Bank.is_transfer allowed))
    mg.Modelgen.temp_allowed;
  { mg; before; after; moves; colors }

(* The weighted move cost of an allocation: each move's bank-transition
   cost times its point's frequency weight, summed point by point.  Both
   allocators report this number, so they compare like for like. *)
let move_cost (a : t) : float =
  let cost = ref 0. in
  Array.iteri
    (fun p moves ->
      List.iter
        (fun (_, b1, b2) ->
          cost :=
            !cost
            +. (a.mg.Modelgen.weights.(p) *. Bank.move_cost ~src:b1 ~dst:b2 ()))
        moves)
    a.moves;
  !cost

(* Sanity checks every assignment must satisfy; used by tests and run in
   the driver under a debug flag.  Checks the copy discipline (banks agree
   across instruction and control edges modulo declared moves) and that
   aggregate colors are adjacent. *)
let validate (a : t) : string list =
  let mg = a.mg in
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  (* moves are consistent with before/after banks *)
  Array.iteri
    (fun p moves ->
      for k = mg.Modelgen.ex_start.(p) to mg.Modelgen.ex_start.(p + 1) - 1 do
        let v = mg.Modelgen.temps.(mg.Modelgen.ex_temp.(k)) in
        let b = a.before.(k) and b' = a.after.(k) in
        let declared = List.filter (fun (w, _, _) -> Ident.equal w v) moves in
        match declared with
        | [] ->
            if not (Bank.equal b b') then
              err "%a changes bank %s->%s at %a without a move" Ident.pp v
                (Bank.to_string b) (Bank.to_string b') Ixp.Flowgraph.pp_point
                (Modelgen.point_of mg p)
        | [ (_, mb, mb') ] ->
            if not (Bank.equal b mb && Bank.equal b' mb') then
              err "%a declared move %s->%s disagrees with banks %s->%s" Ident.pp
                v (Bank.to_string mb) (Bank.to_string mb') (Bank.to_string b)
                (Bank.to_string b')
        | _ -> err "%a moves twice at one point" Ident.pp v
      done)
    a.moves;
  (* copies across instruction and control edges *)
  List.iter
    (fun (p1, p2, v) ->
      let b1 = bank_after a p1 v and b2 = bank_before a p2 v in
      if not (Bank.equal b1 b2) then
        err "copy of %a broken: after %a in %s, before %a in %s" Ident.pp v
          Ixp.Flowgraph.pp_point (Modelgen.point_of mg p1) (Bank.to_string b1)
          Ixp.Flowgraph.pp_point (Modelgen.point_of mg p2) (Bank.to_string b2))
    mg.Modelgen.copies;
  (* aggregates adjacent and in range *)
  let check_agg members b =
    Array.iteri
      (fun j v ->
        let c = xfer_color a v b in
        if j > 0 && c <> xfer_color a members.(j - 1) b + 1 then
          err "aggregate member %a not adjacent in %s" Ident.pp v
            (Bank.to_string b);
        if c < 0 || c > 7 then err "color %d out of range" c)
      members
  in
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      check_agg ad.Modelgen.ad_members (Ixp.Insn.read_bank ad.Modelgen.ad_space))
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      check_agg au.Modelgen.au_members (Ixp.Insn.write_bank au.Modelgen.au_space))
    mg.Modelgen.agg_uses;
  (* same-register pairs *)
  List.iter
    (fun (d, s) ->
      if xfer_color a d Bank.L <> xfer_color a s Bank.S then
        err "same-reg pair %a/%a disagrees" Ident.pp d Ident.pp s)
    mg.Modelgen.same_reg;
  List.rev !errors
