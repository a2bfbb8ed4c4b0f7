(* The ILP model for combined bank assignment, transfer-register coloring
   and spilling (paper §5-§10), stated through the AMPL-style modeling
   layer and solved with the in-repo MIP solver.

   Decision variables (all 0-1):
     Before[p,v,b], After[p,v,b]  -- v's bank before/after point p;
     Move[p,v,b1,b2]              -- v moves b1 -> b2 at p (identity moves
                                     cost nothing and always exist);
     Color[v,b,r]                 -- v's point-independent register number
                                     within transfer bank b (§9);
     Both[v1,v2,b]                -- interfering pair simultaneously in b
                                     (a Fu&Wilken-style reduction of the
                                     paper's per-point color constraint);
     Occ[p,b,r], NeedsSpill[p,b]  -- the §9 "colorAvail" spill-headroom
                                     machinery for L and S;
     CBefore/CAfter/CMove         -- §10 clone-set counting for K
                                     constraints and the objective. *)

open Support
module D = Ampl.Dataset
module M = Ampl.Model
module Bank = Ixp.Bank
module Insn = Ixp.Insn

let atom_p p = D.I p
let atom_v v = D.S (Ident.name v)
let bank_atoms = List.map (fun b -> (b, D.S (Bank.to_string b))) Bank.all
let atom_b b = List.assq b bank_atoms
let atom_r r = D.I r

type objective_mode = Minimize_moves | Spill_feasibility

type t = {
  mg : Modelgen.t;
  model : M.t;
  instance : M.instance;
  objective_mode : objective_mode;
  (* the families the solution is read back through *)
  before_f : M.family;
  after_f : M.family;
  move_f : M.family;
  color_f : M.family;
  (* their members by dense index.  Exists pair k's Before and After
     members are [slot_start.(k)] .. [slot_start.(k+1) - 1], one per
     allowed bank of its temporary in order ([slot_bank]); fixed
     temporaries have none.  Move's are [Modelgen]'s moves, one for one.
     Temporary i's Color members start at [color_start.(i)]: register r
     of its j-th transfer bank is [color_start.(i) + 8j + r]. *)
  slot_start : int array;
  slot_bank : Bank.t array;
  before_m : M.member array;
  after_m : M.member array;
  move_m : M.member array;
  color_start : int array;
  color_m : M.member array;
}

let xregs = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let build ?(objective_mode = Minimize_moves) (mg : Modelgen.t) : t =
  let model = M.create () in
  let temps = mg.Modelgen.temps in
  let ntemps = Array.length temps in
  let npoints = Array.length mg.Modelgen.points in
  let npairs = Modelgen.num_pairs mg in
  let ex_start = mg.Modelgen.ex_start and ex_temp = mg.Modelgen.ex_temp in
  let mv_start = mg.Modelgen.mv_start in
  let mv_src = mg.Modelgen.mv_src and mv_dst = mg.Modelgen.mv_dst in
  (* every reference to a temporary or point shares one atom, formatted
     once per build *)
  let temp_atoms = Array.map atom_v temps in
  let point_atoms = Array.init npoints atom_p in
  let atom_p p = point_atoms.(p) in
  let index v = Modelgen.temp_index mg v in
  let atom_v v = temp_atoms.(index v) in
  let allowed_t = mg.Modelgen.temp_allowed in
  let axfer_t = Array.map (List.filter Bank.is_transfer) allowed_t in
  let fixed_t = Array.map (Modelgen.is_fixed mg) temps in
  let allowed v = allowed_t.(index v) in
  let axfer v = axfer_t.(index v) in
  (* ---------------- index sets ---------------- *)
  (* Before/After: one member per modelled Exists pair and allowed bank *)
  let slot_start = Array.make (npairs + 1) 0 in
  for k = 0 to npairs - 1 do
    let i = ex_temp.(k) in
    slot_start.(k + 1) <-
      (slot_start.(k) + if fixed_t.(i) then 0 else List.length allowed_t.(i))
  done;
  let slot_bank = Array.make slot_start.(npairs) Bank.A in
  let slot_tuples = Array.make slot_start.(npairs) [] in
  (* Only non-identity moves get variables; staying put is the default
     expressed by the per-bank flow balance below (a Fu&Wilken-style
     variable reduction: identity moves made up half the Move family). *)
  let move_tuples = Array.make (Array.length mv_src) [] in
  for p = 0 to npoints - 1 do
    for k = ex_start.(p) to ex_start.(p + 1) - 1 do
      let i = ex_temp.(k) in
      if not fixed_t.(i) then
        List.iteri
          (fun j b ->
            slot_bank.(slot_start.(k) + j) <- b;
            slot_tuples.(slot_start.(k) + j) <- [ atom_p p; temp_atoms.(i); atom_b b ])
          allowed_t.(i);
      for m = mv_start.(k) to mv_start.(k + 1) - 1 do
        move_tuples.(m) <-
          [ atom_p p; temp_atoms.(i); atom_b mv_src.(m); atom_b mv_dst.(m) ]
      done
    done
  done;
  let before_f = M.declare_binary_listed model "Before" slot_tuples in
  let after_f = M.declare_binary_listed model "After" slot_tuples in
  let move_f = M.declare_binary_listed model "Move" move_tuples in
  let before_m = M.members before_f and after_m = M.members after_f in
  let move_m = M.members move_f in
  (* Color *)
  let color_start = Array.make (ntemps + 1) 0 in
  for i = 0 to ntemps - 1 do
    color_start.(i + 1) <- color_start.(i) + (8 * List.length axfer_t.(i))
  done;
  let color_tuples = Array.make color_start.(ntemps) [] in
  Array.iteri
    (fun i banks ->
      List.iteri
        (fun j b ->
          List.iter
            (fun r ->
              color_tuples.(color_start.(i) + (8 * j) + r) <-
                [ temp_atoms.(i); atom_b b; atom_r r ])
            xregs)
        banks)
    axfer_t;
  let color_f = M.declare_binary_listed model "Color" color_tuples in
  let color_m = M.members color_f in
  (* interference pairs with a common transfer bank.  Members of the same
     aggregate already receive distinct colors through the adjacency
     chain, so their pairwise machinery is redundant in that bank. *)
  let agg_id = Hashtbl.create 64 in
  List.iteri
    (fun i (ad : Modelgen.agg_def) ->
      let b = Insn.read_bank ad.Modelgen.ad_space in
      Array.iter
        (fun v -> Hashtbl.replace agg_id (Ident.stamp v, Bank.to_string b) i)
        ad.Modelgen.ad_members)
    mg.Modelgen.agg_defs;
  List.iteri
    (fun i (au : Modelgen.agg_use) ->
      let b = Insn.write_bank au.Modelgen.au_space in
      Array.iter
        (fun v ->
          Hashtbl.replace agg_id (Ident.stamp v, Bank.to_string b) (10000 + i))
        au.Modelgen.au_members)
    mg.Modelgen.agg_uses;
  let same_aggregate v1 v2 b =
    match
      ( Hashtbl.find_opt agg_id (Ident.stamp v1, Bank.to_string b),
        Hashtbl.find_opt agg_id (Ident.stamp v2, Bank.to_string b) )
    with
    | Some a, Some b -> a = b
    | _ -> false
  in
  let both_idx = ref [] in
  let both_pairs = ref [] in
  List.iter
    (fun (v1, v2) ->
      let common =
        List.filter
          (fun b ->
            List.mem b (axfer v2) && not (same_aggregate v1 v2 b))
          (axfer v1)
      in
      if common <> [] then both_pairs := (v1, v2, common) :: !both_pairs;
      List.iter
        (fun b -> both_idx := [ atom_v v1; atom_v v2; atom_b b ] :: !both_idx)
        common)
    mg.Modelgen.interferes;
  let both_f =
    M.declare_binary_family model "Both" ~index:(D.of_list 3 !both_idx)
  in
  (* spill headroom variables at points where spill moves are possible
     (visited by ascending point, the order the tables are filled in) *)
  let spill_points_s = Hashtbl.create 16 in
  let spill_points_l = Hashtbl.create 16 in
  for p = 0 to npoints - 1 do
    for m = mv_start.(ex_start.(p)) to mv_start.(ex_start.(p + 1)) - 1 do
      let b1 = mv_src.(m) and b2 = mv_dst.(m) in
      if Bank.equal b2 Bank.M && not (Bank.is_write_transfer b1) &&
         not (Bank.equal b1 Bank.M)
      then Hashtbl.replace spill_points_s p ();
      if Bank.equal b1 Bank.M && (Bank.equal b2 Bank.A || Bank.equal b2 Bank.B)
      then Hashtbl.replace spill_points_l p ()
    done
  done;
  let occ_idx = ref [] and ns_idx = ref [] in
  let add_spill_point p b =
    ns_idx := [ atom_p p; atom_b b ] :: !ns_idx;
    List.iter (fun r -> occ_idx := [ atom_p p; atom_b b; atom_r r ] :: !occ_idx) xregs
  in
  Hashtbl.iter (fun p () -> add_spill_point p Bank.S) spill_points_s;
  Hashtbl.iter (fun p () -> add_spill_point p Bank.L) spill_points_l;
  let occ_f =
    M.declare_binary_family model "Occ" ~index:(D.of_list 3 !occ_idx)
  in
  let needs_spill_f =
    M.declare_binary_family model "NeedsSpill" ~index:(D.of_list 2 !ns_idx)
  in
  (* Which points actually need K rows?  Register pressure only rises
     when something is defined, so checking the points right after a
     definition (and block entries, where paths merge) covers the maxima;
     of those, only points whose live count can exceed a GPR bank's
     capacity matter.  Only there do the clone-set counting variables
     CBefore/CAfter earn their keep. *)
  let def_point = Array.make npoints false in
  List.iter (fun (p2, _) -> def_point.(p2) <- true) mg.Modelgen.def_abw;
  List.iter (fun (p2, _) -> def_point.(p2) <- true) mg.Modelgen.def_ab;
  List.iter
    (fun (ad : Modelgen.agg_def) -> def_point.(ad.Modelgen.ad_point) <- true)
    mg.Modelgen.agg_defs;
  List.iter
    (fun (p1, p2, _, _) ->
      def_point.(p1) <- true;
      def_point.(p2) <- true)
    mg.Modelgen.clones;
  Array.iteri
    (fun p pt -> if pt.Ixp.Flowgraph.pos = 0 then def_point.(p) <- true)
    mg.Modelgen.points;
  let k_point = Array.make npoints false in
  for p = 0 to npoints - 1 do
    if def_point.(p) then
      List.iter
        (fun (b, cap) ->
          let n = ref 0 in
          for k = ex_start.(p) to ex_start.(p + 1) - 1 do
            if List.mem b allowed_t.(ex_temp.(k)) then incr n
          done;
          if !n > cap then k_point.(p) <- true)
        [ (Bank.A, Bank.k_capacity Bank.A); (Bank.B, Bank.k_capacity Bank.B) ]
  done;
  (* Clone families at a point: [count_families p] counts the point's
     members per family into [fam_count] and records the first (smallest)
     in [fam_first], and tells whether some family has two or more.  The
     counts hold until the next call. *)
  let family = mg.Modelgen.temp_family in
  let fam_seen = Array.make ntemps (-1) in
  let fam_count = Array.make ntemps 0 in
  let fam_first = Array.make ntemps 0 in
  let calls = ref 0 in
  let count_families p =
    incr calls;
    let multi = ref false in
    for k = ex_start.(p) to ex_start.(p + 1) - 1 do
      let f = family.(ex_temp.(k)) in
      if fam_seen.(f) <> !calls then begin
        fam_seen.(f) <- !calls;
        fam_count.(f) <- 1;
        fam_first.(f) <- ex_temp.(k)
      end
      else begin
        fam_count.(f) <- fam_count.(f) + 1;
        multi := true
      end
    done;
    !multi
  in
  (* the Move member index of pair k's move b1 -> b2, or -1 when the
     pair is not offered that move *)
  let move_slot k b1 b2 =
    let rec go m =
      if m >= mv_start.(k + 1) then -1
      else if Bank.equal mv_src.(m) b1 && Bank.equal mv_dst.(m) b2 then m
      else go (m + 1)
    in
    if k < 0 then -1 else go mv_start.(k)
  in
  (* clone counting variables at points where >= 2 family members live *)
  let cbefore_idx = ref [] and cmove_idx = ref [] in
  let multi_points = ref [] in
  Array.iteri
    (fun p set ->
      if count_families p then begin
        (* group live members by family representative; the clone
           counting rows follow this table's iteration order *)
        let fams = Hashtbl.create 8 in
        Ident.Set.iter
          (fun v ->
            let rep = mg.Modelgen.clone_family v in
            Hashtbl.replace fams rep
              (v :: Option.value ~default:[] (Hashtbl.find_opt fams rep)))
          set;
        Hashtbl.iter
          (fun rep members ->
            if List.length members >= 2 then begin
              multi_points := (p, rep, members) :: !multi_points;
              (* banks = union of members' allowed *)
              let banks =
                List.sort_uniq Bank.compare (List.concat_map allowed members)
              in
              List.iter
                (fun b ->
                  if k_point.(p) && (Bank.equal b Bank.A || Bank.equal b Bank.B)
                  then
                    cbefore_idx :=
                      [ atom_p p; atom_v rep; atom_b b ] :: !cbefore_idx;
                  List.iter
                    (fun b2 ->
                      if
                        (not (Bank.equal b b2))
                        && Bank.move_legal ~src:b ~dst:b2
                        && List.exists
                             (fun m -> move_slot (Modelgen.pair_of mg p m) b b2 >= 0)
                             members
                      then
                        cmove_idx :=
                          [ atom_p p; atom_v rep; atom_b b; atom_b b2 ]
                          :: !cmove_idx)
                    banks)
                banks
            end)
          fams
      end)
    mg.Modelgen.exists_at;
  let cbefore_set = D.of_list 3 !cbefore_idx in
  let cmove_set = D.of_list 4 !cmove_idx in
  let cbefore_f = M.declare_binary_family model "CBefore" ~index:cbefore_set in
  let cafter_f = M.declare_binary_family model "CAfter" ~index:cbefore_set in
  let cmove_f = M.declare_binary_family model "CMove" ~index:cmove_set in
  (* ---------------- constraints ---------------- *)
  (* Rows are stated term by term on resolved members, each as
     [lhs sense rhs-side]: the left side's terms, then the right side's
     negated.  [rhs c1 c2] is the right-hand side for sides with
     constants c1 and c2, -(c1 - c2), the constants moved over; with
     both zero it is -0., and the LP keeps its bits. *)
  let term c m = M.term model c m in
  let row name sense rhs = M.row model ~name sense rhs in
  let rhs c1 c2 = -.(c1 -. c2) in
  let le = Lp.Problem.Le and ge = Lp.Problem.Ge and eq = Lp.Problem.Eq in
  (* members by (point, temporary, bank); outside the index set they are
     reported at instantiation *)
  let slot k b =
    let rec go s =
      if s >= slot_start.(k + 1) then -1
      else if Bank.equal slot_bank.(s) b then s
      else go (s + 1)
    in
    if k < 0 then -1 else go slot_start.(k)
  in
  let before p v b =
    let s = slot (Modelgen.pair_of mg p v) b in
    if s >= 0 then before_m.(s)
    else M.member before_f [ atom_p p; atom_v v; atom_b b ]
  in
  let after p v b =
    let s = slot (Modelgen.pair_of mg p v) b in
    if s >= 0 then after_m.(s)
    else M.member after_f [ atom_p p; atom_v v; atom_b b ]
  in
  let move p v b1 b2 =
    let m = move_slot (Modelgen.pair_of mg p v) b1 b2 in
    if m >= 0 then move_m.(m)
    else M.member move_f [ atom_p p; atom_v v; atom_b b1; atom_b b2 ]
  in
  let color v b r =
    let i = index v in
    let rec go j = function
      | [] -> M.member color_f [ atom_v v; atom_b b; atom_r r ]
      | b' :: rest ->
          if Bank.equal b b' then color_m.(color_start.(i) + (8 * j) + r)
          else go (j + 1) rest
    in
    go 0 axfer_t.(i)
  in
  (* flow balance linking Before/After to the (non-identity) moves *)
  for k = 0 to npairs - 1 do
    if not fixed_t.(ex_temp.(k)) then begin
      let m0 = mv_start.(k) and m1 = mv_start.(k + 1) in
      for s = slot_start.(k) to slot_start.(k + 1) - 1 do
        let b = slot_bank.(s) in
        term 1. after_m.(s);
        for m = m0 to m1 - 1 do
          if Bank.equal mv_src.(m) b then term 1. move_m.(m)
        done;
        term (-1.) before_m.(s);
        for m = m0 to m1 - 1 do
          if Bank.equal mv_dst.(m) b then term (-1.) move_m.(m)
        done;
        row "flow" eq (rhs 0. 0.)
      done;
      (* in one place only *)
      for s = slot_start.(k) to slot_start.(k + 1) - 1 do
        term 1. before_m.(s)
      done;
      row "one_place" eq (rhs 0. 1.);
      (* at most one move per temporary per point, so that the solution
         reader and the emitter see simple transitions *)
      if m1 > m0 then begin
        for m = m0 to m1 - 1 do
          term 1. move_m.(m)
        done;
        row "one_move" le (rhs 0. 1.)
      end
    end
  done;
  (* copy propagation *)
  List.iter
    (fun (p1, p2, v) ->
      if not (Modelgen.is_fixed mg v) then
        List.iter
          (fun b ->
            term 1. (after p1 v b);
            term (-1.) (before p2 v b);
            row "copy" eq (rhs 0. 0.))
          (allowed v))
    mg.Modelgen.copies;
  (* operand definitions *)
  List.iter
    (fun (p2, v) ->
      if not (Modelgen.is_fixed mg v) then begin
        List.iter
          (fun b -> if List.mem b Bank.alu_outputs then term 1. (before p2 v b))
          (allowed v);
        row "def_abw" eq (rhs 0. 1.)
      end)
    mg.Modelgen.def_abw;
  List.iter
    (fun (p2, v) ->
      if not (Modelgen.is_fixed mg v) then begin
        term 1. (before p2 v Bank.A);
        term 1. (before p2 v Bank.B);
        row "def_ab" eq (rhs 0. 1.)
      end)
    mg.Modelgen.def_ab;
  (* arithmetic operands *)
  let arith_sources v =
    List.filter (fun b -> List.mem b Bank.alu_inputs) (allowed v)
  in
  let sum_after p v banks = List.iter (fun b -> term 1. (after p v b)) banks in
  List.iter
    (fun (p1, v) ->
      if not (Modelgen.is_fixed mg v) then begin
        sum_after p1 v (arith_sources v);
        row "arith1" eq (rhs 0. 1.)
      end)
    mg.Modelgen.arith1;
  List.iter
    (fun (p1, x, y) ->
      match (Modelgen.fixed_bank mg x, Modelgen.fixed_bank mg y) with
      | Some _, Some _ -> () (* 2-coloring made them disjoint *)
      | Some bx, None ->
          (* the modelled operand must avoid the fixed one's bank *)
          sum_after p1 y
            (List.filter (fun b -> not (Bank.equal b bx)) (arith_sources y));
          row "arith_fixed_partner" eq (rhs 0. 1.)
      | None, Some by ->
          sum_after p1 x
            (List.filter (fun b -> not (Bank.equal b by)) (arith_sources x));
          row "arith_fixed_partner" eq (rhs 0. 1.)
      | None, None ->
          let sx = arith_sources x and sy = arith_sources y in
          sum_after p1 x sx;
          row "arith_x" eq (rhs 0. 1.);
          sum_after p1 y sy;
          row "arith_y" eq (rhs 0. 1.);
          (* disjoint bank groups: A, B, and L+LD each supply one operand *)
          List.iter
            (fun b ->
              if List.mem b sx && List.mem b sy then begin
                term 1. (after p1 x b);
                term 1. (after p1 y b);
                row "arith_disjoint" le (rhs 0. 1.)
              end)
            [ Bank.A; Bank.B ];
          sum_after p1 x (List.filter Bank.is_read_transfer sx);
          sum_after p1 y (List.filter Bank.is_read_transfer sy);
          row "arith_xfer_group" le (rhs 0. 1.))
    mg.Modelgen.arith2;
  (* address operands *)
  List.iter
    (fun (p1, v) ->
      if not (Modelgen.is_fixed mg v) then begin
        term 1. (after p1 v Bank.A);
        term 1. (after p1 v Bank.B);
        row "use_ab" eq (rhs 0. 1.)
      end)
    mg.Modelgen.use_ab;
  (* constant definitions pin the virtual bank C (§12): the Imm
     instruction is bookkeeping, and every register copy of the constant
     arises from an explicit C -> GPR move (an immediate load) *)
  List.iter
    (fun (p2, v) ->
      term 1. (before p2 v Bank.C);
      row "const_def" eq (rhs 0. 1.))
    mg.Modelgen.const_defs;
  (* aggregate definitions and uses pin the bank *)
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      let b = Insn.read_bank ad.Modelgen.ad_space in
      Array.iter
        (fun v ->
          term 1. (before ad.Modelgen.ad_point v b);
          row "agg_def" eq (rhs 0. 1.))
        ad.Modelgen.ad_members)
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      let b = Insn.write_bank au.Modelgen.au_space in
      Array.iter
        (fun v ->
          term 1. (after au.Modelgen.au_point v b);
          row "agg_use" eq (rhs 0. 1.))
        au.Modelgen.au_members)
    mg.Modelgen.agg_uses;
  (* each transfer-capable temporary has exactly one color per bank *)
  Array.iteri
    (fun i banks ->
      List.iteri
        (fun j _ ->
          for r = 0 to 7 do
            term 1. color_m.(color_start.(i) + (8 * j) + r)
          done;
          row "color_exists" eq (rhs 0. 1.))
        banks)
    axfer_t;
  (* aggregate adjacency + edge exclusion *)
  let constrain_aggregate members b =
    let n = Array.length members in
    Array.iteri
      (fun j v ->
        (* member j cannot sit below j or above 8-n+j *)
        List.iter
          (fun r ->
            if r < j || r > 8 - n + j then begin
              term 1. (color v b r);
              row "agg_range" eq (rhs 0. 0.)
            end)
          xregs;
        if j + 1 < n then
          for r = 0 to 6 do
            term 1. (color v b r);
            term (-1.) (color members.(j + 1) b (r + 1));
            row "agg_adj" eq (rhs 0. 0.)
          done)
      members
  in
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      constrain_aggregate ad.Modelgen.ad_members (Insn.read_bank ad.Modelgen.ad_space))
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      constrain_aggregate au.Modelgen.au_members (Insn.write_bank au.Modelgen.au_space))
    mg.Modelgen.agg_uses;
  (* same-register instructions *)
  List.iter
    (fun (d, s) ->
      List.iter
        (fun r ->
          term 1. (color d Bank.L r);
          term (-1.) (color s Bank.S r);
          row "same_reg" eq (rhs 0. 0.))
        xregs)
    mg.Modelgen.same_reg;
  (* the points where each temporary exists, ascending *)
  let exists_points = Array.make ntemps [] in
  for p = npoints - 1 downto 0 do
    for k = ex_start.(p) to ex_start.(p + 1) - 1 do
      exists_points.(ex_temp.(k)) <- p :: exists_points.(ex_temp.(k))
    done
  done;
  let points_of v = exists_points.(index v) in
  let rec inter xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' ->
        if x = y then x :: inter xs' ys'
        else if x < y then inter xs' ys
        else inter xs ys'
    | _ -> []
  in
  (* interference: Both linking and color disjointness *)
  List.iter
    (fun (v1, v2, common) ->
      let shared = inter (points_of v1) (points_of v2) in
      List.iter
        (fun b ->
          let both = M.member both_f [ atom_v v1; atom_v v2; atom_b b ] in
          List.iter
            (fun p ->
              term 1. (before p v1 b);
              term 1. (before p v2 b);
              term (-1.) both;
              row "both_before" le (rhs 0. 1.);
              term 1. (after p v1 b);
              term 1. (after p v2 b);
              term (-1.) both;
              row "both_after" le (rhs 0. 1.))
            shared;
          for r = 0 to 7 do
            term 1. (color v1 b r);
            term 1. (color v2 b r);
            term 1. both;
            row "color_disjoint" le (rhs 0. 2.)
          done)
        common)
    !both_pairs;
  (* clone constraints (§10) *)
  List.iter
    (fun (p1, p2, dsts, src) ->
      Array.iter
        (fun d ->
          List.iter
            (fun b ->
              if List.mem b (allowed src) then begin
                term 1. (before p2 d b);
                term (-1.) (after p1 src b);
                row "clone_loc" ge (rhs 0. 0.)
              end;
              if Bank.is_transfer b && List.mem b (axfer src) then
                for r = 0 to 7 do
                  (* if d sits in b right after the clone, colors agree:
                     color d + (1 - before d) >= color src, and back *)
                  term 1. (color d b r);
                  term (-1.) (before p2 d b);
                  term (-1.) (color src b r);
                  row "clone_color1" ge (rhs 1. 0.);
                  term 1. (color src b r);
                  term (-1.) (before p2 d b);
                  term (-1.) (color d b r);
                  row "clone_color2" ge (rhs 1. 0.)
                done)
            (allowed d))
        dsts)
    mg.Modelgen.clones;
  (* clone counting: CBefore/CAfter/CMove *)
  List.iter
    (fun (p, rep, members) ->
      let banks = List.sort_uniq Bank.compare (List.concat_map allowed members) in
      List.iter
        (fun b ->
          if k_point.(p) && (Bank.equal b Bank.A || Bank.equal b Bank.B)
          then begin
            let cb = M.member cbefore_f [ atom_p p; atom_v rep; atom_b b ] in
            let ca = M.member cafter_f [ atom_p p; atom_v rep; atom_b b ] in
            let members_b = List.filter (fun m -> List.mem b (allowed m)) members in
            List.iter
              (fun m ->
                term 1. cb;
                term (-1.) (before p m b);
                row "cbefore_lo" ge (rhs 0. 0.);
                term 1. ca;
                term (-1.) (after p m b);
                row "cafter_lo" ge (rhs 0. 0.))
              members_b;
            term 1. cb;
            List.iter (fun m -> term (-1.) (before p m b)) members_b;
            row "cbefore_hi" le (rhs 0. 0.);
            term 1. ca;
            List.iter (fun m -> term (-1.) (after p m b)) members_b;
            row "cafter_hi" le (rhs 0. 0.)
          end;
          List.iter
            (fun b2 ->
              if (not (Bank.equal b b2)) && Bank.move_legal ~src:b ~dst:b2 then begin
                let cm =
                  M.member cmove_f [ atom_p p; atom_v rep; atom_b b; atom_b b2 ]
                in
                let movers =
                  List.filter
                    (fun m -> move_slot (Modelgen.pair_of mg p m) b b2 >= 0)
                    members
                in
                List.iter
                  (fun m ->
                    term 1. cm;
                    term (-1.) (move p m b b2);
                    row "cmove_lo" ge (rhs 0. 0.))
                  movers;
                if movers <> [] then begin
                  term 1. cm;
                  List.iter (fun m -> term (-1.) (move p m b b2)) movers;
                  row "cmove_hi" le (rhs 0. 0.)
                end
              end)
            banks)
        banks)
    !multi_points;
  (* K constraints for A and B, counting clone families once: a family
     with one member at the point counts through that member's own
     variable, a larger one through CBefore/CAfter (the order of a row's
     terms is immaterial here: every variable already has its number) *)
  for p = 0 to npoints - 1 do
    if k_point.(p) && ex_start.(p + 1) > ex_start.(p) then begin
      ignore (count_families p);
      List.iter
        (fun (b, cap) ->
          let fixed_here = ref 0 in
          let terms_before = ref [] and terms_after = ref [] in
          for k = ex_start.(p) to ex_start.(p + 1) - 1 do
            let i = ex_temp.(k) in
            let f = family.(i) in
            if fam_first.(f) = i then begin
              let v = temps.(i) in
              if fam_count.(f) = 1 then begin
                if fixed_t.(i) then begin
                  match Modelgen.fixed_bank mg v with
                  | Some fb when Bank.equal fb b -> incr fixed_here
                  | _ -> ()
                end
                else if List.mem b allowed_t.(i) then begin
                  terms_before := before p v b :: !terms_before;
                  terms_after := after p v b :: !terms_after
                end
              end
              else begin
                let members = ref [] in
                for k' = k to ex_start.(p + 1) - 1 do
                  if family.(ex_temp.(k')) = f then
                    members := temps.(ex_temp.(k')) :: !members
                done;
                if List.exists (fun m -> List.mem b (allowed m)) !members then begin
                  let rep = temps.(f) in
                  terms_before :=
                    M.member cbefore_f [ atom_p p; atom_v rep; atom_b b ]
                    :: !terms_before;
                  terms_after :=
                    M.member cafter_f [ atom_p p; atom_v rep; atom_b b ]
                    :: !terms_after
                end
              end
            end
          done;
          let cap = cap - !fixed_here in
          if List.length !terms_before > cap then begin
            List.iter (term 1.) !terms_before;
            row "k_before" le (rhs 0. (float_of_int cap));
            List.iter (term 1.) !terms_after;
            row "k_after" le (rhs 0. (float_of_int cap))
          end)
        [ (Bank.A, Bank.k_capacity Bank.A); (Bank.B, Bank.k_capacity Bank.B) ]
    end
  done;
  (* spill headroom (the paper's colorAvail / needsSpill) *)
  let add_headroom p b =
    let ns = M.member needs_spill_f [ atom_p p; atom_b b ] in
    let occ r = M.member occ_f [ atom_p p; atom_b b; atom_r r ] in
    Ident.Set.iter
      (fun v ->
        if List.mem b (allowed v) && Bank.is_transfer b then
          List.iter
            (fun r ->
              term 1. (color v b r);
              term 1. (before p v b);
              term (-1.) (occ r);
              row "occ_before" le (rhs 0. 1.);
              term 1. (color v b r);
              term 1. (after p v b);
              term (-1.) (occ r);
              row "occ_after" le (rhs 0. 1.))
            xregs)
      mg.Modelgen.exists_at.(p);
    List.iter (fun r -> term 1. (occ r)) xregs;
    term 1. ns;
    row "k_headroom" le (rhs 0. 8.);
    (* needsSpill is forced by the relevant moves *)
    let movers = ref [] in
    for k = ex_start.(p) to ex_start.(p + 1) - 1 do
      for m = mv_start.(k) to mv_start.(k + 1) - 1 do
        let b1 = mv_src.(m) and b2 = mv_dst.(m) in
        let relevant =
          match b with
          | Bank.S ->
              Bank.equal b2 Bank.M
              && (not (Bank.is_write_transfer b1))
              && not (Bank.equal b1 Bank.M)
          | Bank.L ->
              Bank.equal b1 Bank.M
              && (Bank.equal b2 Bank.A || Bank.equal b2 Bank.B)
          | _ -> false
        in
        if relevant then begin
          term 1. ns;
          term (-1.) move_m.(m);
          row "needs_spill" ge (rhs 0. 0.);
          movers := move_m.(m) :: !movers
        end
      done
    done;
    if !movers <> [] then begin
      term 1. ns;
      List.iter (term (-1.)) !movers;
      row "needs_spill_hi" le (rhs 0. 0.)
    end
  in
  Hashtbl.iter (fun p () -> add_headroom p Bank.S) spill_points_s;
  Hashtbl.iter (fun p () -> add_headroom p Bank.L) spill_points_l;
  (* ---------------- objective ---------------- *)
  (match objective_mode with
  | Minimize_moves ->
      for p = 0 to npoints - 1 do
        let w = mg.Modelgen.weights.(p) in
        ignore (count_families p);
        for k = ex_start.(p) to ex_start.(p + 1) - 1 do
          let i = ex_temp.(k) in
          let v = temps.(i) in
          let f = family.(i) in
          for m = mv_start.(k) to mv_start.(k + 1) - 1 do
            let b1 = mv_src.(m) and b2 = mv_dst.(m) in
            let cost =
              (* loading a constant costs by its magnitude (§12);
                 discarding a register copy of one is free *)
              if Bank.equal b1 Bank.C then
                match Modelgen.const_of mg v with
                | Some value -> Modelgen.imm_cost value
                | None -> Bank.move_cost ~src:b1 ~dst:b2 ()
              else Bank.move_cost ~src:b1 ~dst:b2 ()
            in
            if fam_count.(f) >= 2 then begin
              (* charge the whole family once through CMove; emit the
                 term only when visiting the smallest live member so it
                 is not duplicated *)
              let tuple = [ atom_p p; temp_atoms.(f); atom_b b1; atom_b b2 ] in
              if fam_first.(f) = i && D.mem cmove_set tuple then
                M.objective_term model (w *. cost) (M.member cmove_f tuple)
            end
            else M.objective_term model (w *. cost) move_m.(m)
          done
        done
      done
  | Spill_feasibility ->
      (* the §11 alternative objective: find whether spills are needed at
         all, and where -- minimize scratch traffic only *)
      for p = 0 to npoints - 1 do
        for m = mv_start.(ex_start.(p)) to mv_start.(ex_start.(p + 1)) - 1 do
          if Bank.equal mv_src.(m) Bank.M || Bank.equal mv_dst.(m) Bank.M then
            M.objective_term model mg.Modelgen.weights.(p) move_m.(m)
        done
      done);
  (* Symmetry breaking: transfer-register colors are interchangeable for
     singleton aggregates, which makes branch&bound wander through
     equivalent assignments.  A tiny register-ordered perturbation makes
     every temporary prefer the lowest free register, so the LP relaxation
     lands on integral corners; the weights are orders of magnitude below
     any real move cost and cannot change which solution is optimal in
     moves.  Auxiliary indicator families get the same treatment so they
     sit at their forced bounds. *)
  let eps = 1e-7 in
  Array.iteri
    (fun c m -> M.objective_term model (eps *. float_of_int ((c mod 8) + 1)) m)
    color_m;
  List.iter
    (fun (v1, v2, common) ->
      List.iter
        (fun b ->
          M.objective_term model eps
            (M.member both_f [ atom_v v1; atom_v v2; atom_b b ]))
        common)
    !both_pairs;
  D.iter
    (fun tup -> M.objective_term model eps (M.member cbefore_f tup))
    cbefore_set;
  let instance = M.instantiate model in
  {
    mg;
    model;
    instance;
    objective_mode;
    before_f;
    after_f;
    move_f;
    color_f;
    slot_start;
    slot_bank;
    before_m;
    after_m;
    move_m;
    color_start;
    color_m;
  }

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)
(* ------------------------------------------------------------------ *)

type solution = {
  assignment : float array;
  result : Lp.Mip.result;
  ilp : t;
}

let solve ?(time_limit = 300.) ?(node_limit = 500_000) ?(rel_gap = 1e-4)
    ?(domains = 1) ?(deterministic = false)
    ?(warm = Lp.Mip.no_warm_start) (ilp : t) =
  let result =
    Lp.Mip.solve ~time_limit ~node_limit ~rel_gap ~domains ~deterministic
      ~warm ilp.instance.M.problem
  in
  match result.Lp.Mip.status with
  | Lp.Mip.Infeasible -> Error `Infeasible
  | Lp.Mip.Optimal -> Ok { assignment = result.Lp.Mip.solution; result; ilp }
  | Lp.Mip.Limit ->
      (* a feasible incumbent found within the budget is still a valid
         allocation; only fail when none was found at all *)
      if Float.is_finite result.Lp.Mip.objective then
        Ok { assignment = result.Lp.Mip.solution; result; ilp }
      else Error `Limit
