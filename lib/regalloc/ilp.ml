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
}

let xregs = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* family membership helpers *)
let family_live_members mg p v =
  List.filter
    (fun m -> Ident.Set.mem m mg.Modelgen.exists_at.(p))
    (mg.Modelgen.clone_mates v)

let in_multi_family mg p v = List.length (family_live_members mg p v) >= 2

(* iterate Exists restricted to modelled (non-fixed) temporaries *)
let iter_modeled mg f =
  Modelgen.iter_exists mg (fun p v ->
      if not (Modelgen.is_fixed mg v) then f p v)

let build ?(objective_mode = Minimize_moves) (mg : Modelgen.t) : t =
  let model = M.create () in
  (* every reference to a temporary shares one atom, its name formatted
     once per build *)
  let atoms = Ident.Tbl.create 256 in
  let atom_v v =
    match Ident.Tbl.find_opt atoms v with
    | Some a -> a
    | None ->
        let a = atom_v v in
        Ident.Tbl.replace atoms v a;
        a
  in
  let point_atoms = Array.init (Array.length mg.Modelgen.points) atom_p in
  let atom_p p = point_atoms.(p) in
  let allowed = Modelgen.allowed_banks mg in
  let axfer = Modelgen.allowed_xfer mg in
  (* ---------------- index sets ---------------- *)
  let before_idx = ref [] in
  let move_idx = ref [] in
  (* Only non-identity moves get variables; staying put is the default
     expressed by the per-bank flow balance below (a Fu&Wilken-style
     variable reduction: identity moves made up half the Move family). *)
  let real_pairs p v =
    List.filter
      (fun (b1, b2) -> not (Bank.equal b1 b2))
      (Modelgen.legal_move_pairs mg p v)
  in
  iter_modeled mg (fun p v ->
      List.iter
        (fun b -> before_idx := [ atom_p p; atom_v v; atom_b b ] :: !before_idx)
        (allowed v);
      List.iter
        (fun (b1, b2) ->
          move_idx := [ atom_p p; atom_v v; atom_b b1; atom_b b2 ] :: !move_idx)
        (real_pairs p v));
  let before_set = D.of_list 3 !before_idx in
  let move_set = D.of_list 4 !move_idx in
  let before_f = M.declare_binary_family model "Before" ~index:before_set in
  let after_f = M.declare_binary_family model "After" ~index:before_set in
  let move_f = M.declare_binary_family model "Move" ~index:move_set in
  (* Color *)
  let color_idx = ref [] in
  Array.iter
    (fun v ->
      List.iter
        (fun b ->
          List.iter
            (fun r -> color_idx := [ atom_v v; atom_b b; atom_r r ] :: !color_idx)
            xregs)
        (axfer v))
    mg.Modelgen.temps;
  let color_set = D.of_list 3 !color_idx in
  let color_f = M.declare_binary_family model "Color" ~index:color_set in
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
  (* spill headroom variables at points where spill moves are possible *)
  let spill_points_s = Hashtbl.create 16 in
  let spill_points_l = Hashtbl.create 16 in
  D.iter
    (fun tup ->
      match tup with
      | [ D.I p; _; D.S b1; D.S b2 ] ->
          let b1 = Bank.of_string b1 and b2 = Bank.of_string b2 in
          if Bank.equal b2 Bank.M && not (Bank.is_write_transfer b1) &&
             not (Bank.equal b1 Bank.M)
          then Hashtbl.replace spill_points_s p ();
          if Bank.equal b1 Bank.M && (Bank.equal b2 Bank.A || Bank.equal b2 Bank.B)
          then Hashtbl.replace spill_points_l p ()
      | _ -> ())
    move_set;
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
  let def_point = Hashtbl.create 64 in
  List.iter (fun (p2, _) -> Hashtbl.replace def_point p2 ()) mg.Modelgen.def_abw;
  List.iter (fun (p2, _) -> Hashtbl.replace def_point p2 ()) mg.Modelgen.def_ab;
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      Hashtbl.replace def_point ad.Modelgen.ad_point ())
    mg.Modelgen.agg_defs;
  List.iter
    (fun (p1, p2, _, _) ->
      Hashtbl.replace def_point p1 ();
      Hashtbl.replace def_point p2 ())
    mg.Modelgen.clones;
  Array.iteri
    (fun p pt ->
      if pt.Ixp.Flowgraph.pos = 0 then Hashtbl.replace def_point p ())
    mg.Modelgen.points;
  let k_point = Hashtbl.create 64 in
  Array.iteri
    (fun p set ->
      if Hashtbl.mem def_point p then
        List.iter
          (fun (b, cap) ->
            let n =
              Ident.Set.fold
                (fun v n ->
                  if List.mem b (allowed v) then n + 1 else n)
                set 0
            in
            if n > cap then Hashtbl.replace k_point p ())
          [ (Bank.A, Bank.k_capacity Bank.A); (Bank.B, Bank.k_capacity Bank.B) ])
    mg.Modelgen.exists_at;
  (* clone counting variables at points where >= 2 family members live *)
  let cbefore_idx = ref [] and cmove_idx = ref [] in
  let multi_points = ref [] in
  Array.iteri
    (fun p set ->
      (* group live members by family representative *)
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
                if
                  Hashtbl.mem k_point p
                  && (Bank.equal b Bank.A || Bank.equal b Bank.B)
                then
                  cbefore_idx :=
                    [ atom_p p; atom_v rep; atom_b b ] :: !cbefore_idx;
                List.iter
                  (fun b2 ->
                    if
                      (not (Bank.equal b b2))
                      && Bank.move_legal ~src:b ~dst:b2
                      && List.exists
                           (fun m ->
                             List.exists
                               (fun (x, y) -> Bank.equal x b && Bank.equal y b2)
                               (Modelgen.legal_move_pairs mg p m))
                           members
                    then
                      cmove_idx :=
                        [ atom_p p; atom_v rep; atom_b b; atom_b b2 ]
                        :: !cmove_idx)
                  banks)
              banks
          end)
        fams)
    mg.Modelgen.exists_at;
  let cbefore_set = D.of_list 3 !cbefore_idx in
  let cmove_set = D.of_list 4 !cmove_idx in
  let cbefore_f = M.declare_binary_family model "CBefore" ~index:cbefore_set in
  let cafter_f = M.declare_binary_family model "CAfter" ~index:cbefore_set in
  let cmove_f = M.declare_binary_family model "CMove" ~index:cmove_set in
  (* ---------------- constraints ---------------- *)
  let before p v b = M.v before_f [ atom_p p; atom_v v; atom_b b ] in
  let after p v b = M.v after_f [ atom_p p; atom_v v; atom_b b ] in
  let move p v b1 b2 =
    M.v move_f [ atom_p p; atom_v v; atom_b b1; atom_b b2 ]
  in
  let color v b r = M.v color_f [ atom_v v; atom_b b; atom_r r ] in
  let one = M.const 1. in
  let sum_over_list xs f = M.sum (List.map f xs) in
  (* flow balance linking Before/After to the (non-identity) moves *)
  iter_modeled mg (fun p v ->
      let banks = allowed v in
      let pairs = real_pairs p v in
      List.iter
        (fun b ->
          let outs = List.filter (fun (s, _) -> Bank.equal s b) pairs in
          let ins = List.filter (fun (_, d) -> Bank.equal d b) pairs in
          if outs = [] && ins = [] then
            M.add_eq model ~name:"flow" (after p v b) (before p v b)
          else
            M.add_eq model ~name:"flow"
              (M.add (after p v b)
                 (sum_over_list outs (fun (b1, b2) -> move p v b1 b2)))
              (M.add (before p v b)
                 (sum_over_list ins (fun (b1, b2) -> move p v b1 b2))))
        banks;
      (* in one place only *)
      M.add_eq model ~name:"one_place"
        (sum_over_list banks (fun b -> before p v b))
        one;
      (* at most one move per temporary per point, so that the solution
         reader and the emitter see simple transitions *)
      if pairs <> [] then
        M.add_le model ~name:"one_move"
          (sum_over_list pairs (fun (b1, b2) -> move p v b1 b2))
          one);
  (* copy propagation *)
  List.iter
    (fun (p1, p2, v) ->
      if not (Modelgen.is_fixed mg v) then
        List.iter
          (fun b ->
            M.add_eq model ~name:"copy" (after p1 v b) (before p2 v b))
          (allowed v))
    mg.Modelgen.copies;
  (* operand definitions *)
  List.iter
    (fun (p2, v) ->
      if not (Modelgen.is_fixed mg v) then begin
        let banks =
          List.filter (fun b -> List.mem b Bank.alu_outputs) (allowed v)
        in
        M.add_eq model ~name:"def_abw"
          (sum_over_list banks (fun b -> before p2 v b))
          one
      end)
    mg.Modelgen.def_abw;
  List.iter
    (fun (p2, v) ->
      if not (Modelgen.is_fixed mg v) then
        M.add_eq model ~name:"def_ab"
          (M.add (before p2 v Bank.A) (before p2 v Bank.B))
          one)
    mg.Modelgen.def_ab;
  (* arithmetic operands *)
  let arith_sources v =
    List.filter (fun b -> List.mem b Bank.alu_inputs) (allowed v)
  in
  List.iter
    (fun (p1, v) ->
      if not (Modelgen.is_fixed mg v) then
        M.add_eq model ~name:"arith1"
          (sum_over_list (arith_sources v) (fun b -> after p1 v b))
          one)
    mg.Modelgen.arith1;
  List.iter
    (fun (p1, x, y) ->
      match (Modelgen.fixed_bank mg x, Modelgen.fixed_bank mg y) with
      | Some _, Some _ -> () (* 2-coloring made them disjoint *)
      | Some bx, None ->
          (* the modelled operand must avoid the fixed one's bank *)
          M.add_eq model ~name:"arith_fixed_partner"
            (sum_over_list
               (List.filter (fun b -> not (Bank.equal b bx)) (arith_sources y))
               (fun b -> after p1 y b))
            one
      | None, Some by ->
          M.add_eq model ~name:"arith_fixed_partner"
            (sum_over_list
               (List.filter (fun b -> not (Bank.equal b by)) (arith_sources x))
               (fun b -> after p1 x b))
            one
      | None, None ->
          M.add_eq model ~name:"arith_x"
            (sum_over_list (arith_sources x) (fun b -> after p1 x b))
            one;
          M.add_eq model ~name:"arith_y"
            (sum_over_list (arith_sources y) (fun b -> after p1 y b))
            one;
          (* disjoint bank groups: A, B, and L+LD each supply one operand *)
          List.iter
            (fun b ->
              if List.mem b (arith_sources x) && List.mem b (arith_sources y)
              then
                M.add_le model ~name:"arith_disjoint"
                  (M.add (after p1 x b) (after p1 y b))
                  one)
            [ Bank.A; Bank.B ];
          let xl =
            sum_over_list
              (List.filter (fun b -> Bank.is_read_transfer b) (arith_sources x))
              (fun b -> after p1 x b)
          in
          let yl =
            sum_over_list
              (List.filter (fun b -> Bank.is_read_transfer b) (arith_sources y))
              (fun b -> after p1 y b)
          in
          M.add_le model ~name:"arith_xfer_group" (M.add xl yl) one)
    mg.Modelgen.arith2;
  (* address operands *)
  List.iter
    (fun (p1, v) ->
      if not (Modelgen.is_fixed mg v) then
        M.add_eq model ~name:"use_ab"
          (M.add (after p1 v Bank.A) (after p1 v Bank.B))
          one)
    mg.Modelgen.use_ab;
  (* constant definitions pin the virtual bank C (§12): the Imm
     instruction is bookkeeping, and every register copy of the constant
     arises from an explicit C -> GPR move (an immediate load) *)
  List.iter
    (fun (p2, v) ->
      M.add_eq model ~name:"const_def" (before p2 v Bank.C) one)
    mg.Modelgen.const_defs;
  (* aggregate definitions and uses pin the bank *)
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      let b = Insn.read_bank ad.Modelgen.ad_space in
      Array.iter
        (fun v ->
          M.add_eq model ~name:"agg_def" (before ad.Modelgen.ad_point v b) one)
        ad.Modelgen.ad_members)
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      let b = Insn.write_bank au.Modelgen.au_space in
      Array.iter
        (fun v ->
          M.add_eq model ~name:"agg_use" (after au.Modelgen.au_point v b) one)
        au.Modelgen.au_members)
    mg.Modelgen.agg_uses;
  (* each transfer-capable temporary has exactly one color per bank *)
  Array.iter
    (fun v ->
      List.iter
        (fun b ->
          M.add_eq model ~name:"color_exists"
            (sum_over_list xregs (fun r -> color v b r))
            one)
        (axfer v))
    mg.Modelgen.temps;
  (* aggregate adjacency + edge exclusion *)
  let constrain_aggregate members b =
    let n = Array.length members in
    Array.iteri
      (fun j v ->
        (* member j cannot sit below j or above 8-n+j *)
        List.iter
          (fun r ->
            if r < j || r > 8 - n + j then
              M.add_eq model ~name:"agg_range" (color v b r) M.zero)
          xregs;
        if j + 1 < n then
          List.iter
            (fun r ->
              if r + 1 <= 7 then
                M.add_eq model ~name:"agg_adj" (color v b r)
                  (color members.(j + 1) b (r + 1)))
            (List.filter (fun r -> r < 7) xregs))
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
          M.add_eq model ~name:"same_reg" (color d Bank.L r) (color s Bank.S r))
        xregs)
    mg.Modelgen.same_reg;
  (* the points where each temporary exists, ascending *)
  let exists_points = Ident.Tbl.create 256 in
  for p = Array.length mg.Modelgen.exists_at - 1 downto 0 do
    Ident.Set.iter
      (fun v ->
        Ident.Tbl.replace exists_points v
          (p :: Option.value ~default:[] (Ident.Tbl.find_opt exists_points v)))
      mg.Modelgen.exists_at.(p)
  done;
  let points_of v =
    Option.value ~default:[] (Ident.Tbl.find_opt exists_points v)
  in
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
          let both = M.v both_f [ atom_v v1; atom_v v2; atom_b b ] in
          List.iter
            (fun p ->
              M.add_le model ~name:"both_before"
                (M.add (before p v1 b) (before p v2 b))
                (M.add one both);
              M.add_le model ~name:"both_after"
                (M.add (after p v1 b) (after p v2 b))
                (M.add one both))
            shared;
          List.iter
            (fun r ->
              M.add_le model ~name:"color_disjoint"
                (M.sum [ color v1 b r; color v2 b r; both ])
                (M.const 2.))
            xregs)
        common)
    !both_pairs;
  (* clone constraints (§10) *)
  List.iter
    (fun (p1, p2, dsts, src) ->
      Array.iter
        (fun d ->
          List.iter
            (fun b ->
              if List.mem b (allowed src) then
                M.add_ge model ~name:"clone_loc" (before p2 d b)
                  (after p1 src b);
              if Bank.is_transfer b && List.mem b (axfer src) then
                List.iter
                  (fun r ->
                    (* if d sits in b right after the clone, colors agree *)
                    M.add_ge model ~name:"clone_color1"
                      (M.add (color d b r) (M.sub one (before p2 d b)))
                      (color src b r);
                    M.add_ge model ~name:"clone_color2"
                      (M.add (color src b r) (M.sub one (before p2 d b)))
                      (color d b r))
                  xregs)
            (allowed d))
        dsts)
    mg.Modelgen.clones;
  (* clone counting: CBefore/CAfter/CMove *)
  List.iter
    (fun (p, rep, members) ->
      let banks = List.sort_uniq Bank.compare (List.concat_map allowed members) in
      List.iter
        (fun b ->
          if
            Hashtbl.mem k_point p
            && (Bank.equal b Bank.A || Bank.equal b Bank.B)
          then begin
            let cb = M.v cbefore_f [ atom_p p; atom_v rep; atom_b b ] in
            let ca = M.v cafter_f [ atom_p p; atom_v rep; atom_b b ] in
            let members_b = List.filter (fun m -> List.mem b (allowed m)) members in
            List.iter
              (fun m ->
                M.add_ge model ~name:"cbefore_lo" cb (before p m b);
                M.add_ge model ~name:"cafter_lo" ca (after p m b))
              members_b;
            M.add_le model ~name:"cbefore_hi" cb
              (sum_over_list members_b (fun m -> before p m b));
            M.add_le model ~name:"cafter_hi" ca
              (sum_over_list members_b (fun m -> after p m b))
          end;
          List.iter
            (fun b2 ->
              if (not (Bank.equal b b2)) && Bank.move_legal ~src:b ~dst:b2 then begin
                let cm =
                  M.v cmove_f [ atom_p p; atom_v rep; atom_b b; atom_b b2 ]
                in
                let movers =
                  List.filter
                    (fun m ->
                      List.exists
                        (fun (x, y) -> Bank.equal x b && Bank.equal y b2)
                        (Modelgen.legal_move_pairs mg p m))
                    members
                in
                List.iter
                  (fun m -> M.add_ge model ~name:"cmove_lo" cm (move p m b b2))
                  movers;
                if movers <> [] then
                  M.add_le model ~name:"cmove_hi" cm
                    (sum_over_list movers (fun m -> move p m b b2))
              end)
            banks)
        banks)
    !multi_points;
  (* K constraints for A and B, counting clone families once *)
  Array.iteri
    (fun p set ->
      if Hashtbl.mem k_point p && not (Ident.Set.is_empty set) then begin
        (* terms per family *)
        let fams = Hashtbl.create 8 in
        Ident.Set.iter
          (fun v ->
            let rep = mg.Modelgen.clone_family v in
            Hashtbl.replace fams rep
              (v :: Option.value ~default:[] (Hashtbl.find_opt fams rep)))
          set;
        List.iter
          (fun (b, cap) ->
            let fixed_here = ref 0 in
            let terms_before = ref [] and terms_after = ref [] in
            Hashtbl.iter
              (fun rep members ->
                match members with
                | [ v ] when Modelgen.is_fixed mg v ->
                    (match Modelgen.fixed_bank mg v with
                    | Some fb when Bank.equal fb b -> incr fixed_here
                    | _ -> ());
                    ignore rep
                | [ v ] ->
                    if List.mem b (allowed v) then begin
                      terms_before := before p v b :: !terms_before;
                      terms_after := after p v b :: !terms_after
                    end
                | _ ->
                    let banks = List.concat_map allowed members in
                    if List.mem b banks then begin
                      terms_before :=
                        M.v cbefore_f [ atom_p p; atom_v rep; atom_b b ]
                        :: !terms_before;
                      terms_after :=
                        M.v cafter_f [ atom_p p; atom_v rep; atom_b b ]
                        :: !terms_after
                    end)
              fams;
            let cap = cap - !fixed_here in
            if List.length !terms_before > cap then begin
              M.add_le model ~name:"k_before" (M.sum !terms_before)
                (M.const (float_of_int cap));
              M.add_le model ~name:"k_after" (M.sum !terms_after)
                (M.const (float_of_int cap))
            end)
          [ (Bank.A, Bank.k_capacity Bank.A); (Bank.B, Bank.k_capacity Bank.B) ]
      end)
    mg.Modelgen.exists_at;
  (* spill headroom (the paper's colorAvail / needsSpill) *)
  let add_headroom p b =
    let ns = M.v needs_spill_f [ atom_p p; atom_b b ] in
    let occ r = M.v occ_f [ atom_p p; atom_b b; atom_r r ] in
    Ident.Set.iter
      (fun v ->
        if List.mem b (allowed v) && Bank.is_transfer b then
          List.iter
            (fun r ->
              M.add_le model ~name:"occ_before"
                (M.add (color v b r) (before p v b))
                (M.add one (occ r));
              M.add_le model ~name:"occ_after"
                (M.add (color v b r) (after p v b))
                (M.add one (occ r)))
            xregs)
      mg.Modelgen.exists_at.(p);
    M.add_le model ~name:"k_headroom"
      (M.add (sum_over_list xregs occ) ns)
      (M.const 8.);
    (* needsSpill is forced by the relevant moves *)
    let movers = ref [] in
    Ident.Set.iter
      (fun v ->
        if not (Modelgen.is_fixed mg v) then
          List.iter
            (fun (b1, b2) ->
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
                M.add_ge model ~name:"needs_spill" ns (move p v b1 b2);
                movers := move p v b1 b2 :: !movers
              end)
            (Modelgen.legal_move_pairs mg p v))
      mg.Modelgen.exists_at.(p);
    if !movers <> [] then
      M.add_le model ~name:"needs_spill_hi" ns (M.sum !movers)
  in
  Hashtbl.iter (fun p () -> add_headroom p Bank.S) spill_points_s;
  Hashtbl.iter (fun p () -> add_headroom p Bank.L) spill_points_l;
  (* ---------------- objective ---------------- *)
  (match objective_mode with
  | Minimize_moves ->
      iter_modeled mg (fun p v ->
          let w = mg.Modelgen.weights.(p) in
          let multi = in_multi_family mg p v in
          let rep = mg.Modelgen.clone_family v in
          List.iter
            (fun (b1, b2) ->
              if not (Bank.equal b1 b2) then begin
                let cost =
                  (* loading a constant costs by its magnitude (§12);
                     discarding a register copy of one is free *)
                  if Bank.equal b1 Bank.C then
                    match Modelgen.const_of mg v with
                    | Some value -> Modelgen.imm_cost value
                    | None -> Bank.move_cost ~src:b1 ~dst:b2 ()
                  else Bank.move_cost ~src:b1 ~dst:b2 ()
                in
                if multi then begin
                  (* charge the whole family once through CMove; emit the
                     term only when visiting the smallest live member so
                     it is not duplicated *)
                  let members = family_live_members mg p v in
                  let smallest = List.hd (List.sort Ident.compare members) in
                  if
                    Ident.equal v smallest
                    && D.mem cmove_set
                         [ atom_p p; atom_v rep; atom_b b1; atom_b b2 ]
                  then
                    M.add_to_objective model
                      (M.v cmove_f ~coef:(w *. cost)
                         [ atom_p p; atom_v rep; atom_b b1; atom_b b2 ])
                end
                else
                  M.add_to_objective model
                    (M.v move_f ~coef:(w *. cost)
                       [ atom_p p; atom_v v; atom_b b1; atom_b b2 ])
              end)
            (Modelgen.legal_move_pairs mg p v))
  | Spill_feasibility ->
      (* the §11 alternative objective: find whether spills are needed at
         all, and where -- minimize scratch traffic only *)
      iter_modeled mg (fun p v ->
          List.iter
            (fun (b1, b2) ->
              if
                (not (Bank.equal b1 b2))
                && (Bank.equal b1 Bank.M || Bank.equal b2 Bank.M)
              then
                M.add_to_objective model
                  (M.v move_f ~coef:mg.Modelgen.weights.(p)
                     [ atom_p p; atom_v v; atom_b b1; atom_b b2 ]))
            (Modelgen.legal_move_pairs mg p v)));
  (* Symmetry breaking: transfer-register colors are interchangeable for
     singleton aggregates, which makes branch&bound wander through
     equivalent assignments.  A tiny register-ordered perturbation makes
     every temporary prefer the lowest free register, so the LP relaxation
     lands on integral corners; the weights are orders of magnitude below
     any real move cost and cannot change which solution is optimal in
     moves.  Auxiliary indicator families get the same treatment so they
     sit at their forced bounds. *)
  let eps = 1e-7 in
  Array.iter
    (fun v ->
      List.iter
        (fun b ->
          List.iter
            (fun r ->
              M.add_to_objective model
                (M.v color_f
                   ~coef:(eps *. float_of_int (r + 1))
                   [ atom_v v; atom_b b; atom_r r ]))
            xregs)
        (axfer v))
    mg.Modelgen.temps;
  List.iter
    (fun (v1, v2, common) ->
      List.iter
        (fun b ->
          M.add_to_objective model
            (M.v both_f ~coef:eps [ atom_v v1; atom_v v2; atom_b b ]))
        common)
    !both_pairs;
  D.iter
    (fun tup -> M.add_to_objective model (M.v cbefore_f ~coef:eps tup))
    cbefore_set;
  let instance = M.instantiate model in
  { mg; model; instance; objective_mode; before_f; after_f; move_f; color_f }

(* ------------------------------------------------------------------ *)
(* Solving and solution reading                                        *)
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

let bank_before (s : solution) p v =
  match Modelgen.fixed_bank s.ilp.mg v with
  | Some b -> Some b
  | None ->
      let banks = Modelgen.allowed_banks s.ilp.mg v in
      List.find_opt
        (fun b ->
          M.is_one s.ilp.instance s.assignment s.ilp.before_f
            [ atom_p p; atom_v v; atom_b b ])
        banks

let bank_after (s : solution) p v =
  match Modelgen.fixed_bank s.ilp.mg v with
  | Some b -> Some b
  | None ->
      let banks = Modelgen.allowed_banks s.ilp.mg v in
      List.find_opt
        (fun b ->
          M.is_one s.ilp.instance s.assignment s.ilp.after_f
            [ atom_p p; atom_v v; atom_b b ])
        banks

let moves_at (s : solution) p =
  let acc = ref [] in
  Ident.Set.iter
    (fun v ->
      if not (Modelgen.is_fixed s.ilp.mg v) then
        List.iter
          (fun (b1, b2) ->
            if
              (not (Bank.equal b1 b2))
              && M.is_one s.ilp.instance s.assignment s.ilp.move_f
                   [ atom_p p; atom_v v; atom_b b1; atom_b b2 ]
            then acc := (v, b1, b2) :: !acc)
          (Modelgen.legal_move_pairs s.ilp.mg p v))
    s.ilp.mg.Modelgen.exists_at.(p);
  !acc

let color_of (s : solution) v b =
  List.find_opt
    (fun r ->
      M.is_one s.ilp.instance s.assignment s.ilp.color_f
        [ atom_v v; atom_b b; atom_r r ])
    xregs

(* Count the weighted and unweighted moves/spills in the solution. *)
type move_stats = { total_moves : int; spill_moves : int; weighted_cost : float }

let move_stats (s : solution) =
  let total = ref 0 and spills = ref 0 and cost = ref 0. in
  Array.iteri
    (fun p _ ->
      List.iter
        (fun (_, b1, b2) ->
          incr total;
          if Bank.equal b1 Bank.M || Bank.equal b2 Bank.M then incr spills;
          cost :=
            !cost
            +. (s.ilp.mg.Modelgen.weights.(p) *. Bank.move_cost ~src:b1 ~dst:b2 ()))
        (moves_at s p))
    s.ilp.mg.Modelgen.points;
  { total_moves = !total; spill_moves = !spills; weighted_cost = !cost }
