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
module M = Ampl.Model
module Bank = Ixp.Bank
module Insn = Ixp.Insn

type objective_mode = Minimize_moves | Spill_feasibility

type t = {
  mg : Modelgen.t;
  model : M.t;
  problem : Lp.Problem.t; (* the LP [model] stated *)
  objective_mode : objective_mode;
  (* the members the solution is read back through, by dense index.
     Exists pair k's Before and After members are [slot_start.(k)] ..
     [slot_start.(k+1) - 1], one per allowed bank of its temporary in
     order ([slot_bank]); fixed temporaries have none.  Move's are [Modelgen]'s moves, one for one.
     Temporary i's Color members start at [color_start.(i)]: register r
     of its j-th transfer bank is [color_start.(i) + 8j + r]. *)
  slot_start : int array;
  slot_bank : Bank.t array;
  before_m : M.member array;
  after_m : M.member array;
  move_m : M.member array;
  color_start : int array;
  color_m : M.member array;
  (* the Color members' LP variables: branch and bound branches on them
     before any other, since the bank and move variables mostly come
     out integral once the colors are fixed *)
  branch_first : int array;
}

let xregs = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let bank_index = function
  | Bank.A -> 0
  | Bank.B -> 1
  | Bank.L -> 2
  | Bank.LD -> 3
  | Bank.S -> 4
  | Bank.SD -> 5
  | Bank.M -> 6
  | Bank.C -> 7

let build ?(objective_mode = Minimize_moves) (mg : Modelgen.t) : t =
  let model = M.create () in
  let temps = mg.Modelgen.temps in
  let ntemps = Array.length temps in
  let npoints = Array.length mg.Modelgen.points in
  let npairs = Modelgen.num_pairs mg in
  let ex_start = mg.Modelgen.ex_start and ex_temp = mg.Modelgen.ex_temp in
  let mv_start = mg.Modelgen.mv_start in
  let mv_src = mg.Modelgen.mv_src and mv_dst = mg.Modelgen.mv_dst in
  let nmoves = Array.length mv_src in
  let family = mg.Modelgen.temp_family in
  let allowed_t = mg.Modelgen.temp_allowed in
  let axfer_t = Array.map (List.filter Bank.is_transfer) allowed_t in
  let fixed_t = Array.map (Modelgen.is_fixed mg) temps in
  let index v = Modelgen.temp_index mg v in
  (* ---------------- dense index sets ---------------- *)
  let pair_point = Array.make npairs 0 in
  for p = 0 to npoints - 1 do
    Array.fill pair_point ex_start.(p) (ex_start.(p + 1) - ex_start.(p)) p
  done;
  (* the pairs of each temporary, by ascending point *)
  let temp_pairs =
    let count = Array.make ntemps 0 in
    Array.iter (fun i -> count.(i) <- count.(i) + 1) ex_temp;
    let tp = Array.map (fun n -> Array.make n 0) count in
    Array.fill count 0 ntemps 0;
    for k = 0 to npairs - 1 do
      let i = ex_temp.(k) in
      tp.(i).(count.(i)) <- k;
      count.(i) <- count.(i) + 1
    done;
    tp
  in
  (* Variable names print the index: a point or register as a number, a
     temporary by its name, a bank by its letter. *)
  let temp_names = Array.map Ident.name temps in
  let nat = M.add_nat in
  let str = Buffer.add_string in
  let comma b = Buffer.add_char b ',' in
  let bank b x = str b (Bank.to_string x) in
  let point_temp b p i =
    nat b p;
    comma b;
    str b temp_names.(i)
  in
  (* "p,v," for pair k, shared by its Before, After and Move names *)
  let pair_prefix = Array.make npairs "" in
  let prefix b k =
    if pair_prefix.(k) = "" then begin
      let pb = Buffer.create 16 in
      point_temp pb pair_point.(k) ex_temp.(k);
      comma pb;
      pair_prefix.(k) <- Buffer.contents pb
    end;
    str b pair_prefix.(k)
  in
  (* Before/After: one member per modelled Exists pair and allowed bank *)
  let slot_start = Array.make (npairs + 1) 0 in
  for k = 0 to npairs - 1 do
    let i = ex_temp.(k) in
    slot_start.(k + 1) <-
      (slot_start.(k) + if fixed_t.(i) then 0 else List.length allowed_t.(i))
  done;
  let nslots = slot_start.(npairs) in
  let slot_bank = Array.make nslots Bank.A in
  let slot_pair = Array.make nslots 0 in
  for k = 0 to npairs - 1 do
    let i = ex_temp.(k) in
    if not fixed_t.(i) then
      List.iteri
        (fun j b ->
          slot_bank.(slot_start.(k) + j) <- b;
          slot_pair.(slot_start.(k) + j) <- k)
        allowed_t.(i)
  done;
  let print_slot b s =
    prefix b slot_pair.(s);
    bank b slot_bank.(s)
  in
  let before_f = M.declare_binary model "Before" nslots ~index:print_slot in
  let after_f = M.declare_binary model "After" nslots ~index:print_slot in
  (* Only non-identity moves get variables; staying put is the default
     expressed by the per-bank flow balance below (a Fu&Wilken-style
     variable reduction: identity moves made up half the Move family). *)
  let mv_pair = Array.make nmoves 0 in
  for k = 0 to npairs - 1 do
    Array.fill mv_pair mv_start.(k) (mv_start.(k + 1) - mv_start.(k)) k
  done;
  let move_f =
    M.declare_binary model "Move" nmoves ~index:(fun b m ->
        prefix b mv_pair.(m);
        bank b mv_src.(m);
        comma b;
        bank b mv_dst.(m))
  in
  let before_m = M.members before_f and after_m = M.members after_f in
  let move_m = M.members move_f in
  (* Color: blocks of 8 registers, one per temporary and transfer bank *)
  let color_start = Array.make (ntemps + 1) 0 in
  for i = 0 to ntemps - 1 do
    color_start.(i + 1) <- color_start.(i) + (8 * List.length axfer_t.(i))
  done;
  let block_temp = Array.make (color_start.(ntemps) / 8) 0 in
  let block_bank = Array.make (color_start.(ntemps) / 8) Bank.L in
  Array.iteri
    (fun i banks ->
      List.iteri
        (fun j b ->
          block_temp.((color_start.(i) / 8) + j) <- i;
          block_bank.((color_start.(i) / 8) + j) <- b)
        banks)
    axfer_t;
  let color_f =
    M.declare_binary model "Color" color_start.(ntemps) ~index:(fun b c ->
        str b temp_names.(block_temp.(c / 8));
        comma b;
        bank b block_bank.(c / 8);
        comma b;
        nat b (c mod 8))
  in
  let color_m = M.members color_f in
  (* interference pairs with a common transfer bank.  Members of the same
     aggregate already receive distinct colors through the adjacency
     chain, so their pairwise machinery is redundant in that bank.  A
     temporary's aggregate in a bank is the last one listing it. *)
  let agg_of = Array.make (ntemps * 8) (-1) in
  List.iteri
    (fun n (ad : Modelgen.agg_def) ->
      let b = bank_index (Insn.read_bank ad.Modelgen.ad_space) in
      Array.iter
        (fun v -> agg_of.((index v * 8) + b) <- n)
        ad.Modelgen.ad_members)
    mg.Modelgen.agg_defs;
  List.iteri
    (fun n (au : Modelgen.agg_use) ->
      let b = bank_index (Insn.write_bank au.Modelgen.au_space) in
      Array.iter
        (fun v -> agg_of.((index v * 8) + b) <- 10000 + n)
        au.Modelgen.au_members)
    mg.Modelgen.agg_uses;
  let same_aggregate i1 i2 b =
    let a = agg_of.((i1 * 8) + bank_index b) in
    a >= 0 && a = agg_of.((i2 * 8) + bank_index b)
  in
  (* the pairs in reverse of [interferes]' order, each with its common
     banks; Both's members are theirs in that order *)
  let both =
    Array.of_list
      (List.fold_left
         (fun acc (v1, v2) ->
           let i1 = index v1 and i2 = index v2 in
           let common =
             List.filter
               (fun b -> List.mem b axfer_t.(i2) && not (same_aggregate i1 i2 b))
               axfer_t.(i1)
           in
           if common = [] then acc else (i1, i2, common) :: acc)
         [] mg.Modelgen.interferes)
  in
  let both_start = Array.make (Array.length both + 1) 0 in
  Array.iteri
    (fun e (_, _, common) ->
      both_start.(e + 1) <- both_start.(e) + List.length common)
    both;
  let both_entry = Array.make both_start.(Array.length both) 0 in
  let both_bank = Array.make both_start.(Array.length both) Bank.L in
  Array.iteri
    (fun e (_, _, common) ->
      List.iteri
        (fun q b ->
          both_entry.(both_start.(e) + q) <- e;
          both_bank.(both_start.(e) + q) <- b)
        common)
    both;
  let both_f =
    M.declare_binary model "Both" (Array.length both_entry) ~index:(fun b q ->
        let i1, i2, _ = both.(both_entry.(q)) in
        str b temp_names.(i1);
        comma b;
        str b temp_names.(i2);
        comma b;
        bank b both_bank.(q))
  in
  let both_m = M.members both_f in
  (* spill headroom at points where spill moves are possible: S where a
     value may be stored to scratch, L where one may be reloaded; S's
     points first, each bank's in the order [Hashtbl_order.iter] gives points
     added ascending *)
  let spill_s = Array.make npoints false and spill_l = Array.make npoints false in
  for m = 0 to nmoves - 1 do
    let p = pair_point.(mv_pair.(m)) in
    let b1 = mv_src.(m) and b2 = mv_dst.(m) in
    if Bank.equal b2 Bank.M && (not (Bank.is_write_transfer b1))
       && not (Bank.equal b1 Bank.M)
    then spill_s.(p) <- true;
    if Bank.equal b1 Bank.M && (Bank.equal b2 Bank.A || Bank.equal b2 Bank.B)
    then spill_l.(p) <- true
  done;
  let spill_points marked b =
    let points =
      Array.of_list
        (List.filter (fun p -> marked.(p)) (List.init npoints Fun.id))
    in
    Array.map
      (fun o -> (points.(o), b))
      (Hashtbl_order.iter ~initial:16 (Array.map Hashtbl.hash points))
  in
  let headroom =
    Array.append (spill_points spill_s Bank.S) (spill_points spill_l Bank.L)
  in
  let needs_spill_f =
    M.declare_binary model "NeedsSpill" (Array.length headroom)
      ~index:(fun b h ->
        let p, x = headroom.(h) in
        nat b p;
        comma b;
        bank b x)
  in
  let occ_f =
    M.declare_binary model "Occ" (8 * Array.length headroom) ~index:(fun b o ->
        let p, x = headroom.(o / 8) in
        nat b p;
        comma b;
        bank b x;
        comma b;
        nat b (o mod 8))
  in
  let needs_spill_m = M.members needs_spill_f and occ_m = M.members occ_f in
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
  (* the Move member index of pair k's move b1 -> b2, or -1 when the
     pair is not offered that move *)
  let move_slot k b1 b2 =
    let rec go m =
      if m >= mv_start.(k + 1) then -1
      else if Bank.equal mv_src.(m) b1 && Bank.equal mv_dst.(m) b2 then m
      else go (m + 1)
    in
    go mv_start.(k)
  in
  (* Clone families, grouped once per point: [fam_size.(k)] is how many
     members pair k's family has at its point, [fam_first.(k)] whether k
     is the first (smallest) of them.  A family with two or more members
     at a point is a group; the clone counting variables and rows belong
     to groups.  The groups are listed by descending point, and at one
     point in reverse of [Hashtbl_order.iter] over the point's families keyed
     by their representative, added in order of their first member. *)
  let fam_size = Array.make npairs 1 and fam_first = Array.make npairs true in
  let group_of = Array.make npairs (-1) in
  let groups = ref [] in
  let seen = Array.make ntemps (-1) and count = Array.make ntemps 0 in
  let first = Array.make ntemps 0 in
  for p = 0 to npoints - 1 do
    let lo = ex_start.(p) and hi = ex_start.(p + 1) in
    let fams = ref [] in
    for k = lo to hi - 1 do
      let f = family.(ex_temp.(k)) in
      if seen.(f) <> p then begin
        seen.(f) <- p;
        count.(f) <- 1;
        first.(f) <- k;
        fams := f :: !fams
      end
      else count.(f) <- count.(f) + 1
    done;
    let multi = ref false in
    for k = lo to hi - 1 do
      let f = family.(ex_temp.(k)) in
      fam_size.(k) <- count.(f);
      fam_first.(k) <- first.(f) = k;
      if count.(f) >= 2 then multi := true
    done;
    if !multi then begin
      let fams = Array.of_list (List.rev !fams) in
      Array.iter
        (fun o ->
          let f = fams.(o) in
          if count.(f) >= 2 then begin
            let members = ref [] in
            for k = first.(f) to hi - 1 do
              if family.(ex_temp.(k)) = f then members := k :: !members
            done;
            groups := (p, f, !members) :: !groups
          end)
        (Hashtbl_order.iter ~initial:16
           (Array.map (fun f -> Hashtbl.hash temps.(f)) fams))
    end
  done;
  let groups = Array.of_list !groups in
  let allowed_k k = allowed_t.(ex_temp.(k)) in
  (* per group: its banks (the union of its members' allowed), the banks
     with a CBefore/CAfter member (A and B at K points) and the moves
     with a CMove member (those some member is offered) *)
  let cb = Vec.create () and cm = Vec.create () in
  (* group g's entries are [cb_start.(g)] .. [cb_start.(g+1) - 1], and
     likewise for [cm] *)
  let cb_start = Array.make (Array.length groups + 1) 0 in
  let cm_start = Array.make (Array.length groups + 1) 0 in
  let group_banks =
    Array.mapi
      (fun g (p, _, members) ->
        cb_start.(g) <- Vec.length cb;
        cm_start.(g) <- Vec.length cm;
        List.iter (fun k -> group_of.(k) <- g) members;
        let banks =
          List.sort_uniq Bank.compare (List.concat_map allowed_k members)
        in
        List.iter
          (fun b ->
            if k_point.(p) && (Bank.equal b Bank.A || Bank.equal b Bank.B)
            then Vec.push cb (g, b);
            List.iter
              (fun b2 ->
                if
                  (not (Bank.equal b b2))
                  && Bank.move_legal ~src:b ~dst:b2
                  && List.exists (fun k -> move_slot k b b2 >= 0) members
                then Vec.push cm (g, b, b2))
              banks)
          banks;
        banks)
      groups
  in
  cb_start.(Array.length groups) <- Vec.length cb;
  cm_start.(Array.length groups) <- Vec.length cm;
  let cb = Vec.to_array cb and cm = Vec.to_array cm in
  let group_index b g =
    let p, f, _ = groups.(g) in
    point_temp b p f
  in
  let print_cb b c =
    let g, x = cb.(c) in
    group_index b g;
    comma b;
    bank b x
  in
  let cbefore_f = M.declare_binary model "CBefore" (Array.length cb) ~index:print_cb in
  let cafter_f = M.declare_binary model "CAfter" (Array.length cb) ~index:print_cb in
  let cmove_f =
    M.declare_binary model "CMove" (Array.length cm) ~index:(fun b c ->
        let g, x, y = cm.(c) in
        group_index b g;
        comma b;
        bank b x;
        comma b;
        bank b y)
  in
  let cbefore_m = M.members cbefore_f and cafter_m = M.members cafter_f in
  let cmove_m = M.members cmove_f in
  let find what start a g matches =
    let rec go c =
      if c >= start.(g + 1) then Diag.ice "Ilp: no %s member" what
      else if matches a.(c) then c
      else go (c + 1)
    in
    go start.(g)
  in
  let cb_index g b = find "CBefore" cb_start cb g (fun (_, b') -> Bank.equal b b') in
  let cm_index g b1 b2 =
    find "CMove" cm_start cm g (fun (_, x, y) ->
        Bank.equal x b1 && Bank.equal y b2)
  in
  (* ---------------- objective ---------------- *)
  (* stated first, so that its variables get the low indices *)
  (match objective_mode with
  | Minimize_moves ->
      for p = 0 to npoints - 1 do
        let w = mg.Modelgen.weights.(p) in
        for k = ex_start.(p) to ex_start.(p + 1) - 1 do
          let v = temps.(ex_temp.(k)) in
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
            if fam_size.(k) >= 2 then begin
              (* charge the whole family once through CMove; emit the
                 term only when visiting the smallest live member so it
                 is not duplicated *)
              if fam_first.(k) then
                M.objective_term model (w *. cost)
                  cmove_m.(cm_index group_of.(k) b1 b2)
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
     sit at their forced bounds: Both's members in their order, CBefore's
     by point, then representative name, then bank name. *)
  let eps = 1e-7 in
  Array.iteri
    (fun c m -> M.objective_term model (eps *. float_of_int ((c mod 8) + 1)) m)
    color_m;
  Array.iter (M.objective_term model eps) both_m;
  let cb_key c =
    let g, b = cb.(c) in
    let p, f, _ = groups.(g) in
    (p, temp_names.(f), Bank.to_string b)
  in
  let cb_order = Array.init (Array.length cb) Fun.id in
  Array.sort (fun a b -> compare (cb_key a) (cb_key b)) cb_order;
  Array.iter (fun c -> M.objective_term model eps cbefore_m.(c)) cb_order;
  (* ---------------- constraints ---------------- *)
  (* Rows are stated term by term on members, each as
     [lhs sense rhs-side]: the left side's terms, then the right side's
     negated.  [rhs c1 c2] is the right-hand side for sides with
     constants c1 and c2, -(c1 - c2), the constants moved over; with
     both zero it is -0., and the LP keeps its bits. *)
  let term c m = M.term model c m in
  let row name sense rhs = M.row model ~name sense rhs in
  let rhs c1 c2 = -.(c1 -. c2) in
  let le = Lp.Problem.Le and ge = Lp.Problem.Ge and eq = Lp.Problem.Eq in
  (* pairs and members by point, temporary and bank *)
  let pair p v =
    let k = Modelgen.pair_of mg p v in
    if k < 0 then Diag.ice "Ilp: %a does not exist at point %d" Ident.pp v p;
    k
  in
  let slot k b =
    let rec go s =
      if s >= slot_start.(k + 1) then
        Diag.ice "Ilp: Before/After[%d,%s,%a] is outside the model"
          pair_point.(k) temp_names.(ex_temp.(k)) Bank.pp b
      else if Bank.equal slot_bank.(s) b then s
      else go (s + 1)
    in
    go slot_start.(k)
  in
  let before k b = before_m.(slot k b) and after k b = after_m.(slot k b) in
  let color i b r =
    let rec go j = function
      | [] ->
          Diag.ice "Ilp: Color[%s,%a,%d] is outside the model" temp_names.(i)
            Bank.pp b r
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
      let i = index v in
      if not fixed_t.(i) then begin
        let k1 = pair p1 v and k2 = pair p2 v in
        List.iter
          (fun b ->
            term 1. (after k1 b);
            term (-1.) (before k2 b);
            row "copy" eq (rhs 0. 0.))
          allowed_t.(i)
      end)
    mg.Modelgen.copies;
  (* operand definitions *)
  List.iter
    (fun (p2, v) ->
      let i = index v in
      if not fixed_t.(i) then begin
        let k = pair p2 v in
        List.iter
          (fun b -> if List.mem b Bank.alu_outputs then term 1. (before k b))
          allowed_t.(i);
        row "def_abw" eq (rhs 0. 1.)
      end)
    mg.Modelgen.def_abw;
  List.iter
    (fun (p2, v) ->
      if not fixed_t.(index v) then begin
        let k = pair p2 v in
        term 1. (before k Bank.A);
        term 1. (before k Bank.B);
        row "def_ab" eq (rhs 0. 1.)
      end)
    mg.Modelgen.def_ab;
  (* arithmetic operands *)
  let arith_sources i =
    List.filter (fun b -> List.mem b Bank.alu_inputs) allowed_t.(i)
  in
  let sum_after k banks = List.iter (fun b -> term 1. (after k b)) banks in
  List.iter
    (fun (p1, v) ->
      let i = index v in
      if not fixed_t.(i) then begin
        sum_after (pair p1 v) (arith_sources i);
        row "arith1" eq (rhs 0. 1.)
      end)
    mg.Modelgen.arith1;
  List.iter
    (fun (p1, x, y) ->
      let partner z bz =
        (* the modelled operand must avoid the fixed one's bank *)
        sum_after (pair p1 z)
          (List.filter
             (fun b -> not (Bank.equal b bz))
             (arith_sources (index z)));
        row "arith_fixed_partner" eq (rhs 0. 1.)
      in
      match (Modelgen.fixed_bank mg x, Modelgen.fixed_bank mg y) with
      | Some _, Some _ -> () (* 2-coloring made them disjoint *)
      | Some bx, None -> partner y bx
      | None, Some by -> partner x by
      | None, None ->
          let kx = pair p1 x and ky = pair p1 y in
          let sx = arith_sources (index x) and sy = arith_sources (index y) in
          sum_after kx sx;
          row "arith_x" eq (rhs 0. 1.);
          sum_after ky sy;
          row "arith_y" eq (rhs 0. 1.);
          (* disjoint bank groups: A, B, and L+LD each supply one operand *)
          List.iter
            (fun b ->
              if List.mem b sx && List.mem b sy then begin
                term 1. (after kx b);
                term 1. (after ky b);
                row "arith_disjoint" le (rhs 0. 1.)
              end)
            [ Bank.A; Bank.B ];
          sum_after kx (List.filter Bank.is_read_transfer sx);
          sum_after ky (List.filter Bank.is_read_transfer sy);
          row "arith_xfer_group" le (rhs 0. 1.))
    mg.Modelgen.arith2;
  (* address operands *)
  List.iter
    (fun (p1, v) ->
      if not fixed_t.(index v) then begin
        let k = pair p1 v in
        term 1. (after k Bank.A);
        term 1. (after k Bank.B);
        row "use_ab" eq (rhs 0. 1.)
      end)
    mg.Modelgen.use_ab;
  (* constant definitions pin the virtual bank C (§12): the Imm
     instruction is bookkeeping, and every register copy of the constant
     arises from an explicit C -> GPR move (an immediate load) *)
  List.iter
    (fun (p2, v) ->
      term 1. (before (pair p2 v) Bank.C);
      row "const_def" eq (rhs 0. 1.))
    mg.Modelgen.const_defs;
  (* aggregate definitions and uses pin the bank *)
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      let b = Insn.read_bank ad.Modelgen.ad_space in
      Array.iter
        (fun v ->
          term 1. (before (pair ad.Modelgen.ad_point v) b);
          row "agg_def" eq (rhs 0. 1.))
        ad.Modelgen.ad_members)
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      let b = Insn.write_bank au.Modelgen.au_space in
      Array.iter
        (fun v ->
          term 1. (after (pair au.Modelgen.au_point v) b);
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
    let members = Array.map index members in
    Array.iteri
      (fun j i ->
        (* member j cannot sit below j or above 8-n+j *)
        List.iter
          (fun r ->
            if r < j || r > 8 - n + j then begin
              term 1. (color i b r);
              row "agg_range" eq (rhs 0. 0.)
            end)
          xregs;
        if j + 1 < n then
          for r = 0 to 6 do
            term 1. (color i b r);
            term (-1.) (color members.(j + 1) b (r + 1));
            row "agg_adj" eq (rhs 0. 0.)
          done)
      members
  in
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      constrain_aggregate ad.Modelgen.ad_members
        (Insn.read_bank ad.Modelgen.ad_space))
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      constrain_aggregate au.Modelgen.au_members
        (Insn.write_bank au.Modelgen.au_space))
    mg.Modelgen.agg_uses;
  (* same-register instructions *)
  List.iter
    (fun (d, s) ->
      let d = index d and s = index s in
      List.iter
        (fun r ->
          term 1. (color d Bank.L r);
          term (-1.) (color s Bank.S r);
          row "same_reg" eq (rhs 0. 0.))
        xregs)
    mg.Modelgen.same_reg;
  (* interference: Both linking at every point both temporaries exist,
     and color disjointness *)
  Array.iteri
    (fun e (i1, i2, common) ->
      let ks1 = temp_pairs.(i1) and ks2 = temp_pairs.(i2) in
      List.iteri
        (fun q b ->
          let both = both_m.(both_start.(e) + q) in
          let a = ref 0 and c = ref 0 in
          while !a < Array.length ks1 && !c < Array.length ks2 do
            let k1 = ks1.(!a) and k2 = ks2.(!c) in
            let p1 = pair_point.(k1) and p2 = pair_point.(k2) in
            if p1 < p2 then incr a
            else if p2 < p1 then incr c
            else begin
              term 1. (before k1 b);
              term 1. (before k2 b);
              term (-1.) both;
              row "both_before" le (rhs 0. 1.);
              term 1. (after k1 b);
              term 1. (after k2 b);
              term (-1.) both;
              row "both_after" le (rhs 0. 1.);
              incr a;
              incr c
            end
          done;
          for r = 0 to 7 do
            term 1. (color i1 b r);
            term 1. (color i2 b r);
            term 1. both;
            row "color_disjoint" le (rhs 0. 2.)
          done)
        common)
    both;
  (* clone constraints (§10) *)
  List.iter
    (fun (p1, p2, dsts, src) ->
      let si = index src and ks = pair p1 src in
      Array.iter
        (fun d ->
          let di = index d and kd = pair p2 d in
          List.iter
            (fun b ->
              if List.mem b allowed_t.(si) then begin
                term 1. (before kd b);
                term (-1.) (after ks b);
                row "clone_loc" ge (rhs 0. 0.)
              end;
              if Bank.is_transfer b && List.mem b axfer_t.(si) then
                for r = 0 to 7 do
                  (* if d sits in b right after the clone, colors agree:
                     color d + (1 - before d) >= color src, and back *)
                  term 1. (color di b r);
                  term (-1.) (before kd b);
                  term (-1.) (color si b r);
                  row "clone_color1" ge (rhs 1. 0.);
                  term 1. (color si b r);
                  term (-1.) (before kd b);
                  term (-1.) (color di b r);
                  row "clone_color2" ge (rhs 1. 0.)
                done)
            allowed_t.(di))
        dsts)
    mg.Modelgen.clones;
  (* clone counting: CBefore/CAfter/CMove *)
  Array.iteri
    (fun g (p, _, members) ->
      let banks = group_banks.(g) in
      List.iter
        (fun b ->
          if k_point.(p) && (Bank.equal b Bank.A || Bank.equal b Bank.B)
          then begin
            let c = cb_index g b in
            let cb = cbefore_m.(c) and ca = cafter_m.(c) in
            let members_b =
              List.filter (fun k -> List.mem b (allowed_k k)) members
            in
            List.iter
              (fun k ->
                term 1. cb;
                term (-1.) (before k b);
                row "cbefore_lo" ge (rhs 0. 0.);
                term 1. ca;
                term (-1.) (after k b);
                row "cafter_lo" ge (rhs 0. 0.))
              members_b;
            term 1. cb;
            List.iter (fun k -> term (-1.) (before k b)) members_b;
            row "cbefore_hi" le (rhs 0. 0.);
            term 1. ca;
            List.iter (fun k -> term (-1.) (after k b)) members_b;
            row "cafter_hi" le (rhs 0. 0.)
          end;
          List.iter
            (fun b2 ->
              if (not (Bank.equal b b2)) && Bank.move_legal ~src:b ~dst:b2
              then begin
                let movers =
                  List.filter_map
                    (fun k ->
                      let m = move_slot k b b2 in
                      if m >= 0 then Some move_m.(m) else None)
                    members
                in
                if movers <> [] then begin
                  let cm = cmove_m.(cm_index g b b2) in
                  List.iter
                    (fun mv ->
                      term 1. cm;
                      term (-1.) mv;
                      row "cmove_lo" ge (rhs 0. 0.))
                    movers;
                  term 1. cm;
                  List.iter (fun mv -> term (-1.) mv) movers;
                  row "cmove_hi" le (rhs 0. 0.)
                end
              end)
            banks)
        banks)
    groups;
  (* K constraints for A and B, counting clone families once: a family
     with one member at the point counts through that member's own
     variable, a larger one through CBefore/CAfter (the order of a row's
     terms is immaterial here: every variable already has its number) *)
  for p = 0 to npoints - 1 do
    if k_point.(p) && ex_start.(p + 1) > ex_start.(p) then
      List.iter
        (fun (b, cap) ->
          let fixed_here = ref 0 in
          let terms_before = ref [] and terms_after = ref [] in
          for k = ex_start.(p) to ex_start.(p + 1) - 1 do
            let i = ex_temp.(k) in
            if fam_first.(k) then
              if fam_size.(k) = 1 then begin
                if fixed_t.(i) then begin
                  match Modelgen.fixed_bank mg temps.(i) with
                  | Some fb when Bank.equal fb b -> incr fixed_here
                  | _ -> ()
                end
                else if List.mem b allowed_t.(i) then begin
                  terms_before := before k b :: !terms_before;
                  terms_after := after k b :: !terms_after
                end
              end
              else if List.mem b group_banks.(group_of.(k)) then begin
                let c = cb_index group_of.(k) b in
                terms_before := cbefore_m.(c) :: !terms_before;
                terms_after := cafter_m.(c) :: !terms_after
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
  done;
  (* spill headroom (the paper's colorAvail / needsSpill) *)
  Array.iteri
    (fun h (p, b) ->
      let ns = needs_spill_m.(h) in
      let occ r = occ_m.((8 * h) + r) in
      for k = ex_start.(p) to ex_start.(p + 1) - 1 do
        let i = ex_temp.(k) in
        if List.mem b allowed_t.(i) && Bank.is_transfer b then
          List.iter
            (fun r ->
              term 1. (color i b r);
              term 1. (before k b);
              term (-1.) (occ r);
              row "occ_before" le (rhs 0. 1.);
              term 1. (color i b r);
              term 1. (after k b);
              term (-1.) (occ r);
              row "occ_after" le (rhs 0. 1.))
            xregs
      done;
      List.iter (fun r -> term 1. (occ r)) xregs;
      term 1. ns;
      row "k_headroom" le (rhs 0. 8.);
      (* needsSpill is forced by the relevant moves *)
      let movers = ref [] in
      for m = mv_start.(ex_start.(p)) to mv_start.(ex_start.(p + 1)) - 1 do
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
      done;
      if !movers <> [] then begin
        term 1. ns;
        List.iter (term (-1.)) !movers;
        row "needs_spill_hi" le (rhs 0. 0.)
      end)
    headroom;
  let branch_first = Array.map (M.resolve model) color_m in
  {
    mg;
    model;
    problem = M.problem model;
    objective_mode;
    slot_start;
    slot_bank;
    before_m;
    after_m;
    move_m;
    color_start;
    color_m;
    branch_first;
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
    ?hints (ilp : t) =
  let result =
    Lp.Mip.solve ~time_limit ~node_limit ~rel_gap ?hints
      ~branch_first:ilp.branch_first ilp.problem
  in
  match (result.Lp.Mip.status, result.Lp.Mip.solution) with
  | Lp.Mip.Infeasible, _ -> Error `Infeasible
  (* a feasible incumbent found within the budget is still a valid
     allocation; only fail when none was found at all *)
  | (Lp.Mip.Optimal | Lp.Mip.Limit), Some x ->
      Ok { assignment = x; result; ilp }
  | (Lp.Mip.Optimal | Lp.Mip.Limit), None -> Error `Limit
