(* Model-generation analysis (paper §5.2, §8).

   Extracts from a virtual-register flowgraph everything the ILP model is
   instantiated with:
     - program points and their edges (the paper's set P);
     - the Exists and Copy sets from liveness;
     - operand-class sets per instruction (DefABW, Arith, DefL_i, UseS_i,
       DefLD_j, UseSD_j, SameReg, Clone) via [Ixp.Insn.classify];
     - the Interferes relation, minus clone families (§10);
     - static frequency weights (§7);
     - the §8 static analysis pruning the set of banks each temporary may
       ever occupy, plus the move-point restriction that keeps the model
       within reach of our in-repo MIP solver (in the spirit of Fu &
       Wilken's variable-reduction, which the paper §2.1 cites as the
       same problem). *)

open Support
module FG = Ixp.Flowgraph
module Insn = Ixp.Insn
module Bank = Ixp.Bank

type point = FG.point

type agg_def = {
  ad_space : Insn.space;
  ad_members : Ident.t array;
  ad_point : int; (* point id after the defining instruction *)
}

type agg_use = {
  au_space : Insn.space;
  au_members : Ident.t array;
  au_point : int; (* point id before the using instruction *)
}

type t = {
  graph : Ident.t FG.t;
  live : Ixp.Liveness.t;
  freq : Ixp.Frequency.t;
  points : point array;
  block_start : (string, int) Hashtbl.t;
      (* block label -> id of its entry point; a block's points are
         numbered consecutively, so point [pos] is that id + [pos] *)
  (* edges between points *)
  insn_edges : (int * int * Ident.t Insn.t) list; (* p1, p2, the insn *)
  control_edges : (int * int) list;
  temps : Ident.t array;
  temp_id : int Ident.Tbl.t;
  (* The Exists set as dense pairs: point p's are [ex_start.(p)] ..
     [ex_start.(p+1) - 1], one per temporary existing there, by
     ascending temporary index *)
  ex_start : int array;
  ex_temp : int array; (* pair -> temporary index *)
  (* the non-identity moves the model offers each pair, under the
     move-point restriction (a temporary moves freely only where
     something relevant happens, and elsewhere at most out of the banks
     an aggregate transfer needs vacated): pair k's are [mv_start.(k)] ..
     [mv_start.(k+1) - 1], source bank ranging over the temporary's
     allowed banks in order, then the destination *)
  mv_start : int array;
  mv_src : Bank.t array;
  mv_dst : Bank.t array;
  copies : (int * int * Ident.t) list;
  (* operand classes, with point ids *)
  def_abw : (int * Ident.t) list; (* before-point of result *)
  def_ab : (int * Ident.t) list;
  agg_defs : agg_def list;
  agg_uses : agg_use list;
  arith2 : (int * Ident.t * Ident.t) list; (* after-point of operands *)
  arith1 : (int * Ident.t) list;
  use_ab : (int * Ident.t) list;
  same_reg : (Ident.t * Ident.t) list; (* (read side d, write side s) *)
  clones : (int * int * Ident.t array * Ident.t) list; (* p1, p2, dsts, src *)
  temp_family : int array; (* temporary index -> clone family representative's *)
  interferes : (Ident.t * Ident.t) list; (* clone mates excluded *)
  temp_allowed : Bank.t list array; (* §8 pruning, by temporary index *)
  (* §8-style model reduction: temporaries that can never live in a
     transfer bank are pre-assigned a GPR bank (2-colored around ALU
     operand conflicts) and left out of the ILP; the K constraints see
     them as capacity reductions. *)
  fixed : Bank.t Ident.Tbl.t;
  (* §12 rematerialization: constants as temporaries with a virtual bank
     C; maps the temp to its constant value *)
  const_value : int Ident.Tbl.t;
  const_defs : (int * Ident.t) list; (* pin Before[p2,v,C] = 1 *)
  weights : float array; (* by point id *)
}

let point_of t id = t.points.(id)
let id_of_point t (p : point) = Hashtbl.find t.block_start p.FG.block + p.FG.pos

let temp_index t v = Ident.Tbl.find t.temp_id v
let allowed_banks t v = t.temp_allowed.(temp_index t v)

let fixed_bank t v = Ident.Tbl.find_opt t.fixed v
let is_fixed t v = Ident.Tbl.mem t.fixed v

let num_pairs t = Array.length t.ex_temp

(* The pair of temporary index [i] at point [p], or -1 when it does not
   exist there: a binary search of the point's pairs. *)
let pair t p i =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let j = t.ex_temp.(mid) in
      if j = i then mid else if j < i then go (mid + 1) hi else go lo mid
  in
  go t.ex_start.(p) t.ex_start.(p + 1)

let pair_of t p v =
  match Ident.Tbl.find_opt t.temp_id v with Some i -> pair t p i | None -> -1

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* [allow_spill]: when false (the default driver behaviour), scratch
   memory M is left out of every allowed set, which removes all Move
   variables through M and the entire needsSpill/colorAvail machinery --
   the paper's own observation (§11) that deciding spills separately
   makes the linear program much smaller.  The driver retries with
   [allow_spill:true] if the spill-free model is infeasible. *)
let const_of t v = Ident.Tbl.find_opt t.const_value v

(* cost of materializing a constant: small values take one instruction,
   full-width values two (matches the simulator's Imm cost) *)
let imm_cost value = if value land 0xFFFFFFFF < 0x10000 then 1.0 else 2.0

let build ?(allow_spill = false) ?(rematerialize = false)
    (graph : Ident.t FG.t) : t =
  Trace.with_span "modelgen"
    ~args:
      [
        ("allow_spill", Trace.Bool allow_spill);
        ("rematerialize", Trace.Bool rematerialize);
      ]
  @@ fun () ->
  let live = Ixp.Liveness.compute graph in
  let freq = Ixp.Frequency.compute graph in
  let points = Array.of_list (FG.points graph) in
  let block_start = Hashtbl.create 16 in
  Array.iteri
    (fun i (p : point) ->
      if p.FG.pos = 0 then Hashtbl.replace block_start p.FG.block i)
    points;
  let pid (p : point) = Hashtbl.find block_start p.FG.block + p.FG.pos in
  let insn_edges = ref [] and control_edges = ref [] in
  List.iter
    (fun e ->
      match e with
      | FG.Through_insn (p1, p2) ->
          let b = FG.block graph p1.FG.block in
          insn_edges :=
            (pid p1, pid p2, b.FG.insns.(p1.FG.pos)) :: !insn_edges
      | FG.Control (p1, p2) -> control_edges := (pid p1, pid p2) :: !control_edges)
    (FG.point_edges graph);
  let temps_set = Ixp.Liveness.all_temps graph in
  let temps = Array.of_list (Ident.Set.elements temps_set) in
  let temp_id = Ident.Tbl.create (Array.length temps) in
  Array.iteri (fun i v -> Ident.Tbl.replace temp_id v i) temps;
  let exists_at =
    Array.map (fun p -> Ixp.Liveness.exists_at live p) points
  in
  let copies =
    List.map
      (fun (p1, p2, v) -> (pid p1, pid p2, v))
      (Ixp.Liveness.copies live)
  in
  (* operand classes *)
  let def_abw = ref [] and def_ab = ref [] in
  let agg_defs = ref [] and agg_uses = ref [] in
  let arith2 = ref [] and arith1 = ref [] and use_ab = ref [] in
  let same_reg = ref [] and clones = ref [] in
  let add_classes p1 p2 (c : Ident.t Insn.constraints) =
    List.iter
      (fun dc ->
        match dc with
        | Insn.Def_abw v -> def_abw := (p2, v) :: !def_abw
        | Insn.Def_ab v -> def_ab := (p2, v) :: !def_ab
        | Insn.Def_agg (space, members) ->
            agg_defs :=
              { ad_space = space; ad_members = members; ad_point = p2 }
              :: !agg_defs)
      c.Insn.def_classes;
    List.iter
      (fun uc ->
        match uc with
        | Insn.Use_arith1 v -> arith1 := (p1, v) :: !arith1
        | Insn.Use_arith2 (x, y) -> arith2 := (p1, x, y) :: !arith2
        | Insn.Use_agg (space, members) ->
            agg_uses :=
              { au_space = space; au_members = members; au_point = p1 }
              :: !agg_uses
        | Insn.Use_ab v -> use_ab := (p1, v) :: !use_ab)
      c.Insn.use_classes;
    List.iter (fun pair -> same_reg := pair :: !same_reg) c.Insn.same_reg;
    match c.Insn.is_clone with
    | Some (dsts, src) -> clones := (p1, p2, dsts, src) :: !clones
    | None -> ()
  in
  List.iter
    (fun (p1, p2, insn) -> add_classes p1 p2 (Insn.classify insn))
    !insn_edges;
  (* terminator constraints anchor at the block's exit point *)
  FG.iter_blocks
    (fun b ->
      let exit_id = pid { FG.block = b.FG.label; pos = Array.length b.FG.insns } in
      let c = Insn.term_constraints b.FG.term in
      add_classes exit_id exit_id c)
    graph;
  (* clone families via union-find over temp indices *)
  let uf = Union_find.create (Array.length temps) in
  List.iter
    (fun (_, _, dsts, src) ->
      let si = Ident.Tbl.find temp_id src in
      Array.iter (fun d -> ignore (Union_find.union uf si (Ident.Tbl.find temp_id d))) dsts)
    !clones;
  let temp_family = Array.init (Array.length temps) (Union_find.find uf) in
  let family v = temp_family.(Ident.Tbl.find temp_id v) in
  let family_size = Array.make (Array.length temps) 0 in
  Array.iter (fun f -> family_size.(f) <- family_size.(f) + 1) temp_family;
  (* interference: simultaneously existing, clone mates excluded *)
  let interferes =
    List.filter
      (fun (a, b) -> family a <> family b)
      (Ixp.Liveness.interferences live)
  in
  (* §12 rematerialization: constants live in the virtual bank C; their
     Imm "definition" is free bookkeeping and the DefABW constraint is
     replaced by pinning the definition to C.  A temporary is a constant
     only when every definition of it is an Imm of one value: a block
     parameter that an Imm initializes on one path and a move on another
     is not. *)
  let const_value = Ident.Tbl.create 16 in
  let const_defs = ref [] in
  if rematerialize then begin
    let value_of = Ident.Tbl.create 16 in
    List.iter
      (fun (_, _, insn) ->
        let value =
          match insn with Insn.Imm { value; _ } -> Some value | _ -> None
        in
        List.iter
          (fun v ->
            match Ident.Tbl.find_opt value_of v with
            | Some seen when seen <> value -> Ident.Tbl.replace value_of v None
            | Some _ -> ()
            | None -> Ident.Tbl.replace value_of v value)
          (Insn.defs insn))
      !insn_edges;
    List.iter
      (fun (_, p2, insn) ->
        match insn with
        | Insn.Imm { dst; value }
          when Ident.Tbl.find_opt value_of dst = Some (Some value) ->
            Ident.Tbl.replace const_value dst value;
            const_defs := (p2, dst) :: !const_defs
        | _ -> ())
      !insn_edges
  end;
  let def_abw =
    ref
      (List.filter
         (fun (_, v) -> not (Ident.Tbl.mem const_value v))
         !def_abw)
  in
  (* §8 bank pruning *)
  let allowed = Ident.Tbl.create (Array.length temps) in
  let allow v b =
    let cur = Option.value ~default:[] (Ident.Tbl.find_opt allowed v) in
    if not (List.mem b cur) then Ident.Tbl.replace allowed v (b :: cur)
  in
  Array.iter
    (fun v ->
      (* A, B always; M as spill space when enabled; constants get the
         virtual bank C instead of scratch *)
      allow v Bank.A;
      allow v Bank.B;
      if Ident.Tbl.mem const_value v then allow v Bank.C
      else if allow_spill then allow v Bank.M)
    temps;
  List.iter
    (fun (ad : agg_def) ->
      let b = Insn.read_bank ad.ad_space in
      Array.iter (fun v -> allow v b) ad.ad_members)
    !agg_defs;
  List.iter
    (fun (au : agg_use) ->
      let b = Insn.write_bank au.au_space in
      Array.iter (fun v -> allow v b) au.au_members)
    !agg_uses;
  (* clone mates share the allowed write-side banks of the family (a
     clone may carry the value toward its own write use), and the
     read-side bank of the definition flows to the clones through the
     clone constraint (they start in the same place). *)
  List.iter
    (fun (_, _, dsts, src) ->
      let family = Array.to_list dsts @ [ src ] in
      let union_banks =
        List.concat_map
          (fun v -> Option.value ~default:[] (Ident.Tbl.find_opt allowed v))
          family
      in
      List.iter (fun v -> List.iter (fun b -> allow v b) union_banks) family)
    !clones;
  (* ---- fixed-bank reduction ---------------------------------------- *)
  (* Qualify: no transfer bank in the allowed set, singleton clone
     family.  2-color qualifying temps around ALU operand-pair conflicts
     so that the "at most one operand per GPR bank" rule stays
     satisfiable; unqualify on odd conflict structure. *)
  let fixed = Ident.Tbl.create (Array.length temps) in
  let qualifies v =
    (not (List.exists Bank.is_transfer (Option.value ~default:[] (Ident.Tbl.find_opt allowed v))))
    && (not (Ident.Tbl.mem const_value v))
    && family_size.(family v) = 1
  in
  let arith_neighbors = Ident.Tbl.create 64 in
  List.iter
    (fun (_, x, y) ->
      Ident.Tbl.replace arith_neighbors x
        (y :: Option.value ~default:[] (Ident.Tbl.find_opt arith_neighbors x));
      Ident.Tbl.replace arith_neighbors y
        (x :: Option.value ~default:[] (Ident.Tbl.find_opt arith_neighbors y)))
    !arith2;
  let balance = ref 0 in
  Array.iter
    (fun v ->
      if qualifies v then begin
        let neighbor_banks =
          List.filter_map
            (fun n -> Ident.Tbl.find_opt fixed n)
            (Option.value ~default:[] (Ident.Tbl.find_opt arith_neighbors v))
        in
        let can b = not (List.exists (Bank.equal b) neighbor_banks) in
        let preferred = if !balance <= 0 then Bank.A else Bank.B in
        let other = if Bank.equal preferred Bank.A then Bank.B else Bank.A in
        if can preferred then begin
          Ident.Tbl.replace fixed v preferred;
          balance := !balance + (if Bank.equal preferred Bank.A then 1 else -1)
        end
        else if can other then begin
          Ident.Tbl.replace fixed v other;
          balance := !balance + (if Bank.equal other Bank.A then 1 else -1)
        end
        (* both banks conflict: keep v in the model *)
      end)
    temps;
  (* Pressure safety: if the fixed temporaries alone ever exceed a GPR
     bank's capacity, unfix the widest-live ones at the hot point until
     they fit (they re-enter the model, where spilling is available). *)
  let k_cap b = Bank.k_capacity b in
  let overflow = ref true in
  while !overflow do
    overflow := false;
    Array.iter
      (fun set ->
        List.iter
          (fun b ->
            let live_fixed =
              Ident.Set.elements set
              |> List.filter (fun v ->
                     match Ident.Tbl.find_opt fixed v with
                     | Some fb -> Bank.equal fb b
                     | None -> false)
            in
            (* leave two slots of slack for the modelled temporaries *)
            let budget = max 0 (k_cap b - 2) in
            if List.length live_fixed > budget then begin
              overflow := true;
              let excess = List.length live_fixed - budget in
              List.iteri
                (fun i v -> if i < excess then Ident.Tbl.remove fixed v)
                live_fixed
            end)
          [ Bank.A; Bank.B ])
      exists_at
  done;
  (* move-point restriction: a temporary may move at a point only when
     something relevant happens there:
       - adjacent instruction defines or uses it,
       - the next instruction performs a transfer-bank operation (live
         temporaries that could occupy the affected bank may need to
         vacate),
       - block entry and exit points.
     Fixed temporaries never move. *)
  let move_all : (int, Ident.Set.t) Hashtbl.t = Hashtbl.create 64 in
  let move_from : (int, Bank.t list Ident.Tbl.t) Hashtbl.t = Hashtbl.create 64 in
  let movable v = not (Ident.Tbl.mem fixed v) in
  let allow_move p set =
    let set = Ident.Set.filter movable set in
    let cur = Option.value ~default:Ident.Set.empty (Hashtbl.find_opt move_all p) in
    Hashtbl.replace move_all p (Ident.Set.union cur set)
  in
  let allow_move_from p v banks =
    if movable v then begin
      let tbl =
        match Hashtbl.find_opt move_from p with
        | Some tbl -> tbl
        | None ->
            let tbl = Ident.Tbl.create 8 in
            Hashtbl.replace move_from p tbl;
            tbl
      in
      let cur = Option.value ~default:[] (Ident.Tbl.find_opt tbl v) in
      Ident.Tbl.replace tbl v
        (List.fold_left
           (fun acc b -> if List.mem b acc then acc else b :: acc)
           cur banks)
    end
  in
  (* transfer banks an instruction touches *)
  let touched_banks insn =
    match insn with
    | Insn.Read { space; _ } -> [ Insn.read_bank space ]
    | Insn.Write { space; _ } -> [ Insn.write_bank space ]
    | Insn.Hash _ | Insn.Bit_test_set _ -> [ Bank.L; Bank.S ]
    | Insn.Rfifo_read _ -> [ Bank.LD ]
    | Insn.Tfifo_write _ -> [ Bank.SD ]
    | Insn.Clone _ -> Bank.xbanks
    | _ -> []
  in
  List.iter
    (fun (p1, p2, insn) ->
      let touched =
        Ident.Set.of_list (Insn.defs insn @ Insn.uses insn)
      in
      allow_move p1 touched;
      allow_move p2 touched;
      (* only temporaries that could occupy an affected transfer bank may
         need vacating moves around a transfer instruction *)
      match touched_banks insn with
      | [] -> ()
      | banks ->
          (* vacating happens before the instruction needs the bank, and
             only moves OUT of the touched banks are useful there *)
          Ident.Set.iter
            (fun v ->
              let out_of =
                List.filter
                  (fun b ->
                    List.mem b
                      (Option.value ~default:[]
                         (Ident.Tbl.find_opt allowed v)))
                  banks
              in
              if out_of <> [] then allow_move_from p1 v out_of)
            exists_at.(p1))
    !insn_edges;
  FG.iter_blocks
    (fun b ->
      (* block-entry points host the free inter-bank moves; together with
         def/use-adjacent points this still lets values be re-banked once
         per region (e.g. hoisted out of a loop at the preheader's
         successor) at a fraction of the variables *)
      let entry = Hashtbl.find block_start b.FG.label in
      allow_move entry exists_at.(entry))
    graph;
  (* dense Exists pairs and the moves each is offered *)
  let ex_start = Array.make (Array.length points + 1) 0 in
  Array.iteri
    (fun p set -> ex_start.(p + 1) <- ex_start.(p) + Ident.Set.cardinal set)
    exists_at;
  let npairs = ex_start.(Array.length points) in
  let ex_temp = Array.make npairs 0 in
  let temp_allowed =
    Array.map
      (fun v ->
        Option.value ~default:[ Bank.A; Bank.B; Bank.M ]
          (Ident.Tbl.find_opt allowed v))
      temps
  in
  let mv_start = Array.make (npairs + 1) 0 in
  let mv_src = Vec.create () and mv_dst = Vec.create () in
  Array.iteri
    (fun p set ->
      let free = Hashtbl.find_opt move_all p in
      let from = Hashtbl.find_opt move_from p in
      let k = ref ex_start.(p) in
      Ident.Set.iter
        (fun v ->
          let i = Ident.Tbl.find temp_id v in
          ex_temp.(!k) <- i;
          let allowed = temp_allowed.(i) in
          let from_banks =
            match (free, from) with
            | Some set, _ when Ident.Set.mem v set -> allowed
            | _, Some tbl -> Option.value ~default:[] (Ident.Tbl.find_opt tbl v)
            | _, None -> []
          in
          if from_banks <> [] then
            List.iter
              (fun b1 ->
                if List.mem b1 from_banks then
                  List.iter
                    (fun b2 ->
                      if
                        (not (Bank.equal b1 b2))
                        && Bank.move_legal ~src:b1 ~dst:b2
                      then begin
                        Vec.push mv_src b1;
                        Vec.push mv_dst b2
                      end)
                    allowed)
              allowed;
          incr k;
          mv_start.(!k) <- Vec.length mv_src)
        set)
    exists_at;
  let weights =
    Array.map (fun p -> max 1e-4 (Ixp.Frequency.point_frequency freq p)) points
  in
  Metrics.set (Metrics.gauge "modelgen.points") (float_of_int (Array.length points));
  Metrics.set (Metrics.gauge "modelgen.temps") (float_of_int (Array.length temps));
  {
    graph;
    live;
    freq;
    points;
    block_start;
    insn_edges = !insn_edges;
    control_edges = !control_edges;
    temps;
    temp_id;
    ex_start;
    ex_temp;
    mv_start;
    mv_src = Vec.to_array mv_src;
    mv_dst = Vec.to_array mv_dst;
    copies;
    def_abw = !def_abw;
    def_ab = !def_ab;
    agg_defs = !agg_defs;
    agg_uses = !agg_uses;
    arith2 = !arith2;
    arith1 = !arith1;
    use_ab = !use_ab;
    same_reg = !same_reg;
    clones = !clones;
    temp_family;
    interferes;
    temp_allowed;
    fixed;
    const_value;
    const_defs = !const_defs;
    weights;
  }

(* Statistics used by Figure 6: how many temporaries participate in
   coloring, per aggregate class. *)
type coloring_stats = {
  def_l : int; (* members of SRAM/scratch read aggregates *)
  def_ld : int;
  use_s : int;
  use_sd : int;
}

let coloring_stats t =
  let count_defs space_pred =
    List.fold_left
      (fun acc (ad : agg_def) ->
        if space_pred ad.ad_space then acc + Array.length ad.ad_members else acc)
      0 t.agg_defs
  in
  let count_uses space_pred =
    List.fold_left
      (fun acc (au : agg_use) ->
        if space_pred au.au_space then acc + Array.length au.au_members else acc)
      0 t.agg_uses
  in
  let is_sram = function Insn.Sram | Insn.Scratch -> true | Insn.Sdram -> false in
  let is_sdram = function Insn.Sdram -> true | _ -> false in
  {
    def_l = count_defs is_sram;
    def_ld = count_defs is_sdram;
    use_s = count_uses is_sram;
    use_sd = count_uses is_sdram;
  }
