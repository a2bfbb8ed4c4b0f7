(* Solution application: turn a bank/color [Assignment] into a physical
   IXP program.

   Responsibilities:
     - number the A/B banks with a coloring phase in the style of
       Appel-George phase 2 with Briggs-conservative coalescing (the
       paper's optimistic-coalescing role): nodes are per-block bank
       *segments* of a temporary's lifetime, unioned across control edges
       (no moves are allowed there) and across clone instructions (clones
       start in their original's register);
     - expand the declared inter-bank moves at every point into real
       instructions, sequencing each point's move set as a parallel copy
       (the reserved register A15 breaks cycles -- this is why the ILP's
       K constraint keeps A at 15), staging scratch traffic through free
       S/L registers guaranteed by the model's needsSpill headroom;
     - rewrite every instruction's uses/defs to physical registers.

   The result is validated by [Ixp.Checker] in the driver. *)

open Support
module Bank = Ixp.Bank
module FG = Ixp.Flowgraph
module Insn = Ixp.Insn
module Reg = Ixp.Reg

exception Emit_error of string

let error fmt = Fmt.kstr (fun s -> raise (Emit_error s)) fmt

(* Segments are numbered per instant of an Exists pair: [seg.(2k + side)]
   is the coloring node of pair k before (side 0) or after (side 1) its
   point's moves, -1 when the temporary is not in A or B there. *)
type t = {
  assignment : Assignment.t;
  seg : int array;
  uf : Union_find.t;
  node_color : int array; (* A/B register number per coloring node root *)
  slots : int Ident.Tbl.t;
  mutable next_slot : int;
  mutable moves_inserted : int;
  mutable imms_inserted : int;
  mutable spills_inserted : int;
}

let spare_a = Reg.make Bank.A 15

(* ------------------------------------------------------------------ *)
(* Segment construction and coloring                                   *)
(* ------------------------------------------------------------------ *)

let is_gpr b = Bank.equal b Bank.A || Bank.equal b Bank.B

(* A monotone search of point [p]'s pairs: [find i] is the pair of
   temporary index [i] there, or -1, for [i] ascending across calls. *)
let cursor (mg : Modelgen.t) p =
  let k = ref mg.Modelgen.ex_start.(p) and e = mg.Modelgen.ex_start.(p + 1) in
  fun i ->
    while !k < e && mg.Modelgen.ex_temp.(!k) < i do
      incr k
    done;
    if !k < e && mg.Modelgen.ex_temp.(!k) = i then !k else -1

let build_segments (a : Assignment.t) =
  let mg = a.Assignment.mg in
  let ex_start = mg.Modelgen.ex_start and ex_temp = mg.Modelgen.ex_temp in
  let seg = Array.make (2 * Modelgen.num_pairs mg) (-1) in
  let nodes = Vec.create () in
  (* pair k's node at an instant: the previous instant's node when the
     temporary stays in its bank, else a fresh one *)
  let place k side bank prev =
    if is_gpr bank then
      seg.((2 * k) + side) <-
        (if prev >= 0 && snd (Vec.get nodes prev) = bank then prev
         else begin
           Vec.push nodes (mg.Modelgen.temps.(ex_temp.(k)), bank);
           Vec.length nodes - 1
         end)
  in
  (* per-block scan: points are in layout order, so a block's previous
     point is the one numbered just before *)
  Array.iteri
    (fun p (pt : FG.point) ->
      let prev = if pt.FG.pos > 0 then cursor mg (p - 1) else fun _ -> -1 in
      for k = ex_start.(p) to ex_start.(p + 1) - 1 do
        let k' = prev ex_temp.(k) in
        place k 0 a.Assignment.before.(k)
          (if k' >= 0 then seg.((2 * k') + 1) else -1)
      done;
      for k = ex_start.(p) to ex_start.(p + 1) - 1 do
        place k 1 a.Assignment.after.(k) seg.(2 * k)
      done)
    mg.Modelgen.points;
  let uf = Union_find.create (max 1 (Vec.length nodes)) in
  let join k1 side1 k2 side2 =
    if k1 >= 0 && k2 >= 0 then begin
      let n1 = seg.((2 * k1) + side1) and n2 = seg.((2 * k2) + side2) in
      if n1 >= 0 && n2 >= 0 then ignore (Union_find.union uf n1 n2)
    end
  in
  (* control edges: pred's exit After-instant joins succ's entry Before *)
  List.iter
    (fun (p1, p2) ->
      let find = cursor mg p1 in
      for k2 = ex_start.(p2) to ex_start.(p2 + 1) - 1 do
        join (find ex_temp.(k2)) 1 k2 0
      done)
    mg.Modelgen.control_edges;
  (* clone instructions: destination segments start in the source's
     register *)
  List.iter
    (fun (p1, p2, dsts, src) ->
      let k1 = Modelgen.pair_of mg p1 src in
      Array.iter (fun d -> join k1 1 (Modelgen.pair_of mg p2 d) 0) dsts)
    mg.Modelgen.clones;
  (* clone mates sharing a GPR bank at an instant share the register:
     per family and bank, [seen] holds the last instant a member was
     seen at and [first] the node it had there *)
  let family = mg.Modelgen.temp_family in
  let seen = Array.make (2 * Array.length mg.Modelgen.temps) (-1) in
  let first = Array.make (Array.length seen) 0 in
  for p = 0 to Array.length mg.Modelgen.points - 1 do
    for side = 0 to 1 do
      let instant = (2 * p) + side in
      for k = ex_start.(p) to ex_start.(p + 1) - 1 do
        let node = seg.((2 * k) + side) in
        if node >= 0 then begin
          let key =
            (2 * family.(ex_temp.(k)))
            + if Bank.equal (snd (Vec.get nodes node)) Bank.A then 0 else 1
          in
          if seen.(key) = instant then
            ignore (Union_find.union uf node first.(key))
          else begin
            seen.(key) <- instant;
            first.(key) <- node
          end
        end
      done
    done
  done;
  (nodes, seg, uf)

(* Interference graph over segment roots, then greedy Kempe coloring
   with Briggs-conservative coalescing of move-related segments.  The
   adjacency table's iteration order picks among equally good nodes, so
   its keys are inserted and removed in a fixed order. *)
let color_segments (a : Assignment.t) nodes seg uf =
  let mg = a.Assignment.mg in
  let ex_start = mg.Modelgen.ex_start and ex_temp = mg.Modelgen.ex_temp in
  let family = mg.Modelgen.temp_family in
  let nnodes = Vec.length nodes in
  let bank_of n = snd (Vec.get nodes n) in
  let root n = Union_find.find uf n in
  let adj : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
  let ensure n =
    match Hashtbl.find_opt adj n with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace adj n s;
        s
  in
  let add_edge n1 n2 =
    if n1 <> n2 then begin
      Hashtbl.replace (ensure n1) n2 ();
      Hashtbl.replace (ensure n2) n1 ()
    end
  in
  (* Occupants per instant, by descending temporary: every two roots of
     one bank whose temporaries are of different families interfere.  A
     root's temporaries are all of one family (segments join only along
     a temporary, across clones and between clone mates), so whether two
     roots interfere depends on the roots alone, and a pair already met
     at the previous instant is skipped: its [add_edge] and [ensure]
     would change nothing. *)
  let occ_temp = Array.make (Array.length mg.Modelgen.temps) 0 in
  let occ_node = Array.make (Array.length occ_temp) 0 in
  let occ_new = Array.make (Array.length occ_temp) false in
  let last_seen = Array.make nnodes (-1) in
  for instant = 0 to (2 * Array.length mg.Modelgen.points) - 1 do
    let p = instant / 2 and side = instant mod 2 in
    let n = ref 0 in
    for k = ex_start.(p + 1) - 1 downto ex_start.(p) do
      let node = seg.((2 * k) + side) in
      if node >= 0 then begin
        occ_temp.(!n) <- ex_temp.(k);
        occ_node.(!n) <- root node;
        occ_new.(!n) <- last_seen.(occ_node.(!n)) <> instant - 1;
        incr n
      end
    done;
    for x = 0 to !n - 1 do
      last_seen.(occ_node.(x)) <- instant
    done;
    for x = 0 to !n - 1 do
      let n1 = occ_node.(x) in
      for y = x + 1 to !n - 1 do
        let n2 = occ_node.(y) in
        if
          (occ_new.(x) || occ_new.(y))
          && n1 <> n2
          && bank_of n1 = bank_of n2
          && family.(occ_temp.(x)) <> family.(occ_temp.(y))
        then add_edge n1 n2
      done
    done;
    (* make sure singleton roots exist in adj *)
    for x = 0 to !n - 1 do
      if occ_new.(x) then ignore (ensure occ_node.(x))
    done
  done;
  (* conservative coalescing of move-related same-bank segments *)
  let capacity bank = if bank = Bank.A then 15 else 16 in
  let node_at p side v =
    let k = Modelgen.pair_of mg p v in
    if k < 0 then -1 else seg.((2 * k) + side)
  in
  List.iter
    (fun (p1, p2, insn) ->
      match insn with
      | Insn.Alu1 { op = `Mov; dst; src } ->
          let n1 = node_at p1 1 src and n2 = node_at p2 0 dst in
          if n1 >= 0 && n2 >= 0 then begin
            let r1 = root n1 and r2 = root n2 in
            let b1 = bank_of r1 and b2 = bank_of r2 in
            if r1 <> r2 && b1 = b2 && not (Hashtbl.mem (ensure r1) r2) then begin
              (* Briggs: merged node must have < K significant
                 neighbours *)
              let k = capacity b1 in
              let merged = Hashtbl.create 16 in
              Hashtbl.iter (fun n () -> Hashtbl.replace merged n ()) (ensure r1);
              Hashtbl.iter (fun n () -> Hashtbl.replace merged n ()) (ensure r2);
              let significant =
                Hashtbl.fold
                  (fun n () acc ->
                    if Hashtbl.length (ensure n) >= k then acc + 1 else acc)
                  merged 0
              in
              if significant < k then begin
                let r = Union_find.union uf r1 r2 in
                let other = if r = r1 then r2 else r1 in
                (* fold adjacency of [other] into [r] *)
                Hashtbl.iter
                  (fun n () ->
                    Hashtbl.remove (ensure n) other;
                    add_edge r n)
                  (ensure other);
                Hashtbl.remove adj other
              end
            end
          end
      | _ -> ())
    mg.Modelgen.insn_edges;
  (* Kempe simplify + select *)
  let node_color = Array.make nnodes (-1) in
  let all_roots = Array.of_list (Hashtbl.fold (fun n _ acc -> n :: acc) adj []) in
  let degree = Array.make nnodes 0 in
  Array.iter (fun n -> degree.(n) <- Hashtbl.length (ensure n)) all_roots;
  let removed = Array.make nnodes false in
  let stack = ref [] in
  for _ = 1 to Array.length all_roots do
    (* pick the first low-degree node, or else the first of maximum
       degree as the optimistic spill choice *)
    let best = ref (-1) and best_d = ref (-1) and low = ref false in
    Array.iter
      (fun n ->
        if (not removed.(n)) && not !low then begin
          let d = degree.(n) in
          if d < capacity (bank_of n) then begin
            best := n;
            low := true
          end
          else if d > !best_d then begin
            best := n;
            best_d := d
          end
        end)
      all_roots;
    let n = !best in
    removed.(n) <- true;
    stack := n :: !stack;
    Hashtbl.iter
      (fun m () -> if not removed.(m) then degree.(m) <- degree.(m) - 1)
      (ensure n)
  done;
  List.iter
    (fun n ->
      let bank = bank_of n in
      let k = capacity bank in
      let taken = Array.make 16 false in
      Hashtbl.iter
        (fun m () -> if node_color.(m) >= 0 then taken.(node_color.(m)) <- true)
        (ensure n);
      let rec find c =
        if c >= k then
          error "A/B coloring failed for %a in %s (pressure exceeds capacity)"
            Ident.pp (fst (Vec.get nodes n)) (Bank.to_string bank)
        else if taken.(c) then find (c + 1)
        else c
      in
      node_color.(n) <- find 0)
    !stack;
  node_color

(* ------------------------------------------------------------------ *)
(* Physical register lookup                                            *)
(* ------------------------------------------------------------------ *)

let slot_of st v =
  match Ident.Tbl.find_opt st.slots v with
  | Some s -> s
  | None ->
      let s = st.next_slot in
      st.next_slot <- s + 1;
      Ident.Tbl.replace st.slots v s;
      s

(* [v]'s register at point [p], before (side 0) or after (side 1) the
   point's moves *)
let reg_at st ~p ~side v =
  let a = st.assignment in
  let k = Assignment.pair a p v in
  let bank =
    if side = 0 then a.Assignment.before.(k) else a.Assignment.after.(k)
  in
  let where = Modelgen.point_of a.Assignment.mg in
  match bank with
  | Bank.A | Bank.B ->
      let node = st.seg.((2 * k) + side) in
      if node < 0 then
        error "no segment for %a at %a/%d" Ident.pp v FG.pp_point (where p) side
      else begin
        let c = st.node_color.(Union_find.find st.uf node) in
        if c < 0 then error "uncolored segment for %a" Ident.pp v
        else Reg.make bank c
      end
  | Bank.L | Bank.LD | Bank.S | Bank.SD ->
      Reg.make bank (Assignment.xfer_color a v bank)
  | Bank.M ->
      error "reg_at: %a is in scratch at %a/%d" Ident.pp v FG.pp_point (where p)
        side
  | Bank.C ->
      error "reg_at: %a is a constant (bank C) at %a/%d" Ident.pp v FG.pp_point
        (where p) side

(* Which S (or L) registers are free around point [p]? *)
let free_xfer_reg st ~p bank =
  let a = st.assignment in
  let mg = a.Assignment.mg in
  let taken = Array.make 8 false in
  for k = mg.Modelgen.ex_start.(p) to mg.Modelgen.ex_start.(p + 1) - 1 do
    if
      Bank.equal a.Assignment.before.(k) bank
      || Bank.equal a.Assignment.after.(k) bank
    then
      taken.(Assignment.xfer_color a
               mg.Modelgen.temps.(mg.Modelgen.ex_temp.(k))
               bank) <- true
  done;
  let rec find r =
    if r >= 8 then
      error "no free %s register at point %d for spill staging"
        (Bank.to_string bank) p
    else if taken.(r) then find (r + 1)
    else r
  in
  Reg.make bank (find 0)

(* ------------------------------------------------------------------ *)
(* Move expansion                                                      *)
(* ------------------------------------------------------------------ *)

(* Emit the moves scheduled at point [p]. *)
let emit_moves st out ~p =
  let a = st.assignment in
  let mg = a.Assignment.mg in
  (* A scheduled move of a value that is dead at the point can only
     produce a store nobody reads (solvers stopped at a node limit may
     leave such moves in an otherwise legal assignment): drop it. *)
  let moves =
    match a.Assignment.moves.(p) with
    | [] -> []
    | moves ->
        let live = Ixp.Liveness.live_at mg.Modelgen.live mg.Modelgen.points.(p) in
        List.filter (fun (v, _, _) -> Support.Ident.Set.mem v live) moves
  in
  if moves <> [] then begin
    let before v = reg_at st ~p ~side:0 v and after v = reg_at st ~p ~side:1 v in
    (* 0. constant discards are free: nothing to emit for b -> C *)
    (* 1. spills (reads only) *)
    List.iter
      (fun (v, b1, b2) ->
        if Bank.equal b2 Bank.M then begin
          st.spills_inserted <- st.spills_inserted + 1;
          let slot = slot_of st v in
          if Bank.is_write_transfer b1 then
            (* already on the write side: store directly *)
            Vec.push out
              (Insn.Spill { slot; src = before v })
          else begin
            let stage = free_xfer_reg st ~p Bank.S in
            Vec.push out
              (Insn.Move { dst = stage; src = before v });
            Vec.push out (Insn.Spill { slot; src = stage })
          end
        end)
      moves;
    (* 2. register-register parallel copy *)
    let pairs =
      List.filter_map
        (fun (v, b1, b2) ->
          if
            Bank.equal b1 Bank.M || Bank.equal b2 Bank.M
            || Bank.equal b1 Bank.C || Bank.equal b2 Bank.C
          then None
          else
            Some
              ( after v,
                before v ))
        moves
    in
    (* clone mates colocated in the same registers schedule the same
       physical move: emit it once *)
    let pairs = List.sort_uniq compare pairs in
    st.moves_inserted <- st.moves_inserted + List.length pairs;
    let remaining = ref (List.filter (fun (d, s) -> not (Reg.equal d s)) pairs) in
    let is_pending_src r = List.exists (fun (_, s) -> Reg.equal s r) !remaining in
    let guard = ref 0 in
    while !remaining <> [] do
      incr guard;
      if !guard > 1000 then error "parallel copy did not terminate";
      let ready, blocked =
        List.partition (fun (d, _) -> not (is_pending_src d)) !remaining
      in
      if ready <> [] then begin
        List.iter
          (fun (d, s) -> Vec.push out (Insn.Move { dst = d; src = s }))
          ready;
        remaining := blocked
      end
      else begin
        match !remaining with
        | [] -> ()
        | (d, s) :: rest ->
            (* break the cycle through the reserved A15 *)
            Vec.push out (Insn.Move { dst = spare_a; src = d });
            Vec.push out (Insn.Move { dst = d; src = s });
            remaining :=
              List.map
                (fun (d', s') -> if Reg.equal s' d then (d', spare_a) else (d', s'))
                rest
      end
    done;
    (* 2b. constant loads (writes only): a move out of C is an immediate *)
    List.iter
      (fun (v, b1, b2) ->
        if Bank.equal b1 Bank.C && not (Bank.equal b2 Bank.C) then begin
          match Modelgen.const_of st.assignment.Assignment.mg v with
          | Some value ->
              st.imms_inserted <- st.imms_inserted + 1;
              Vec.push out
                (Insn.Imm { dst = after v; value })
          | None -> error "move out of C for non-constant %a" Ident.pp v
        end)
      moves;
    (* 3. reloads (writes only) *)
    List.iter
      (fun (v, b1, b2) ->
        if Bank.equal b1 Bank.M then begin
          st.spills_inserted <- st.spills_inserted + 1;
          let slot = slot_of st v in
          match b2 with
          | Bank.L ->
              Vec.push out
                (Insn.Reload { slot; dst = after v })
          | Bank.A | Bank.B ->
              let stage = free_xfer_reg st ~p Bank.L in
              Vec.push out (Insn.Reload { slot; dst = stage });
              Vec.push out
                (Insn.Move { dst = after v; src = stage })
          | _ ->
              error "illegal reload target %s for %a" (Bank.to_string b2)
                Ident.pp v
        end)
      moves
  end

(* ------------------------------------------------------------------ *)
(* Program emission                                                    *)
(* ------------------------------------------------------------------ *)

type result = {
  physical : Reg.t FG.t;
  moves_inserted : int; (* register-to-register moves *)
  imms_inserted : int; (* immediate loads of constants out of bank C *)
  spills_inserted : int;
  gpr_segments : int;
}

let run (a : Assignment.t) : result =
  let nodes, seg, uf = build_segments a in
  let node_color = color_segments a nodes seg uf in
  let st =
    {
      assignment = a;
      seg;
      uf;
      node_color;
      slots = Ident.Tbl.create 16;
      next_slot = 0;
      moves_inserted = 0;
      imms_inserted = 0;
      spills_inserted = 0;
    }
  in
  let mg = a.Assignment.mg in
  let graph = mg.Modelgen.graph in
  let out_graph = FG.create () in
  FG.iter_blocks
    (fun b ->
      let label = b.FG.label in
      let n = Array.length b.FG.insns in
      let p0 = Modelgen.id_of_point mg { FG.block = label; pos = 0 } in
      let out = Vec.create () in
      for pos = 0 to n do
        let p = p0 + pos in
        emit_moves st out ~p;
        if pos < n then begin
          match b.FG.insns.(pos) with
          | Insn.Clone _ -> () (* clones are free: same register *)
          | Insn.Imm { dst; _ }
            when Bank.equal (Assignment.bank_before a (p + 1) dst) Bank.C ->
              () (* rematerialized constant: the definition is virtual *)
          | insn -> (
              let use v = reg_at st ~p ~side:1 v in
              let def v = reg_at st ~p:(p + 1) ~side:0 v in
              match Insn.map_uses_defs ~use ~def insn with
              (* peephole: coalescing made this copy a no-op *)
              | Insn.Alu1 { op = `Mov; dst; src } when Reg.equal dst src -> ()
              | Insn.Move { dst; src } when Reg.equal dst src -> ()
              | mapped -> Vec.push out mapped)
        end
      done;
      let exit_use v = reg_at st ~p:(p0 + n) ~side:1 v in
      let term = Insn.map_term exit_use b.FG.term in
      ignore (FG.add_block out_graph ~label ~insns:(Vec.to_list out) ~term))
    graph;
  {
    physical = out_graph;
    moves_inserted = st.moves_inserted;
    imms_inserted = st.imms_inserted;
    spills_inserted = st.spills_inserted;
    gpr_segments = Vec.length nodes;
  }
