(* Assignment-level translation validation: re-proves, with machinery
   independent of the model generator and the solvers, the promises an
   [Assignment.t] makes before emission consumes it.

     - an independent backward liveness over the virtual flowgraph (its
       own lattice and solver from [Analysis.Dataflow], sharing no code
       with [Ixp.Liveness]) must be covered by the model's Exists sets:
       a temporary live at a point the model does not allocate for would
       silently lose its value;
     - per-point bank occupancy: counting every existing temporary's
       bank (before *and* after the point's parallel move) must respect
       the ILP's K capacities -- 15 for A (one register in reserve for
       parallel-copy cycle breaking), 16 for B, 8 for the transfer
       banks.  Clone families are counted once per bank, exactly like
       the model's CBefore/CAfter variables (paper §10): every member of
       a family holds the same value, so mates resident in the same bank
       share one physical register.  This is the bank-capacity
       constraint of the paper's model re-checked against the
       *solution*, not the model;
     - transfer-aggregate members must receive adjacent ascending colors
       in 0..7 of the correct transfer bank, and same-register pairs
       (hash, bit_test_set) equal colors -- re-derived from [xfer_color]
       without trusting [Assignment.validate].

   [Assignment.validate] checks the copy discipline and move consistency
   of the assignment against its own model; this module is the
   adversarial half, deliberately recomputing what it can from scratch.
   Emission legality on the final instruction stream is then checked a
   third time by [Ixp.Checker] / [Analysis.Validator]. *)

open Support
module FG = Ixp.Flowgraph
module Insn = Ixp.Insn
module Bank = Ixp.Bank

type report = {
  errors : string list;
  max_occupancy : (Bank.t * int) list;
      (* peak per-bank occupancy over all points, K-capacity banks only *)
}

(* ------------------------------------------------------------------ *)
(* Independent liveness of virtual temporaries                         *)
(* ------------------------------------------------------------------ *)

module Ident_set_lattice = struct
  type t = Ident.Set.t

  let bottom = Ident.Set.empty
  let equal = Ident.Set.equal
  let join ~at:_ a b = Ident.Set.union a b
  let widen ~at:_ ~old next = Ident.Set.union old next
end

module Live_solver = Analysis.Dataflow.Make (Ident_set_lattice)

let live_spec : Ident.t Live_solver.spec =
  {
    Live_solver.direction = Analysis.Dataflow.Backward;
    boundary = Ident.Set.empty;
    transfer =
      (fun ~block:_ ~pos:_ insn live ->
        let live =
          List.fold_left (fun s d -> Ident.Set.remove d s) live (Insn.defs insn)
        in
        List.fold_left (fun s u -> Ident.Set.add u s) live (Insn.uses insn));
    transfer_term =
      (fun term live ->
        List.fold_left
          (fun s u -> Ident.Set.add u s)
          live (Insn.term_uses term));
    refine_edge = Live_solver.no_refine;
  }

let check (a : Assignment.t) : report =
  let mg = a.Assignment.mg in
  let graph = mg.Modelgen.graph in
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  (* 1. independent liveness covered by the Exists sets *)
  let sol = Live_solver.solve live_spec graph in
  let reachable = Analysis.Dataflow.reachable_blocks graph in
  FG.iter_blocks
    (fun b ->
      if Hashtbl.mem reachable b.FG.label then begin
        let facts = Live_solver.point_facts live_spec sol b in
        Array.iteri
          (fun pos live ->
            let point : FG.point = { FG.block = b.FG.label; pos } in
            let p = Modelgen.id_of_point mg point in
            Ident.Set.iter
              (fun v ->
                if Modelgen.pair_of mg p v < 0 then
                  err
                    "%a is live at %a by independent liveness but absent from \
                     the model's Exists set"
                    Ident.pp v FG.pp_point point)
              live)
          facts
      end)
    graph;
  (* 2. per-point bank occupancy against the K capacities *)
  let max_occ = Hashtbl.create 8 in
  let count_side p side_name side =
    let by_bank = Hashtbl.create 8 in
    let seen = Hashtbl.create 8 in
    for k = mg.Modelgen.ex_start.(p) to mg.Modelgen.ex_start.(p + 1) - 1 do
      let i = mg.Modelgen.ex_temp.(k) in
      let b = side p mg.Modelgen.temps.(i) in
      let key = (mg.Modelgen.temp_family.(i), b) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        Hashtbl.replace by_bank b
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_bank b))
      end
    done;
    Hashtbl.iter
      (fun b n ->
        if n > Bank.k_capacity b then
          err "%d temporaries occupy bank %s %s point %a (K capacity %d)" n
            (Bank.to_string b) side_name FG.pp_point (Modelgen.point_of mg p)
            (Bank.k_capacity b);
        if
          Bank.k_capacity b < max_int
          && n > Option.value ~default:0 (Hashtbl.find_opt max_occ b)
        then Hashtbl.replace max_occ b n)
      by_bank
  in
  Array.iteri
    (fun p _ ->
      count_side p "before" (Assignment.bank_before a);
      count_side p "after" (Assignment.bank_after a))
    mg.Modelgen.points;
  (* 2b. transfer-register collisions: two temporaries resident in the
     same transfer bank on the same side of one point must not share a
     register number (clone mates excepted: every member of a family
     holds the same value).  The capacity count above cannot see this --
     two values can fit the bank yet be assigned one register, which
     silently clobbers whichever was written first (found by the fuzzer:
     a store inside a loop pins its operand in S around the back edge,
     where a naive coloring collides with the loop body's other
     stores). *)
  let check_xfer_collisions p side_name side =
    let seen = Hashtbl.create 8 in
    (* (bank, color) -> (family, witness) *)
    for k = mg.Modelgen.ex_start.(p) to mg.Modelgen.ex_start.(p + 1) - 1 do
      let i = mg.Modelgen.ex_temp.(k) in
      let v = mg.Modelgen.temps.(i) in
      let b = side p v in
      if Bank.is_transfer b then begin
        let c = Assignment.xfer_color a v b in
        let fam = mg.Modelgen.temp_family.(i) in
        match Hashtbl.find_opt seen (Bank.to_string b, c) with
        | Some (fam', v') when fam' <> fam ->
            err "%a and %a both occupy %s%d %s point %a" Ident.pp v' Ident.pp v
              (Bank.to_string b) c side_name FG.pp_point
              (Modelgen.point_of mg p)
        | Some _ -> ()
        | None -> Hashtbl.replace seen (Bank.to_string b, c) (fam, v)
      end
    done
  in
  Array.iteri
    (fun p _ ->
      check_xfer_collisions p "before" (Assignment.bank_before a);
      check_xfer_collisions p "after" (Assignment.bank_after a))
    mg.Modelgen.points;
  (* 3. transfer-aggregate adjacency, re-derived from the colors *)
  let check_agg what members bank =
    Array.iteri
      (fun j v ->
        let c = Assignment.xfer_color a v bank in
        if c < 0 || c > 7 then
          err "%s: member %a has color %d outside 0..7 in %s" what Ident.pp v c
            (Bank.to_string bank);
        if j > 0 then begin
          let c' = Assignment.xfer_color a members.(j - 1) bank in
          if c <> c' + 1 then
            err "%s: members %a (%d) and %a (%d) of bank %s are not adjacent \
                 ascending"
              what Ident.pp members.(j - 1) c' Ident.pp v c (Bank.to_string bank)
        end)
      members
  in
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      check_agg "aggregate definition" ad.Modelgen.ad_members
        (Insn.read_bank ad.Modelgen.ad_space))
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      check_agg "aggregate use" au.Modelgen.au_members
        (Insn.write_bank au.Modelgen.au_space))
    mg.Modelgen.agg_uses;
  (* 4. same-register pairs: read side in L, write side in S, one number *)
  List.iter
    (fun (d, s) ->
      let cd = Assignment.xfer_color a d Bank.L
      and cs = Assignment.xfer_color a s Bank.S in
      if cd <> cs then
        err "same-reg pair: %a gets L%d but %a gets S%d" Ident.pp d cd Ident.pp
          s cs)
    mg.Modelgen.same_reg;
  {
    errors = List.rev !errors;
    max_occupancy =
      Hashtbl.fold (fun b n acc -> (b, n) :: acc) max_occ []
      |> List.sort compare;
  }
