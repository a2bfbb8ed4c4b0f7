(* Control-flow graphs of IXP instructions, polymorphic in the register
   representation (virtual temporaries before allocation, physical
   registers after).

   Blocks are identified by string labels.  Program points -- the set P of
   the paper's model -- are materialized by [points]: one point before
   every instruction, one after the last instruction of each block.  A
   branch is "followed by a single point that is connected to all points
   at the targets of the branch" (paper §5.2); we realize this by giving
   each block one exit point and linking it to the entry points of its
   successors. *)

open Support

type 'r block = {
  label : string;
  mutable insns : 'r Insn.t array;
  mutable term : 'r Insn.terminator;
}

type 'r t = {
  mutable blocks : 'r block list; (* in layout order; head = entry *)
  tbl : (string, 'r block) Hashtbl.t;
}

let create () = { blocks = []; tbl = Hashtbl.create 16 }

let add_block t ~label ~insns ~term =
  if Hashtbl.mem t.tbl label then Diag.ice "Flowgraph: duplicate block %s" label;
  let b = { label; insns = Array.of_list insns; term } in
  t.blocks <- t.blocks @ [ b ];
  Hashtbl.replace t.tbl label b;
  b

let entry t =
  match t.blocks with
  | [] -> Diag.ice "Flowgraph: empty graph"
  | b :: _ -> b

(* [Hashtbl.find] rather than [find_opt]: a lookup allocates no
   option. *)
let block t label =
  match Hashtbl.find t.tbl label with
  | b -> b
  | exception Not_found -> Diag.ice "Flowgraph: unknown block %s" label

let blocks t = t.blocks
let num_blocks t = List.length t.blocks

let successors t b = List.map (block t) (Insn.term_targets b.term)

let predecessors t =
  let preds = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.label []) t.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun succ ->
          Hashtbl.replace preds succ
            (b.label :: Option.value ~default:[] (Hashtbl.find_opt preds succ)))
        (Insn.term_targets b.term))
    t.blocks;
  preds

let num_insns t =
  List.fold_left (fun acc b -> acc + Array.length b.insns + 1) 0 t.blocks

let iter_blocks f t = List.iter f t.blocks

let map_regs f t =
  let t' = create () in
  List.iter
    (fun b ->
      ignore
        (add_block t' ~label:b.label
           ~insns:(Array.to_list (Array.map (Insn.map_regs f) b.insns))
           ~term:(Insn.map_term f b.term)))
    t.blocks;
  t'

(* ------------------------------------------------------------------ *)
(* Program points                                                      *)
(* ------------------------------------------------------------------ *)

(* Point [k] of block [b] sits before instruction [k] for
   k < Array.length insns; point [Array.length insns] is the block's exit
   point (just before the terminator's effects transfer control). *)
type point = { block : string; pos : int }

let point_compare a b =
  match String.compare a.block b.block with
  | 0 -> Int.compare a.pos b.pos
  | c -> c

let pp_point ppf p = Fmt.pf ppf "%s.%d" p.block p.pos

let point_name p = p.block ^ "." ^ string_of_int p.pos

module Point_map = Map.Make (struct
  type t = point

  let compare = point_compare
end)

(* All points of the graph, in layout order. *)
let points t =
  List.concat_map
    (fun b ->
      List.init (Array.length b.insns + 1) (fun pos -> { block = b.label; pos }))
    t.blocks

(* Points where another hardware context may run: point k+1 of a block
   whose instruction k yields (see [Insn.yields]).  [Ctx_arb] and the
   long-latency references are ordinary instructions -- they do not end
   a block and contribute no successor edges, so the CFG shape is
   unchanged by context switching; only the cross-context interleaving
   is affected.  Block exit points are not yield points: terminators
   (jumps, branches, halt) execute without releasing the engine. *)
let yield_points t =
  List.concat_map
    (fun b ->
      Array.to_list b.insns
      |> List.mapi (fun k insn -> (k, insn))
      |> List.filter_map (fun (k, insn) ->
             if Insn.yields insn then Some { block = b.label; pos = k + 1 }
             else None))
    t.blocks

(* Edges between points:
   - within a block, point k --insn k--> point k+1;
   - the exit point of a block connects to the entry point (pos 0) of
     every successor block (a pure control transfer: all live variables
     are "copied unchanged", i.e. members of the paper's Copy set). *)
type point_edge =
  | Through_insn of point * point (* separated by one instruction *)
  | Control of point * point (* block exit -> successor entry *)

let point_edges t =
  List.concat_map
    (fun b ->
      let n = Array.length b.insns in
      let within =
        List.init n (fun k ->
            Through_insn
              ({ block = b.label; pos = k }, { block = b.label; pos = k + 1 }))
      in
      let control =
        List.map
          (fun succ ->
            Control ({ block = b.label; pos = n }, { block = succ; pos = 0 }))
          (Insn.term_targets b.term)
      in
      within @ control)
    t.blocks

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp pp_reg ppf t =
  List.iter
    (fun b ->
      Fmt.pf ppf "%s:@." b.label;
      Array.iter (fun i -> Fmt.pf ppf "  %a@." (Insn.pp pp_reg) i) b.insns;
      Fmt.pf ppf "  %a@." (Insn.pp_term pp_reg) b.term)
    t.blocks

let to_string pp_reg t = Fmt.str "%a" (pp pp_reg) t
