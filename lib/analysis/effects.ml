(* Per-instruction memory-effect inference: which (space, address-range)
   footprint can each memory instruction touch?

   Addresses are bounded with an interval analysis (constant propagation
   + saturating interval arithmetic + widening) over the *virtual*
   flowgraph, where every value is a single multiply-assigned temporary
   and the table-indexing idioms (`base + (idx << 2)` with a masked
   index) stay visible.  Spills and reloads -- the only shared-memory
   accesses introduced *by* allocation -- are extracted from the physical
   graph separately with [spill_accesses]; their addresses are exact slot
   numbers, so no abstraction is needed.

   Branch refinement: the fact flowing along a branch edge is narrowed
   with what the condition implies (`i < 4` bounds the table index of a
   subkey load inside the loop).  To narrow the *copies* of a compared
   value too (argument-passing Movs), every abstract value carries a
   stable provenance key: copies share the key of their source, and two
   values merged at a control join at block B for register r get the key
   "phi:B:r".  Narrowing a condition on x applies to every binding with
   x's key.  Soundness subtlety: when control re-enters B (an outer loop
   around an inner loop), stale copies carrying a "phi:B:_" key from the
   *previous* entry must not keep aliasing the freshly merged value, so
   joining at B re-keys any surviving "phi:B:k" binding of register r to
   "phi:B:r".  Same key therefore always means same runtime value. *)

open Support
module FG = Ixp.Flowgraph
module Insn = Ixp.Insn

type aval = { itv : Interval.t; key : string }

let phi_key at r = Printf.sprintf "phi:%s:%s" at (Ident.name r)
let def_key block pos = Printf.sprintf "d:%s:%d" block pos

(* ------------------------------------------------------------------ *)
(* The environment lattice                                             *)
(* ------------------------------------------------------------------ *)

module Env_lattice = struct
  (* Bindings absent from the map are unknown (top) and unrefinable;
     [Bot] is the unreached state. *)
  type t = Bot | Env of aval Ident.Map.t

  let bottom = Bot

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Env m1, Env m2 ->
        Ident.Map.equal
          (fun x y -> Interval.equal x.itv y.itv && String.equal x.key y.key)
          m1 m2
    | _ -> false

  (* Re-key "phi:<at>:_" survivors of a previous entry to <at>: the merge
     happening now supersedes the merged values they were copies of. *)
  let normalize ~at m =
    let prefix = "phi:" ^ at ^ ":" in
    Ident.Map.mapi
      (fun r v ->
        if String.starts_with ~prefix v.key then
          let pk = phi_key at r in
          if String.equal v.key pk then v else { v with key = pk }
        else v)
      m

  let merge_with ~at combine m1 m2 =
    let prefix = "phi:" ^ at ^ ":" in
    Ident.Map.merge
      (fun r v1 v2 ->
        match (v1, v2) with
        | Some a, Some b ->
            let pk = phi_key at r in
            let key =
              if
                String.equal a.key b.key
                && (String.equal a.key pk
                   || not (String.starts_with ~prefix a.key))
              then a.key
              else pk
            in
            Some { itv = combine a.itv b.itv; key }
        | _ -> None (* defined on one path only: unknown after the join *))
      m1 m2

  let join ~at a b =
    match (a, b) with
    | Bot, x | x, Bot -> (
        match x with Bot -> Bot | Env m -> Env (normalize ~at m))
    | Env m1, Env m2 -> Env (merge_with ~at Interval.join m1 m2)

  let widen ~at ~old next =
    match (old, next) with
    | Bot, x | x, Bot -> (
        match x with Bot -> Bot | Env m -> Env (normalize ~at m))
    | Env m1, Env m2 ->
        Env (merge_with ~at (fun o n -> Interval.widen ~old:o n) m1 m2)
end

module Solver = Dataflow.Make (Env_lattice)

(* ------------------------------------------------------------------ *)
(* Transfer                                                            *)
(* ------------------------------------------------------------------ *)

let lookup m r = Ident.Map.find_opt r m

let operand_val m : Ident.t Insn.operand -> aval option = function
  | Insn.Lit n -> Some { itv = Interval.exact n; key = "lit:" ^ string_of_int n }
  | Insn.Reg r -> lookup m r

let itv_of = function Some v -> v.itv | None -> Interval.top

let eval_alu op a b =
  let open Interval in
  match (op : Insn.alu_op) with
  | Insn.Add -> add a b
  | Insn.Sub -> sub a b
  | Insn.And -> and_ a b
  | Insn.Or -> or_ a b
  | Insn.Xor -> xor a b
  | Insn.Shl -> shl a b
  | Insn.Shr | Insn.Asr -> shr a b (* sound only for non-negative values,
                                      which [shr] itself requires *)
  | Insn.Mullo -> mul a b

let set m dst v = Ident.Map.add dst v m
let kill m dsts = Array.fold_left (fun m d -> Ident.Map.remove d m) m dsts

let transfer ~block ~pos insn fact =
  match fact with
  | Env_lattice.Bot -> Env_lattice.Bot
  | Env_lattice.Env m ->
      let dk = def_key block pos in
      Env_lattice.Env
        (match (insn : Ident.t Insn.t) with
        | Insn.Alu { dst; op; x; y } ->
            let v =
              eval_alu op (itv_of (lookup m x)) (itv_of (operand_val m y))
            in
            set m dst { itv = v; key = dk }
        | Insn.Alu1 { dst; op = `Mov; src } | Insn.Move { dst; src } -> (
            match lookup m src with
            | Some v -> set m dst v
            | None -> Ident.Map.remove dst m)
        | Insn.Alu1 { dst; op = `Not; src } ->
            set m dst { itv = Interval.lnot_ (itv_of (lookup m src)); key = dk }
        | Insn.Alu1 { dst; op = `Neg; src } ->
            set m dst { itv = Interval.neg (itv_of (lookup m src)); key = dk }
        | Insn.Imm { dst; value } ->
            set m dst
              { itv = Interval.exact value; key = "lit:" ^ string_of_int value }
        | Insn.Clone { dsts; src } -> (
            match lookup m src with
            | Some v -> Array.fold_left (fun m d -> set m d v) m dsts
            | None -> kill m dsts)
        | Insn.Read { dsts; _ } | Insn.Rfifo_read { dsts; _ } -> kill m dsts
        | Insn.Hash { dst; _ }
        | Insn.Bit_test_set { dst; _ }
        | Insn.Reload { dst; _ }
        | Insn.Csr_read { dst; _ } ->
            Ident.Map.remove dst m
        | Insn.Write _ | Insn.Tfifo_write _ | Insn.Spill _ | Insn.Csr_write _
        | Insn.Ctx_arb | Insn.Nop ->
            m)

(* ------------------------------------------------------------------ *)
(* Branch refinement                                                   *)
(* ------------------------------------------------------------------ *)

(* Narrow every binding that shares [key] (they all hold the same
   runtime value) to the meet with [bound].  An empty meet means the
   edge is infeasible; we conservatively leave the fact unchanged. *)
let narrow_key m key bound =
  Ident.Map.map
    (fun v ->
      if String.equal v.key key then
        match Interval.meet v.itv bound with
        | Some itv -> { v with itv }
        | None -> v
      else v)
    m

let refine_cond m (cond : Insn.cond) x (y : Ident.t Insn.operand) =
  let vx = lookup m x and vy = operand_val m y in
  let ix = itv_of vx and iy = itv_of vy in
  let open Interval in
  (* bounds implied for the left and right operand respectively *)
  let bx, by =
    match cond with
    | Insn.Eq -> (Some iy, Some ix)
    | Insn.Ne -> (None, None)
    | Insn.Lt -> (Some (make neg_inf (iy.hi - 1)), Some (make (ix.lo + 1) pos_inf))
    | Insn.Le -> (Some (make neg_inf iy.hi), Some (make ix.lo pos_inf))
    | Insn.Gt -> (Some (make (iy.lo + 1) pos_inf), Some (make neg_inf (ix.hi - 1)))
    | Insn.Ge -> (Some (make iy.lo pos_inf), Some (make neg_inf ix.hi))
    | Insn.Ultl ->
        (* unsigned: only meaningful when both sides are known
           non-negative, where it coincides with the signed compare *)
        if ix.lo >= 0 && iy.lo >= 0 then
          (Some (make 0 (iy.hi - 1)), Some (make (ix.lo + 1) pos_inf))
        else (None, None)
    | Insn.Uge ->
        if ix.lo >= 0 && iy.lo >= 0 then
          (Some (make iy.lo pos_inf), Some (make 0 ix.hi))
        else (None, None)
  in
  let apply m v bound =
    match (v, bound) with
    | Some v, Some b -> narrow_key m v.key b
    | _ -> m
  in
  let m = apply m vx bx in
  match y with Insn.Reg _ -> apply m vy by | Insn.Lit _ -> m

let refine_edge term ~succ fact =
  match (fact, (term : Ident.t Insn.terminator)) with
  | Env_lattice.Bot, _ -> fact
  | Env_lattice.Env m, Insn.Branch { cond; x; y; ifso; ifnot }
    when ifso <> ifnot ->
      let cond =
        if String.equal succ ifso then cond else Insn.negate_cond cond
      in
      Env_lattice.Env (refine_cond m cond x y)
  | _, (Insn.Branch _ | Insn.Jump _ | Insn.Halt) -> fact

(* ------------------------------------------------------------------ *)
(* Solving and footprint extraction                                    *)
(* ------------------------------------------------------------------ *)

let spec : Ident.t Solver.spec =
  {
    Solver.direction = Dataflow.Forward;
    boundary = Env_lattice.Env Ident.Map.empty;
    transfer;
    transfer_term = (fun _term fact -> fact);
    refine_edge;
  }

type solution = { graph : Ident.t FG.t; sol : Solver.solution }

let solve graph = { graph; sol = Solver.solve ~widen_after:3 spec graph }

(* ------------------------------------------------------------------ *)
(* Access footprints                                                   *)
(* ------------------------------------------------------------------ *)

type kind = Load | Store | Atomic_rmw

type target = Mem of Insn.space | Csr_target of string

(* Byte ranges, inclusive on both ends. *)
type range = Bytes of { lo : int; hi : int } | Unknown_range

type access = {
  target : target;
  kind : kind;
  range : range;
  words : int;
  block : string;
  pos : int;
}

let default_spill_base_words =
  Ixp.Memory.default_config.Ixp.Memory.scratch_words - 64

let range_of_itv itv ~disp ~words =
  let open Interval in
  if itv.lo >= 0 && is_bounded itv then
    Bytes { lo = itv.lo + disp; hi = itv.hi + disp + (4 * words) - 1 }
  else Unknown_range

let range_of_addr m (addr : Ident.t Insn.addr) ~words =
  range_of_itv (itv_of (operand_val m addr.Insn.base)) ~disp:addr.Insn.disp
    ~words

let spill_range ~spill_base_words slot =
  let byte = 4 * (spill_base_words + slot) in
  Bytes { lo = byte; hi = byte + 3 }

let insn_accesses ~spill_base_words m ~block ~pos :
    Ident.t Insn.t -> access list = function
  | Insn.Read { space; dsts; addr } ->
      let words = Array.length dsts in
      [
        {
          target = Mem space;
          kind = Load;
          range = range_of_addr m addr ~words;
          words;
          block;
          pos;
        };
      ]
  | Insn.Write { space; srcs; addr } ->
      let words = Array.length srcs in
      [
        {
          target = Mem space;
          kind = Store;
          range = range_of_addr m addr ~words;
          words;
          block;
          pos;
        };
      ]
  | Insn.Bit_test_set { addr; _ } ->
      [
        {
          target = Mem Insn.Sram;
          kind = Atomic_rmw;
          range = range_of_addr m addr ~words:1;
          words = 1;
          block;
          pos;
        };
      ]
  | Insn.Spill { slot; _ } ->
      [
        {
          target = Mem Insn.Scratch;
          kind = Store;
          range = spill_range ~spill_base_words slot;
          words = 1;
          block;
          pos;
        };
      ]
  | Insn.Reload { slot; _ } ->
      [
        {
          target = Mem Insn.Scratch;
          kind = Load;
          range = spill_range ~spill_base_words slot;
          words = 1;
          block;
          pos;
        };
      ]
  | Insn.Csr_read { csr; _ } ->
      [
        {
          target = Csr_target csr;
          kind = Load;
          range = Bytes { lo = 0; hi = 3 };
          words = 1;
          block;
          pos;
        };
      ]
  | Insn.Csr_write { csr; _ } ->
      [
        {
          target = Csr_target csr;
          kind = Store;
          range = Bytes { lo = 0; hi = 3 };
          words = 1;
          block;
          pos;
        };
      ]
  (* hash is a device operation; FIFO transfers touch the per-context
     receive/transmit FIFOs, which are private to the thread *)
  | Insn.Hash _ | Insn.Rfifo_read _ | Insn.Tfifo_write _ -> []
  | Insn.Alu _ | Insn.Alu1 _ | Insn.Imm _ | Insn.Clone _ | Insn.Move _
  | Insn.Ctx_arb | Insn.Nop ->
      []

(* All memory accesses of the program, with interval-derived footprints.
   Unreachable blocks are skipped: they execute on no path. *)
let accesses ?(spill_base_words = default_spill_base_words) (s : solution) :
    access list =
  let reachable = Dataflow.reachable_blocks s.graph in
  List.concat_map
    (fun (b : Ident.t FG.block) ->
      if not (Hashtbl.mem reachable b.FG.label) then []
      else
        let facts = Solver.point_facts spec s.sol b in
        List.concat
          (List.init (Array.length b.FG.insns) (fun pos ->
               match facts.(pos) with
               | Env_lattice.Bot -> []
               | Env_lattice.Env m ->
                   insn_accesses ~spill_base_words m ~block:b.FG.label ~pos
                     b.FG.insns.(pos))))
    (FG.blocks s.graph)

let of_graph ?spill_base_words g = accesses ?spill_base_words (solve g)

(* Spill-slot traffic of an emitted physical program.  Allocation is the
   only pass that introduces scratch spill slots, and the slots are
   process-wide shared scratch words, so these are exactly the shared
   accesses the virtual-graph analysis cannot see. *)
let spill_accesses ?(spill_base_words = default_spill_base_words)
    (g : Ixp.Reg.t FG.t) : access list =
  let reachable = Dataflow.reachable_blocks g in
  List.concat_map
    (fun (b : Ixp.Reg.t FG.block) ->
      if not (Hashtbl.mem reachable b.FG.label) then []
      else
        List.concat
          (List.init (Array.length b.FG.insns) (fun pos ->
               match b.FG.insns.(pos) with
               | Insn.Spill { slot; _ } ->
                   [
                     {
                       target = Mem Insn.Scratch;
                       kind = Store;
                       range = spill_range ~spill_base_words slot;
                       words = 1;
                       block = b.FG.label;
                       pos;
                     };
                   ]
               | Insn.Reload { slot; _ } ->
                   [
                     {
                       target = Mem Insn.Scratch;
                       kind = Load;
                       range = spill_range ~spill_base_words slot;
                       words = 1;
                       block = b.FG.label;
                       pos;
                     };
                   ]
               | _ -> [])))
    (FG.blocks g)

let pp_kind ppf = function
  | Load -> Fmt.string ppf "read"
  | Store -> Fmt.string ppf "write"
  | Atomic_rmw -> Fmt.string ppf "atomic-rmw"

let pp_target ppf = function
  | Mem s -> Fmt.string ppf (Insn.space_to_string s)
  | Csr_target c -> Fmt.pf ppf "csr[%s]" c

let pp_range ppf = function
  | Bytes { lo; hi } -> Fmt.pf ppf "[0x%x..0x%x]" lo hi
  | Unknown_range -> Fmt.string ppf "[?]"

let pp_access ppf a =
  Fmt.pf ppf "%a %a %a at %s.%d" pp_kind a.kind pp_target a.target pp_range
    a.range a.block a.pos
