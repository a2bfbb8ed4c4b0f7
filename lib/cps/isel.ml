(* Instruction selection: first-order CPS -> IXP flowgraph over virtual
   registers (the input to the ILP register allocator).

   Preconditions (established by deproc + contract):
     - every application's head is a Fix-bound name (no indirect jumps);
     - no Func-kind definitions remain except specialized recursion
       groups, which behave like continuations.

   Every fundef becomes a basic block; applications become jumps preceded
   by a parallel-move sequence that transfers arguments into the callee's
   parameter variables.  [Halt vs] writes the observable results to a
   reserved scratch area (so tests can compare against the CPS
   interpreter) and halts. *)

open Support
open Ir

(* Result area: high scratch words, below the spill area. *)
let result_words = 16
let result_addr_bytes config =
  4 * (config.Ixp.Memory.scratch_words - 64 - result_words)

exception Isel_error of string

let error fmt = Fmt.kstr (fun s -> raise (Isel_error s)) fmt

let cond_of_cmp : cmp -> Ixp.Insn.cond = function
  | Eq -> Ixp.Insn.Eq
  | Ne -> Ixp.Insn.Ne
  | Lt -> Ixp.Insn.Lt
  | Le -> Ixp.Insn.Le
  | Gt -> Ixp.Insn.Gt
  | Ge -> Ixp.Insn.Ge
  | Ult -> Ixp.Insn.Ultl
  | Uge -> Ixp.Insn.Uge

let alu_of_prim : prim -> Ixp.Insn.alu_op = function
  | Add -> Ixp.Insn.Add
  | Sub -> Ixp.Insn.Sub
  | Mul -> Ixp.Insn.Mullo
  | And -> Ixp.Insn.And
  | Or -> Ixp.Insn.Or
  | Xor -> Ixp.Insn.Xor
  | Shl -> Ixp.Insn.Shl
  | Shr -> Ixp.Insn.Shr
  | Asr -> Ixp.Insn.Asr
  | Not | Neg | Mov -> Support.Diag.ice "alu_of_prim: unary"

let space_to_ixp : Nova.Ast.mem_space -> Ixp.Insn.space = function
  | Nova.Ast.Sram -> Ixp.Insn.Sram
  | Nova.Ast.Sdram -> Ixp.Insn.Sdram
  | Nova.Ast.Scratch -> Ixp.Insn.Scratch

(* IXP immediates are small; larger constants are materialized. *)
let fits_immediate i = i >= 0 && i < 256

type st = {
  graph_blocks : (string * Ident.t Ixp.Insn.t list * Ident.t Ixp.Insn.terminator) Vec.t;
  params_of : var list Ident.Tbl.t; (* fundef name -> params *)
  mutable pending : (string * var list * term) list; (* blocks to emit *)
  emitted : (string, unit) Hashtbl.t;
  config : Ixp.Memory.config;
}

(* Materialize a CPS value into a virtual register, emitting into [ins]. *)
let as_reg ins (v : value) : Ident.t =
  match v with
  | Var x -> x
  | Int i ->
      let t = Ident.fresh "imm" in
      Vec.push ins (Ixp.Insn.Imm { dst = t; value = i });
      t

let as_operand ins (v : value) : Ident.t Ixp.Insn.operand =
  match v with
  | Var x -> Ixp.Insn.Reg x
  | Int i when fits_immediate i -> Ixp.Insn.Lit i
  | Int i ->
      let t = Ident.fresh "imm" in
      Vec.push ins (Ixp.Insn.Imm { dst = t; value = i });
      Ixp.Insn.Reg t

let as_addr _ins (v : value) : Ident.t Ixp.Insn.addr =
  match v with
  | Var x -> { Ixp.Insn.base = Ixp.Insn.Reg x; disp = 0 }
  | Int i -> { Ixp.Insn.base = Ixp.Insn.Lit i; disp = 0 }

(* ------------------------------------------------------------------ *)
(* Parallel moves                                                      *)
(* ------------------------------------------------------------------ *)

(* Emit moves [dst_i := src_i] that are executed "simultaneously":
   classic algorithm; cycles are broken with a fresh temporary. *)
let emit_parallel_moves ins (pairs : (var * value) list) =
  (* drop identities *)
  let pairs =
    List.filter (fun (d, s) -> match s with Var x -> not (Ident.equal d x) | Int _ -> true) pairs
  in
  (* constants last: they have no read dependencies *)
  let consts, moves =
    List.partition (fun (_, s) -> match s with Int _ -> true | Var _ -> false) pairs
  in
  (* moves: dst <- src(var) *)
  let remaining =
    ref
      (List.map
         (fun (d, s) -> (d, match s with Var x -> x | _ -> assert false))
         moves)
  in
  let is_pending_src x = List.exists (fun (_, s) -> Ident.equal s x) !remaining in
  while !remaining <> [] do
    let ready, blocked =
      List.partition (fun (d, _) -> not (is_pending_src d)) !remaining
    in
    if ready <> [] then begin
      List.iter
        (fun (d, s) -> Vec.push ins (Ixp.Insn.Alu1 { dst = d; op = `Mov; src = s }))
        ready;
      remaining := blocked
    end
    else begin
      (* every destination is also a pending source: a cycle.  Save one
         destination's old value to a temporary, emit its move, and
         redirect readers of the old value to the temporary. *)
      match !remaining with
      | [] -> ()
      | (d, s) :: rest ->
          let tmp = Ident.fresh "cyc" in
          Vec.push ins (Ixp.Insn.Alu1 { dst = tmp; op = `Mov; src = d });
          Vec.push ins (Ixp.Insn.Alu1 { dst = d; op = `Mov; src = s });
          remaining :=
            List.map
              (fun (d', s') -> if Ident.equal s' d then (d', tmp) else (d', s'))
              rest
    end
  done;
  List.iter
    (fun (d, s) ->
      match s with
      | Int i -> Vec.push ins (Ixp.Insn.Imm { dst = d; value = i })
      | Var _ -> assert false)
    consts

(* ------------------------------------------------------------------ *)
(* Block emission                                                      *)
(* ------------------------------------------------------------------ *)

let label_of (x : var) = Ident.name x

let rec emit_term (st : st) ins (t : term) : Ident.t Ixp.Insn.terminator =
  match t with
  | Prim (x, Mov, [ v ], k) ->
      (match v with
      | Var s -> Vec.push ins (Ixp.Insn.Alu1 { dst = x; op = `Mov; src = s })
      | Int i -> Vec.push ins (Ixp.Insn.Imm { dst = x; value = i }));
      emit_term st ins k
  | Prim (x, Not, [ v ], k) ->
      let s = as_reg ins v in
      Vec.push ins (Ixp.Insn.Alu1 { dst = x; op = `Not; src = s });
      emit_term st ins k
  | Prim (x, Neg, [ v ], k) ->
      let s = as_reg ins v in
      Vec.push ins (Ixp.Insn.Alu1 { dst = x; op = `Neg; src = s });
      emit_term st ins k
  | Prim (x, p, [ a; b ], k) ->
      let xa = as_reg ins a in
      let yb = as_operand ins b in
      (* the ALU reads its two operands from different bank groups; a
         repeated variable needs a physical copy for the second port *)
      let yb =
        match yb with
        | Ixp.Insn.Reg y when Ident.equal y xa ->
            let t = Ident.fresh "dup" in
            Vec.push ins (Ixp.Insn.Alu1 { dst = t; op = `Mov; src = y });
            Ixp.Insn.Reg t
        | _ -> yb
      in
      Vec.push ins (Ixp.Insn.Alu { dst = x; op = alu_of_prim p; x = xa; y = yb });
      emit_term st ins k
  | Prim (_, p, vs, _) ->
      error "bad primitive arity: %s/%d" (prim_to_string p) (List.length vs)
  | MemRead (sp, a, dsts, k) ->
      let addr = as_addr ins a in
      Vec.push ins
        (Ixp.Insn.Read { space = space_to_ixp sp; dsts; addr });
      emit_term st ins k
  | MemWrite (sp, a, vs, k) ->
      let addr = as_addr ins a in
      let srcs = Array.map (fun v -> as_reg ins v) vs in
      Vec.push ins (Ixp.Insn.Write { space = space_to_ixp sp; srcs; addr });
      emit_term st ins k
  | Hash (x, v, k) ->
      let s = as_reg ins v in
      Vec.push ins (Ixp.Insn.Hash { dst = x; src = s });
      emit_term st ins k
  | BitTestSet (x, a, v, k) ->
      let addr = as_addr ins a in
      let s = as_reg ins v in
      Vec.push ins (Ixp.Insn.Bit_test_set { dst = x; src = s; addr });
      emit_term st ins k
  | CsrRead (x, csr, k) ->
      Vec.push ins (Ixp.Insn.Csr_read { dst = x; csr });
      emit_term st ins k
  | CsrWrite (csr, v, k) ->
      let s = as_reg ins v in
      Vec.push ins (Ixp.Insn.Csr_write { src = s; csr });
      emit_term st ins k
  | RfifoRead (a, dsts, k) ->
      let addr = as_addr ins a in
      Vec.push ins (Ixp.Insn.Rfifo_read { dsts; addr });
      emit_term st ins k
  | TfifoWrite (a, vs, k) ->
      let addr = as_addr ins a in
      let srcs = Array.map (fun v -> as_reg ins v) vs in
      Vec.push ins (Ixp.Insn.Tfifo_write { srcs; addr });
      emit_term st ins k
  | CtxArb k ->
      Vec.push ins Ixp.Insn.Ctx_arb;
      emit_term st ins k
  | Clone (dsts, src, k) ->
      Vec.push ins (Ixp.Insn.Clone { dsts; src });
      emit_term st ins k
  | Branch (cmp, a, b, t1, t2) ->
      let x, y, cmp =
        match (a, b) with
        | Var va, Var vb when Ident.equal va vb ->
            (* compare a variable against itself: duplicate one side *)
            let t = Ident.fresh "dup" in
            Vec.push ins (Ixp.Insn.Alu1 { dst = t; op = `Mov; src = vb });
            (as_reg ins a, Ixp.Insn.Reg t, cmp)
        | Var _, _ -> (as_reg ins a, as_operand ins b, cmp)
        | Int _, Var _ ->
            (* flip so the register is on the left *)
            let flipped =
              match cmp with
              | Eq -> Eq | Ne -> Ne
              | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le
              | Ult -> Ult | Uge -> Uge
            in
            (* careful: Ult/Uge flips to Ugt/Ule which we lack; just
               materialize instead *)
            (match cmp with
            | Ult | Uge -> (as_reg ins a, as_operand ins b, cmp)
            | _ -> (as_reg ins b, as_operand ins a, flipped))
        | Int _, Int _ -> (as_reg ins a, as_operand ins b, cmp)
      in
      let ifso = arm_label st t1 in
      let ifnot = arm_label st t2 in
      Ixp.Insn.Branch { cond = cond_of_cmp cmp; x; y; ifso; ifnot }
  | App (Var f, args) -> (
      match Ident.Tbl.find_opt st.params_of f with
      | None -> error "application of unknown function %s" (Ident.name f)
      | Some params ->
          if List.length params <> List.length args then
            error "arity mismatch jumping to %s" (Ident.name f);
          emit_parallel_moves ins (List.combine params args);
          Ixp.Insn.Jump (label_of f))
  | App (Int _, _) -> error "application of a constant"
  | Halt vs ->
      (* persist observable results to the scratch result area *)
      let addr = result_addr_bytes st.config in
      let rec chunks off = function
        | [] -> ()
        | vs ->
            let n = min 8 (List.length vs) in
            let now = List.filteri (fun i _ -> i < n) vs in
            let later = List.filteri (fun i _ -> i >= n) vs in
            let srcs = Array.of_list (List.map (fun v -> as_reg ins v) now) in
            Vec.push ins
              (Ixp.Insn.Write
                 {
                   space = Ixp.Insn.Scratch;
                   srcs;
                   addr = { Ixp.Insn.base = Ixp.Insn.Lit (addr + (4 * off)); disp = 0 };
                 });
            chunks (off + n) later
      in
      if vs <> [] then chunks 0 vs;
      Ixp.Insn.Halt
  | Fix (defs, k) ->
      List.iter
        (fun d ->
          Ident.Tbl.replace st.params_of d.name d.params;
          st.pending <- (label_of d.name, d.params, d.body) :: st.pending)
        defs;
      emit_term st ins k

(* A branch arm becomes either a direct jump target (if it is a bare
   application with no argument moves) or a fresh block. *)
and arm_label (st : st) (t : term) : string =
  match t with
  | App (Var f, args) when Ident.Tbl.mem st.params_of f ->
      let params = Ident.Tbl.find st.params_of f in
      let trivial =
        List.length params = List.length args
        && List.for_all2
             (fun p a -> match a with Var x -> Ident.equal x p | Int _ -> false)
             params args
      in
      if trivial then label_of f
      else begin
        let lbl = Ident.name (Ident.fresh "arm") in
        st.pending <- (lbl, [], t) :: st.pending;
        lbl
      end
  | _ ->
      let lbl = Ident.name (Ident.fresh "arm") in
      st.pending <- (lbl, [], t) :: st.pending;
      lbl

(* Collect every Fix definition reachable in the term up front, so that
   forward references (jumps to blocks bound in enclosing scopes) always
   resolve. *)
let collect_defs st t =
  iter_terms
    (fun t ->
      match t with
      | Fix (defs, _) ->
          List.iter (fun d -> Ident.Tbl.replace st.params_of d.name d.params) defs
      | _ -> ())
    t

(* Rematerialization support (paper §12): share one temporary per
   distinct constant value program-wide, defining them all in the entry
   block.  Under the ILP's virtual constant bank C those definitions are
   free bookkeeping; every use site lets the allocator choose between
   keeping the constant in a GPR or re-loading it. *)
let share_constants (g : Ident.t Ixp.Flowgraph.t) : Ident.t Ixp.Flowgraph.t =
  let shared : (int, Ident.t) Hashtbl.t = Hashtbl.create 16 in
  let alias : Ident.t Support.Ident.Tbl.t = Support.Ident.Tbl.create 32 in
  (* Only pure constant temporaries qualify: a destination defined by a
     single Imm and nothing else.  Block parameters initialized by the
     parallel-move lowering are also Imm destinations but have other
     definitions (the jumps from other predecessors). *)
  let def_count = Support.Ident.Tbl.create 64 in
  let imm_value = Support.Ident.Tbl.create 32 in
  Ixp.Flowgraph.iter_blocks
    (fun b ->
      Array.iter
        (fun insn ->
          (match insn with
          | Ixp.Insn.Imm { dst; value } ->
              Support.Ident.Tbl.replace imm_value dst value
          | _ -> ());
          List.iter
            (fun d ->
              Support.Ident.Tbl.replace def_count d
                (1 + Option.value ~default:0 (Support.Ident.Tbl.find_opt def_count d)))
            (Ixp.Insn.defs insn))
        b.Ixp.Flowgraph.insns)
    g;
  let constant v =
    if Support.Ident.Tbl.find_opt def_count v = Some 1 then
      Support.Ident.Tbl.find_opt imm_value v
    else None
  in
  (* An aggregate write's members must stay distinct temporaries: of the
     members one write takes from constants of one value, only the first
     is shared. *)
  let unshared = Support.Ident.Tbl.create 8 in
  Ixp.Flowgraph.iter_blocks
    (fun b ->
      Array.iter
        (function
          | Ixp.Insn.Write { srcs; _ } | Ixp.Insn.Tfifo_write { srcs; _ } ->
              let seen = Hashtbl.create 8 in
              Array.iter
                (fun v ->
                  match constant v with
                  | Some value when Hashtbl.mem seen value ->
                      Support.Ident.Tbl.replace unshared v ()
                  | Some value -> Hashtbl.replace seen value ()
                  | None -> ())
                srcs
          | _ -> ())
        b.Ixp.Flowgraph.insns)
    g;
  Ixp.Flowgraph.iter_blocks
    (fun b ->
      Array.iter
        (fun insn ->
          match insn with
          | Ixp.Insn.Imm { dst; value }
            when constant dst <> None
                 && not (Support.Ident.Tbl.mem unshared dst) ->
              let rep =
                match Hashtbl.find_opt shared value with
                | Some rep -> rep
                | None ->
                    let rep = Ident.fresh (Fmt.str "const%d" (value land 0xFFFF)) in
                    Hashtbl.replace shared value rep;
                    rep
              in
              Support.Ident.Tbl.replace alias dst rep
          | _ -> ())
        b.Ixp.Flowgraph.insns)
    g;
  if Hashtbl.length shared = 0 then g
  else begin
    let rename v =
      Option.value ~default:v (Support.Ident.Tbl.find_opt alias v)
    in
    let g' = Ixp.Flowgraph.create () in
    let entry_label = (Ixp.Flowgraph.entry g).Ixp.Flowgraph.label in
    Ixp.Flowgraph.iter_blocks
      (fun b ->
        let insns =
          Array.to_list b.Ixp.Flowgraph.insns
          |> List.filter_map (fun insn ->
                 match insn with
                 | Ixp.Insn.Imm { dst; _ }
                   when Support.Ident.Tbl.mem alias dst ->
                     None (* replaced by the shared defs *)
                 | _ -> Some (Ixp.Insn.map_regs rename insn))
        in
        let insns =
          if b.Ixp.Flowgraph.label = entry_label then
            Hashtbl.fold
              (fun value rep acc ->
                Ixp.Insn.Imm { dst = rep; value } :: acc)
              shared []
            @ insns
          else insns
        in
        ignore
          (Ixp.Flowgraph.add_block g' ~label:b.Ixp.Flowgraph.label ~insns
             ~term:(Ixp.Insn.map_term rename b.Ixp.Flowgraph.term)))
      g;
    g'
  end

let run ?(config = Ixp.Memory.default_config) (t : term) : Ident.t Ixp.Flowgraph.t =
  let st =
    {
      graph_blocks = Vec.create ();
      params_of = Ident.Tbl.create 64;
      pending = [];
      emitted = Hashtbl.create 64;
      config;
    }
  in
  collect_defs st t;
  (* strip the top-level Fix structure: queue all defs, start with body *)
  let emit_one (label, _params, body) =
    if not (Hashtbl.mem st.emitted label) then begin
      Hashtbl.replace st.emitted label ();
      let ins = Vec.create () in
      let term = emit_term st ins body in
      Vec.push st.graph_blocks (label, Vec.to_list ins, term)
    end
  in
  st.pending <- [ ("entry", [], t) ];
  let rec drain () =
    match st.pending with
    | [] -> ()
    | job :: rest ->
        st.pending <- rest;
        emit_one job;
        drain ()
  in
  drain ();
  (* keep only blocks reachable from the entry *)
  let term_of = Hashtbl.create 64 in
  Vec.iter (fun (label, _, term) -> Hashtbl.replace term_of label term)
    st.graph_blocks;
  let reachable = Hashtbl.create 64 in
  let rec mark label =
    if not (Hashtbl.mem reachable label) then begin
      Hashtbl.replace reachable label ();
      match Hashtbl.find_opt term_of label with
      | Some term -> List.iter mark (Ixp.Insn.term_targets term)
      | None -> error "jump to unemitted block %s" label
    end
  in
  mark "entry";
  let graph = Ixp.Flowgraph.create () in
  Vec.iter
    (fun (label, insns, term) ->
      if Hashtbl.mem reachable label then
        ignore (Ixp.Flowgraph.add_block graph ~label ~insns ~term))
    st.graph_blocks;
  graph
