(* IXP micro-engine instruction set, polymorphic in the register
   representation: ['r = Support.Ident.t] before register allocation
   (virtual temporaries) and ['r = Reg.t] afterwards (bank + number).

   The subset modelled covers everything the paper's ILP formulation has
   to reason about: ALU operations (with the one-operand-per-bank-group
   rule), immediate loads, aggregate memory transfers to/from SRAM, SDRAM
   and scratch, the [hash] and [bit_test_set] operations whose source and
   destination must share a register *number* across two transfer banks
   (SameReg), CSR access, FIFO transfers, thread synchronization, and the
   [clone] pseudo-instruction introduced by the SSU pass. *)

type alu_op =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Asr
  | Mullo (* synthesized multiply step; IXP1200 has no full multiply *)

let alu_op_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Asr -> "asr"
  | Mullo -> "mullo"

type cond = Eq | Ne | Lt | Le | Gt | Ge | Ultl | Uge

let cond_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Ultl -> "ult"
  | Uge -> "uge"

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Le -> Gt
  | Gt -> Le
  | Ultl -> Uge
  | Uge -> Ultl

type space = Sram | Sdram | Scratch

let space_to_string = function
  | Sram -> "sram"
  | Sdram -> "sdram"
  | Scratch -> "scratch"

(* Read-side / write-side transfer banks for each memory space.  Scratch
   shares the SRAM transfer banks (paper §1: scratch "also accessed via L
   and LD" -- we use the L/S pair). *)
let read_bank = function Sram | Scratch -> Bank.L | Sdram -> Bank.LD
let write_bank = function Sram | Scratch -> Bank.S | Sdram -> Bank.SD

type 'r operand = Reg of 'r | Lit of int

type 'r addr = { base : 'r operand; disp : int }

type 'r t =
  | Alu of { dst : 'r; op : alu_op; x : 'r; y : 'r operand }
  | Alu1 of { dst : 'r; op : [ `Mov | `Not | `Neg ]; src : 'r }
  | Imm of { dst : 'r; value : int }
  (* Aggregate memory read: [dsts] land in adjacent registers of the
     read-transfer bank of [space]; 1-8 words (SDRAM: even counts). *)
  | Read of { space : space; dsts : 'r array; addr : 'r addr }
  | Write of { space : space; srcs : 'r array; addr : 'r addr }
  (* dst <- hash(src): dst in L, src in S, same register number. *)
  | Hash of { dst : 'r; src : 'r }
  (* dst <- sram[ea, bit_test_set] <- src: same register number. *)
  | Bit_test_set of { dst : 'r; src : 'r; addr : 'r addr }
  (* SSU pseudo-instruction: all dsts are non-interfering copies of src. *)
  | Clone of { dsts : 'r array; src : 'r }
  (* Inter-bank move inserted by the allocator (identity through ALU). *)
  | Move of { dst : 'r; src : 'r }
  (* Spill/reload through scratch memory at a fixed slot. *)
  | Spill of { slot : int; src : 'r }
  | Reload of { slot : int; dst : 'r }
  | Csr_read of { dst : 'r; csr : string }
  | Csr_write of { src : 'r; csr : string }
  (* Receive/transmit FIFO transfers (modelled as special memory). *)
  | Rfifo_read of { dsts : 'r array; addr : 'r addr }
  | Tfifo_write of { srcs : 'r array; addr : 'r addr }
  | Ctx_arb (* voluntary thread swap *)
  | Nop

type 'r terminator =
  | Jump of string
  | Branch of { cond : cond; x : 'r; y : 'r operand; ifso : string; ifnot : string }
  | Halt

(* ------------------------------------------------------------------ *)
(* Use/def sets                                                        *)
(* ------------------------------------------------------------------ *)

let operand_uses = function Reg r -> [ r ] | Lit _ -> []
let addr_uses a = operand_uses a.base

let defs = function
  | Alu { dst; _ } | Alu1 { dst; _ } | Imm { dst; _ } -> [ dst ]
  | Read { dsts; _ } | Rfifo_read { dsts; _ } -> Array.to_list dsts
  | Hash { dst; _ } | Bit_test_set { dst; _ } -> [ dst ]
  | Clone { dsts; _ } -> Array.to_list dsts
  | Move { dst; _ } | Reload { dst; _ } | Csr_read { dst; _ } -> [ dst ]
  | Write _ | Tfifo_write _ | Csr_write _ | Spill _ | Ctx_arb | Nop -> []

let uses = function
  | Alu { x; y; _ } -> x :: operand_uses y
  | Alu1 { src; _ } -> [ src ]
  | Imm _ -> []
  | Read { addr; _ } | Rfifo_read { addr; _ } -> addr_uses addr
  | Write { srcs; addr; _ } | Tfifo_write { srcs; addr; _ } ->
      Array.to_list srcs @ addr_uses addr
  | Hash { src; _ } -> [ src ]
  | Bit_test_set { src; addr; _ } -> src :: addr_uses addr
  | Clone { src; _ } -> [ src ]
  | Move { src; _ } | Spill { src; _ } | Csr_write { src; _ } -> [ src ]
  | Reload _ | Csr_read _ | Ctx_arb | Nop -> []

let term_uses = function
  | Jump _ | Halt -> []
  | Branch { x; y; _ } -> x :: operand_uses y

let term_targets = function
  | Jump l -> [ l ]
  | Branch { ifso; ifnot; _ } -> [ ifso; ifnot ]
  | Halt -> []

(* Does executing this instruction hand the engine to another ready
   context?  A static statement of the default timing model: the
   simulator yields after a reference whose latency exceeds the 2-cycle
   issue cost, which under [Memory.default_config] is every memory,
   hash, and FIFO operation, and after the voluntary [Ctx_arb].  ALU
   work, immediates, moves, and CSR accesses complete in-pipe and never
   yield; the simulator's straight runs hold only such instructions
   (tested against this predicate on every workload).

   Note that [Ctx_arb] (like the CSR instructions) is a *plain*
   instruction, not a terminator: control resumes at the next
   instruction of the same block, and block successors derive only from
   [term_targets].  What a yield changes is the cross-context schedule,
   not the control-flow graph. *)
let yields = function
  | Read _ | Write _ | Hash _ | Bit_test_set _ | Spill _ | Reload _
  | Rfifo_read _ | Tfifo_write _ | Ctx_arb ->
      true
  | Alu _ | Alu1 _ | Imm _ | Move _ | Clone _ | Csr_read _ | Csr_write _ | Nop
    ->
      false

(* ------------------------------------------------------------------ *)
(* Operand-class machine description (paper §5.2)                      *)
(* ------------------------------------------------------------------ *)

(* Classes of definitions and uses, mirroring the AMPL sets:
     Def_abw       result may go to A, B, S or SD (DefABW);
     Def_ab        result must go to A or B (e.g. reloads land via L->A/B,
                   CSR reads);
     Def_agg       aggregate definition into the read-transfer bank of a
                   space (DefL_i / DefLD_j), with the position in the
                   aggregate;
     Use_arith     ALU operand pair subject to the disjoint-banks rule;
     Use_agg       aggregate use from the write-transfer bank (UseS_i /
                   UseSD_j) with position;
     Use_ab        address operands, which must live in A or B;
     Same_reg      (dst, src) pairs needing equal register numbers. *)

type 'r def_class =
  | Def_abw of 'r
  | Def_ab of 'r
  | Def_agg of space * 'r array

type 'r use_class =
  | Use_arith1 of 'r (* single ALU operand: any of A, B, L, LD *)
  | Use_arith2 of 'r * 'r (* operand pair: disjoint bank groups *)
  | Use_agg of space * 'r array
  | Use_ab of 'r

type 'r constraints = {
  def_classes : 'r def_class list;
  use_classes : 'r use_class list;
  same_reg : ('r * 'r) list; (* (read-side, write-side) *)
  is_clone : ('r array * 'r) option;
}

let no_constraints =
  { def_classes = []; use_classes = []; same_reg = []; is_clone = None }

let addr_use_classes a =
  match a.base with Reg r -> [ Use_ab r ] | Lit _ -> []

let classify (insn : 'r t) : 'r constraints =
  match insn with
  | Alu { dst; x; y = Reg y; _ } ->
      {
        no_constraints with
        def_classes = [ Def_abw dst ];
        use_classes = [ Use_arith2 (x, y) ];
      }
  | Alu { dst; x; y = Lit _; _ } | Alu1 { dst; src = x; _ } ->
      {
        no_constraints with
        def_classes = [ Def_abw dst ];
        use_classes = [ Use_arith1 x ];
      }
  | Imm { dst; _ } -> { no_constraints with def_classes = [ Def_abw dst ] }
  | Read { space; dsts; addr } ->
      {
        no_constraints with
        def_classes = [ Def_agg (space, dsts) ];
        use_classes = addr_use_classes addr;
      }
  | Rfifo_read { dsts; addr } ->
      (* FIFO reads land in SDRAM transfer registers on the IXP1200. *)
      {
        no_constraints with
        def_classes = [ Def_agg (Sdram, dsts) ];
        use_classes = addr_use_classes addr;
      }
  | Write { space; srcs; addr } ->
      {
        no_constraints with
        use_classes = Use_agg (space, srcs) :: addr_use_classes addr;
      }
  | Tfifo_write { srcs; addr } ->
      {
        no_constraints with
        use_classes = Use_agg (Sdram, srcs) :: addr_use_classes addr;
      }
  | Hash { dst; src } ->
      {
        no_constraints with
        def_classes = [ Def_agg (Sram, [| dst |]) ];
        use_classes = [ Use_agg (Sram, [| src |]) ];
        same_reg = [ (dst, src) ];
      }
  | Bit_test_set { dst; src; addr } ->
      {
        no_constraints with
        def_classes = [ Def_agg (Sram, [| dst |]) ];
        use_classes = Use_agg (Sram, [| src |]) :: addr_use_classes addr;
        same_reg = [ (dst, src) ];
      }
  | Clone { dsts; src } -> { no_constraints with is_clone = Some (dsts, src) }
  | Move { dst; src } ->
      (* Moves only appear after allocation; the model never sees them. *)
      {
        no_constraints with
        def_classes = [ Def_abw dst ];
        use_classes = [ Use_arith1 src ];
      }
  | Spill { src; _ } ->
      { no_constraints with use_classes = [ Use_agg (Scratch, [| src |]) ] }
  | Reload { dst; _ } ->
      { no_constraints with def_classes = [ Def_agg (Scratch, [| dst |]) ] }
  | Csr_read { dst; _ } -> { no_constraints with def_classes = [ Def_ab dst ] }
  | Csr_write { src; _ } -> { no_constraints with use_classes = [ Use_ab src ] }
  | Ctx_arb | Nop -> no_constraints

let term_constraints (term : 'r terminator) : 'r constraints =
  match term with
  | Jump _ | Halt -> no_constraints
  | Branch { x; y = Reg y; _ } ->
      { no_constraints with use_classes = [ Use_arith2 (x, y) ] }
  | Branch { x; y = Lit _; _ } ->
      { no_constraints with use_classes = [ Use_arith1 x ] }

(* Aggregate size legality (paper §5.2: DefL_i for 1<=i<=8; DefLD_j for
   j in {2,4,6,8}). *)
let legal_aggregate space n =
  match space with
  | Sram | Scratch -> n >= 1 && n <= 8
  | Sdram -> n >= 2 && n <= 8 && n mod 2 = 0

(* ------------------------------------------------------------------ *)
(* Mapping over registers                                              *)
(* ------------------------------------------------------------------ *)

let map_operand f = function Reg r -> Reg (f r) | Lit i -> Lit i
let map_addr f a = { a with base = map_operand f a.base }

let map_regs f = function
  | Alu { dst; op; x; y } -> Alu { dst = f dst; op; x = f x; y = map_operand f y }
  | Alu1 { dst; op; src } -> Alu1 { dst = f dst; op; src = f src }
  | Imm { dst; value } -> Imm { dst = f dst; value }
  | Read { space; dsts; addr } ->
      Read { space; dsts = Array.map f dsts; addr = map_addr f addr }
  | Write { space; srcs; addr } ->
      Write { space; srcs = Array.map f srcs; addr = map_addr f addr }
  | Hash { dst; src } -> Hash { dst = f dst; src = f src }
  | Bit_test_set { dst; src; addr } ->
      Bit_test_set { dst = f dst; src = f src; addr = map_addr f addr }
  | Clone { dsts; src } -> Clone { dsts = Array.map f dsts; src = f src }
  | Move { dst; src } -> Move { dst = f dst; src = f src }
  | Spill { slot; src } -> Spill { slot; src = f src }
  | Reload { slot; dst } -> Reload { slot; dst = f dst }
  | Csr_read { dst; csr } -> Csr_read { dst = f dst; csr }
  | Csr_write { src; csr } -> Csr_write { src = f src; csr }
  | Rfifo_read { dsts; addr } ->
      Rfifo_read { dsts = Array.map f dsts; addr = map_addr f addr }
  | Tfifo_write { srcs; addr } ->
      Tfifo_write { srcs = Array.map f srcs; addr = map_addr f addr }
  | Ctx_arb -> Ctx_arb
  | Nop -> Nop

let map_term f = function
  | Jump l -> Jump l
  | Branch { cond; x; y; ifso; ifnot } ->
      Branch { cond; x = f x; y = map_operand f y; ifso; ifnot }
  | Halt -> Halt

(* Map uses and definitions with different functions (register
   allocation rewrites uses with the pre-instruction state and
   definitions with the post-instruction state). *)
let map_uses_defs ~use ~def = function
  | Alu { dst; op; x; y } ->
      Alu { dst = def dst; op; x = use x; y = map_operand use y }
  | Alu1 { dst; op; src } -> Alu1 { dst = def dst; op; src = use src }
  | Imm { dst; value } -> Imm { dst = def dst; value }
  | Read { space; dsts; addr } ->
      Read { space; dsts = Array.map def dsts; addr = map_addr use addr }
  | Write { space; srcs; addr } ->
      Write { space; srcs = Array.map use srcs; addr = map_addr use addr }
  | Hash { dst; src } -> Hash { dst = def dst; src = use src }
  | Bit_test_set { dst; src; addr } ->
      Bit_test_set { dst = def dst; src = use src; addr = map_addr use addr }
  | Clone { dsts; src } -> Clone { dsts = Array.map def dsts; src = use src }
  | Move { dst; src } -> Move { dst = def dst; src = use src }
  | Spill { slot; src } -> Spill { slot; src = use src }
  | Reload { slot; dst } -> Reload { slot; dst = def dst }
  | Csr_read { dst; csr } -> Csr_read { dst = def dst; csr }
  | Csr_write { src; csr } -> Csr_write { src = use src; csr }
  | Rfifo_read { dsts; addr } ->
      Rfifo_read { dsts = Array.map def dsts; addr = map_addr use addr }
  | Tfifo_write { srcs; addr } ->
      Tfifo_write { srcs = Array.map use srcs; addr = map_addr use addr }
  | Ctx_arb -> Ctx_arb
  | Nop -> Nop

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_operand pp_reg ppf = function
  | Reg r -> pp_reg ppf r
  | Lit i -> Fmt.pf ppf "$%d" i

let pp_addr pp_reg ppf a =
  if a.disp = 0 then Fmt.pf ppf "[%a]" (pp_operand pp_reg) a.base
  else Fmt.pf ppf "[%a+%d]" (pp_operand pp_reg) a.base a.disp

let pp_regs pp_reg ppf rs =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") pp_reg) rs

let pp pp_reg ppf insn =
  let pr fmt = Fmt.pf ppf fmt in
  let op = pp_operand pp_reg in
  let addr = pp_addr pp_reg in
  let regs = pp_regs pp_reg in
  match insn with
  | Alu { dst; op = o; x; y } ->
      pr "%a <- %s(%a, %a)" pp_reg dst (alu_op_to_string o) pp_reg x op y
  | Alu1 { dst; op = `Mov; src } -> pr "%a <- %a" pp_reg dst pp_reg src
  | Alu1 { dst; op = `Not; src } -> pr "%a <- not %a" pp_reg dst pp_reg src
  | Alu1 { dst; op = `Neg; src } -> pr "%a <- neg %a" pp_reg dst pp_reg src
  | Imm { dst; value } -> pr "%a <- imm %d" pp_reg dst value
  | Read { space; dsts; addr = a } ->
      pr "%a <- %s%a" regs dsts (space_to_string space) addr a
  | Write { space; srcs; addr = a } ->
      pr "%s%a <- %a" (space_to_string space) addr a regs srcs
  | Hash { dst; src } -> pr "%a <- hash(%a)" pp_reg dst pp_reg src
  | Bit_test_set { dst; src; addr = a } ->
      pr "%a <- (sram%a, bit_test_set) <- %a" pp_reg dst addr a pp_reg src
  | Clone { dsts; src } -> pr "%a <- clone(%a)" regs dsts pp_reg src
  | Move { dst; src } -> pr "%a <- move %a" pp_reg dst pp_reg src
  | Spill { slot; src } -> pr "spill[%d] <- %a" slot pp_reg src
  | Reload { slot; dst } -> pr "%a <- reload[%d]" pp_reg dst slot
  | Csr_read { dst; csr } -> pr "%a <- csr[%s]" pp_reg dst csr
  | Csr_write { src; csr } -> pr "csr[%s] <- %a" csr pp_reg src
  | Rfifo_read { dsts; addr = a } -> pr "%a <- rfifo%a" regs dsts addr a
  | Tfifo_write { srcs; addr = a } -> pr "tfifo%a <- %a" addr a regs srcs
  | Ctx_arb -> pr "ctx_arb"
  | Nop -> pr "nop"

let pp_term pp_reg ppf term =
  let op = pp_operand pp_reg in
  match term with
  | Jump l -> Fmt.pf ppf "jump %s" l
  | Branch { cond; x; y; ifso; ifnot } ->
      Fmt.pf ppf "br.%s(%a, %a) %s else %s" (cond_to_string cond) pp_reg x op
        y ifso ifnot
  | Halt -> Fmt.string ppf "halt"
