(* IXP1200 register banks as seen from one micro-engine thread (paper
   Figure 1).

   Six physical register banks plus the scratch memory M, which the ILP
   model treats as a seventh (memory-backed) bank:

     A, B     general-purpose banks feeding the ALU;
     L        SRAM read-transfer bank (destination of SRAM/scratch loads);
     S        SRAM write-transfer bank (source of SRAM/scratch stores);
     LD       SDRAM read-transfer bank;
     SD       SDRAM write-transfer bank;
     M        on-chip scratch memory used as spill space.

   Datapaths (paper §1): the ALU reads from {A, B, L, LD} with at most one
   operand from each of A, B, and L∪LD; it writes to {A, B, S, SD}.  There
   is no path between registers of the same transfer bank, and values in
   S/SD can only be recovered through memory. *)

type t =
  | A | B | L | LD | S | SD | M
  | C (* virtual constant bank (paper §12 rematerialization): unlimited
         capacity, holds constants only; a move from C is a load-immediate
         and a move to C discards the register copy *)

let all = [ A; B; L; LD; S; SD; M; C ]

(* The paper's AMPL sets: XBank = transfer banks, GBank = {A, B, M}. *)
let xbanks = [ L; LD; S; SD ]

let is_transfer = function L | LD | S | SD -> true | A | B | M | C -> false
let is_read_transfer = function L | LD -> true | _ -> false
let is_write_transfer = function S | SD -> true | _ -> false

let to_string = function
  | A -> "A"
  | B -> "B"
  | L -> "L"
  | LD -> "LD"
  | S -> "S"
  | SD -> "SD"
  | M -> "M"
  | C -> "C"

let of_string = function
  | "A" -> A
  | "B" -> B
  | "L" -> L
  | "LD" -> LD
  | "S" -> S
  | "SD" -> SD
  | "M" -> M
  | "C" -> C
  | s -> invalid_arg ("Bank.of_string: " ^ s)

let pp ppf b = Fmt.string ppf (to_string b)

let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b

(* Physical capacity of each bank per thread.  A and B have 16 GPRs each;
   transfer banks have 8 registers (XRegs = 0..7 in the paper §9); scratch
   is memory and effectively unbounded for allocation purposes. *)
let capacity = function
  | A | B -> 16
  | L | LD | S | SD -> 8
  | M | C -> max_int

(* K-constraint capacity used by the ILP model: one A register is held in
   reserve to break cycles in parallel copies during optimistic coalescing
   (paper §6: "Before_{p,v,A} <= 15"). *)
let k_capacity = function A -> 15 | b -> capacity b

(* ALU operand sources and result destinations. *)
let alu_inputs = [ A; B; L; LD ]
let alu_outputs = [ A; B; S; SD ]

let can_feed_alu b = List.mem b alu_inputs
let can_receive_alu b = List.mem b alu_outputs

(* Legality of a direct (single register-register move) transfer from
   [src] to [dst].  A move is an ALU identity operation, so the source
   must be an ALU input and the destination an ALU output.  Moves within
   the same transfer bank are impossible (no datapath).  Moves touching M
   are memory operations and are considered separately (they are legal in
   the ILP model's sense but expand to scratch reads/writes). *)
let direct_move_ok ~src ~dst =
  match (src, dst) with
  | M, _ | _, M | C, _ | _, C -> false
  | s, d ->
      (* A->A and B->B register moves are ordinary ALU passthroughs; only
         the transfer banks lack an intra-bank path (and they are already
         excluded: the read side cannot be an ALU destination and the
         write side cannot be an ALU source) *)
      can_feed_alu s && can_receive_alu d


(* Cost model for the ILP objective (paper §7): a move between two
   register banks costs [mv]; moves through scratch memory add a store
   and/or a load.

     A/B/L  -> M : mv + st        (value staged through S, then stored)
     M -> A/B/L  : mv + ld        (loaded into L, then moved)
     M -> L      : ld             (loads land in L directly)
     ...

   The paper only spells out the A-bank rows of the objective; we apply
   the same recipe uniformly: count one [mv] for the register-register
   part and add [st]/[ld] whenever scratch memory is crossed. *)
type cost_params = { mv : float; ld : float; st : float; bias : float }

let default_costs = { mv = 1.0; ld = 200.0; st = 200.0; bias = 1.01 }

let move_cost ?(params = default_costs) ~src ~dst () =
  let { mv; ld; st; bias } = params in
  let base =
    match (src, dst) with
    | s, d when equal s d -> 0.0
    | C, _ -> mv (* immediate load; value-specific cost applied by the
                    model, which knows the constant *)
    | _, C -> 0.0 (* discarding a register copy of a constant is free *)
    | M, L -> ld (* scratch load lands directly in L *)
    | M, _ -> mv +. ld (* load into L, then move onward *)
    | S, M | SD, M -> st (* already on the write side; just store *)
    | _, M -> mv +. st (* stage through S, then store *)
    | _, _ -> mv
  in
  (* Small bias away from B keeps the solver from dithering between the
     symmetric A and B banks (paper §7). *)
  if equal src B || equal dst B then base *. bias else base

(* Transitions the ILP's Move variables may take in one step: the direct
   ALU datapaths, stores into scratch (staged through S when necessary),
   and reloads out of scratch (landing in L, optionally moved onward to a
   GPR in the same modelled move).  A value in S/SD can only escape
   through memory; SD is not reachable from scratch in one step. *)
let move_legal ~src ~dst =
  equal src dst
  || direct_move_ok ~src ~dst
  || (equal dst M && not (equal src M || equal src C))
  || (equal src M && List.mem dst [ L; A; B ])
  (* constants: loads go to the GPRs; discards come from anywhere the
     constant was copied to *)
  || (equal src C && List.mem dst [ A; B ])
  || (equal dst C && List.mem src [ A; B ])
