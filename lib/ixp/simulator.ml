(* Cycle-counting micro-engine simulator.

   Executes post-allocation programs (physical registers) and models the
   throughput-relevant behaviour of an IXP1200 micro-engine: per-thread
   register files, shared SRAM/scratch, per-thread SDRAM packet buffers
   and FIFOs, memory latencies, and hardware multi-threading in which a
   thread yields on every memory reference and the engine switches to the
   next ready context (latency hiding).

   This replaces the paper's physical 233 MHz IXP1200 + hardware packet
   generator; see DESIGN.md for the substitution argument. *)

open Support

exception Stuck of string

let word_mask = Memory.word_mask

(* ------------------------------------------------------------------ *)
(* Decoded programs                                                    *)
(* ------------------------------------------------------------------ *)

(* [create] decodes the physical flowgraph once, so the run loop never
   hashes a label or dispatches on a register bank.  A register operand
   becomes an index into the context's flat register file, where the
   banks sit at fixed offsets (A 0-15, B 16-31, L 32-39, LD 40-47,
   S 48-55, SD 56-63).  Terminators hold block indices, and each memory
   reference carries its unloaded latency and its bus channel.

   Decoding never fails: what cannot run -- an operand in the scratch
   bank M or the constant bank C, a register number outside its bank, a
   [Clone], a jump to a missing label -- decodes to something that
   raises [Stuck], [Invalid_argument] or the unknown-block ICE when it
   executes, so an ill-formed program fails only if it reaches the bad
   instruction.

   Register operands are validated here, once.  An ALU operation, move
   or immediate whose operands are all in range decodes to one
   constructor per operation and operand kind (register [_r] or literal
   [_i] for the binary operations), which executes as plain loads and
   stores into the register file.  One with an operand out of range
   decodes to [Bad_reg] of the first bad operand in the order the
   instruction reads them, and raises what reading it would. *)

let nregs = 64
let bad_m = -1 (* operand in the scratch bank M *)
let bad_c = -2 (* operand in the constant bank C *)
let bad_num = -3 (* register number outside its bank *)

let reg_index (r : Reg.t) =
  let slot base =
    if r.num < 0 || r.num >= Bank.capacity r.bank then bad_num
    else base + r.num
  in
  match r.bank with
  | Bank.A -> slot 0
  | Bank.B -> slot 16
  | Bank.L -> slot 32
  | Bank.LD -> slot 40
  | Bank.S -> slot 48
  | Bank.SD -> slot 56
  | Bank.M -> bad_m
  | Bank.C -> bad_c

let bad_reg code =
  if code = bad_m then raise (Stuck "direct register access to scratch bank M")
  else if code = bad_c then
    raise (Stuck "direct register access to the constant bank C")
  else invalid_arg "index out of bounds"

(* Register-file accesses whose index decode has validated, and their
   checked forms for an index that may be a [bad_*] code. *)
let ld regs i = Array.unsafe_get regs i
let st regs i v = Array.unsafe_set regs i (v land word_mask)
let get regs i = if i < 0 then bad_reg i else ld regs i
let set regs i v = if i < 0 then bad_reg i else st regs i v

(* A literal operand is masked when decoded. *)
type operand = Reg of int | Lit of int

let operand regs = function Reg i -> get regs i | Lit v -> v

type addr = { base : operand; disp : int }

let addr_value regs a = (operand regs a.base + a.disp) land word_mask

(* What a reference costs: its unloaded latency, and the bus channel it
   arbitrates on ([None] without a bus). *)
type port = { latency : int; chan : Memory.channel option }

type csr = Ctx | Engine | Cycle | Zero

type op =
  (* every register index is in range *)
  | Add_r of { dst : int; x : int; y : int }
  | Add_i of { dst : int; x : int; y : int }
  | Sub_r of { dst : int; x : int; y : int }
  | Sub_i of { dst : int; x : int; y : int }
  | And_r of { dst : int; x : int; y : int }
  | And_i of { dst : int; x : int; y : int }
  | Or_r of { dst : int; x : int; y : int }
  | Or_i of { dst : int; x : int; y : int }
  | Xor_r of { dst : int; x : int; y : int }
  | Xor_i of { dst : int; x : int; y : int }
  | Shl_r of { dst : int; x : int; y : int }
  | Shl_i of { dst : int; x : int; y : int }
  | Shr_r of { dst : int; x : int; y : int }
  | Shr_i of { dst : int; x : int; y : int }
  | Asr_r of { dst : int; x : int; y : int }
  | Asr_i of { dst : int; x : int; y : int }
  | Mullo_r of { dst : int; x : int; y : int }
  | Mullo_i of { dst : int; x : int; y : int }
  | Mov of { dst : int; src : int } (* [Alu1 `Mov] and [Move] *)
  | Not of { dst : int; src : int }
  | Neg of { dst : int; src : int }
  | Imm of { dst : int; value : int; cost : int }
  | Nop (* also [Csr_write], which has no effect *)
  | Bad_reg of int (* an operation above with this bad operand code *)
  (* an operand may be out of range *)
  | Read of { space : Insn.space; dsts : int array; addr : addr; port : port }
  | Write of { space : Insn.space; srcs : int array; addr : addr; port : port }
  | Hash of { dst : int; src : int; latency : int }
  | Bit_test_set of { dst : int; src : int; addr : addr; port : port }
  | Spill of { slot : int; src : int; port : port }
  | Reload of { slot : int; dst : int; port : port }
  | Csr_read of { dst : int; csr : csr }
  | Rfifo_read of { dsts : int array; addr : addr; port : port }
  | Tfifo_write of { srcs : int array; addr : addr; port : port }
  | Clone
  | Ctx_arb

(* Issue cycles of an instruction that cannot fault, yield or read the
   clock -- the register operations and [Nop]; 0 for every other. *)
let straight_cost = function
  | Add_r _ | Add_i _ | Sub_r _ | Sub_i _ | And_r _ | And_i _ | Or_r _
  | Or_i _ | Xor_r _ | Xor_i _ | Shl_r _ | Shl_i _ | Shr_r _ | Shr_i _
  | Asr_r _ | Asr_i _ | Mullo_r _ | Mullo_i _ | Mov _ | Not _ | Neg _ | Nop
    ->
      1
  | Imm { cost; _ } -> cost
  | Bad_reg _ | Read _ | Write _ | Hash _ | Bit_test_set _ | Spill _
  | Reload _ | Csr_read _ | Rfifo_read _ | Tfifo_write _ | Clone | Ctx_arb ->
      0

(* A block index, or -1 for a label the program lacks. *)
type target = { index : int; label : string }

type term =
  | Jump of target
  | Branch of {
      cond : Insn.cond;
      x : int;
      y : operand;
      ifso : target;
      ifnot : target;
    }
  | Halt

(* [run_end.(pc)] is where the straight run starting at [pc] ends (= pc
   when the instruction at [pc] is not straight), and [run_cost.(pc)]
   the issue cycles of that run.  Runs end at the block's last
   instruction, before its terminator. *)
type block = {
  ops : op array;
  run_end : int array;
  run_cost : int array;
  term : term;
  source : Reg.t Flowgraph.block; (* for trace output *)
  mutable entries : int; (* times a context entered the block *)
}

(* Straight runs of [ops]; none under [trace], which prints every
   instruction as it issues. *)
let straight_runs ~trace ops =
  let n = Array.length ops in
  let run_end = Array.init n Fun.id and run_cost = Array.make n 0 in
  if not trace then
    for pc = n - 1 downto 0 do
      let c = straight_cost ops.(pc) in
      if c > 0 then
        if pc + 1 < n then begin
          run_end.(pc) <- run_end.(pc + 1);
          run_cost.(pc) <- c + run_cost.(pc + 1)
        end
        else begin
          run_end.(pc) <- n;
          run_cost.(pc) <- c
        end
    done;
  (run_end, run_cost)

let alu_r op ~dst ~x ~y =
  match op with
  | Insn.Add -> Add_r { dst; x; y }
  | Insn.Sub -> Sub_r { dst; x; y }
  | Insn.And -> And_r { dst; x; y }
  | Insn.Or -> Or_r { dst; x; y }
  | Insn.Xor -> Xor_r { dst; x; y }
  | Insn.Shl -> Shl_r { dst; x; y }
  | Insn.Shr -> Shr_r { dst; x; y }
  | Insn.Asr -> Asr_r { dst; x; y }
  | Insn.Mullo -> Mullo_r { dst; x; y }

let alu_i op ~dst ~x ~y =
  match op with
  | Insn.Add -> Add_i { dst; x; y }
  | Insn.Sub -> Sub_i { dst; x; y }
  | Insn.And -> And_i { dst; x; y }
  | Insn.Or -> Or_i { dst; x; y }
  | Insn.Xor -> Xor_i { dst; x; y }
  | Insn.Shl -> Shl_i { dst; x; y }
  | Insn.Shr -> Shr_i { dst; x; y }
  | Insn.Asr -> Asr_i { dst; x; y }
  | Insn.Mullo -> Mullo_i { dst; x; y }

let decode ~(config : Memory.config) ~shared ~bus ~trace program =
  (* an empty program is an ICE *)
  ignore (Flowgraph.entry program);
  let blocks = Array.of_list (Flowgraph.blocks program) in
  let index = Hashtbl.create (Array.length blocks) in
  Array.iteri (fun i b -> Hashtbl.replace index b.Flowgraph.label i) blocks;
  let target label =
    { index = Option.value ~default:(-1) (Hashtbl.find_opt index label); label }
  in
  let port space =
    {
      (* SDRAM is the context's own image, created with [config] *)
      latency =
        (match space with
        | Insn.Sdram -> config.Memory.sdram_latency
        | _ -> Memory.latency shared space);
      chan = Option.map (fun b -> Memory.bus_channel b space) bus;
    }
  in
  let fifo =
    {
      latency = shared.Memory.config.Memory.fifo_latency;
      chan = Option.map (fun b -> b.Memory.fifo_chan) bus;
    }
  in
  let r = reg_index in
  let regs = Array.map reg_index in
  let opnd = function
    | Insn.Reg x -> Reg (r x)
    | Insn.Lit i -> Lit (i land word_mask)
  in
  let addr (a : Reg.t Insn.addr) = { base = opnd a.base; disp = a.disp } in
  (* [op], unless one of its operand [codes], listed in the order [op]
     reads them, is bad *)
  let checked codes op =
    match List.find_opt (fun c -> c < 0) codes with
    | Some code -> Bad_reg code
    | None -> op
  in
  let op : Reg.t Insn.t -> op = function
    | Insn.Alu { dst; op; x; y } -> (
        let dst = r dst and x = r x in
        match opnd y with
        | Reg y -> checked [ y; x; dst ] (alu_r op ~dst ~x ~y)
        | Lit y -> checked [ x; dst ] (alu_i op ~dst ~x ~y))
    | Insn.Alu1 { dst; op = `Mov; src } | Insn.Move { dst; src } ->
        let dst = r dst and src = r src in
        checked [ src; dst ] (Mov { dst; src })
    | Insn.Alu1 { dst; op = `Not; src } ->
        let dst = r dst and src = r src in
        checked [ src; dst ] (Not { dst; src })
    | Insn.Alu1 { dst; op = `Neg; src } ->
        let dst = r dst and src = r src in
        checked [ src; dst ] (Neg { dst; src })
    | Insn.Imm { dst; value } ->
        (* a full 32-bit constant takes two instructions on the IXP1200 *)
        let value = value land word_mask in
        let cost = if value < 0x10000 then 1 else 2 in
        let dst = r dst in
        checked [ dst ] (Imm { dst; value; cost })
    | Insn.Read { space; dsts; addr = a } ->
        Read { space; dsts = regs dsts; addr = addr a; port = port space }
    | Insn.Write { space; srcs; addr = a } ->
        Write { space; srcs = regs srcs; addr = addr a; port = port space }
    | Insn.Hash { dst; src } ->
        let latency = shared.Memory.config.Memory.hash_latency in
        Hash { dst = r dst; src = r src; latency }
    | Insn.Bit_test_set { dst; src; addr = a } ->
        Bit_test_set
          { dst = r dst; src = r src; addr = addr a; port = port Insn.Sram }
    | Insn.Clone _ -> Clone
    | Insn.Spill { slot; src } ->
        Spill { slot; src = r src; port = port Insn.Scratch }
    | Insn.Reload { slot; dst } ->
        Reload { slot; dst = r dst; port = port Insn.Scratch }
    | Insn.Csr_read { dst; csr } ->
        let csr =
          match csr with
          | "ctx" -> Ctx
          | "engine" -> Engine
          | "cycle" -> Cycle
          | _ -> Zero
        in
        Csr_read { dst = r dst; csr }
    | Insn.Rfifo_read { dsts; addr = a } ->
        Rfifo_read { dsts = regs dsts; addr = addr a; port = fifo }
    | Insn.Tfifo_write { srcs; addr = a } ->
        Tfifo_write { srcs = regs srcs; addr = addr a; port = fifo }
    | Insn.Ctx_arb -> Ctx_arb
    | Insn.Csr_write _ | Insn.Nop -> Nop
  in
  let term = function
    | Insn.Jump label -> Jump (target label)
    | Insn.Branch { cond; x; y; ifso; ifnot } ->
        Branch
          {
            cond;
            x = r x;
            y = opnd y;
            ifso = target ifso;
            ifnot = target ifnot;
          }
    | Insn.Halt -> Halt
  in
  Array.map
    (fun (b : Reg.t Flowgraph.block) ->
      let ops = Array.map op b.insns in
      let run_end, run_cost = straight_runs ~trace ops in
      { ops; run_end; run_cost; term = term b.term; source = b; entries = 0 })
    blocks

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

type thread_state = {
  id : int;
  regs : int array; (* flat register file, see [reg_index] *)
  mutable rfifo : int array; (* current inbound packet, as words *)
  mutable rfifo_words : int; (* valid prefix of [rfifo]; pooled buffers
                                are longer than the packet they hold *)
  mutable tfifo : int array; (* outbound words: the first [tfifo_len] *)
  mutable tfifo_len : int;
  xfer : int array; (* scratch buffer for memory transfers (no alloc) *)
  (* private SDRAM packet buffer image *)
  sdram : Memory.t;
  mutable block : int; (* index into the decoded program *)
  mutable pc : int;
  mutable ready_at : int; (* cycle at which the thread may run again *)
  mutable halted : bool;
  mutable packets_done : int;
  mutable insns_executed : int;
}

type t = {
  code : block array; (* decoded program; block 0 is the entry *)
  shared : Memory.t; (* SRAM + scratch live here *)
  engine_id : int; (* position on the chip; 0 when standalone *)
  threads : thread_state array;
  mutable clock : int;
  mutable busy : int; (* cycles spent issuing (vs stalled/idle) *)
  clock_mhz : float;
  trace : bool;
}

(* [bus] is the chip-level arbiter; without one, references see the
   unloaded latencies. *)
let create ?(threads = 1) ?(clock_mhz = 233.0) ?(config = Memory.default_config)
    ?(trace = false) ?shared ?bus ?(engine_id = 0) program =
  let shared =
    match shared with Some m -> m | None -> Memory.create ~config ()
  in
  let mk id =
    {
      id;
      regs = Array.make nregs 0;
      rfifo = [||];
      rfifo_words = 0;
      tfifo = Array.make 16 0;
      tfifo_len = 0;
      xfer = Array.make 8 0;
      sdram = Memory.create ~config ();
      block = 0;
      pc = 0;
      ready_at = 0;
      halted = false;
      packets_done = 0;
      insns_executed = 0;
    }
  in
  {
    code = decode ~config ~shared ~bus ~trace program;
    shared;
    engine_id;
    threads = Array.init threads mk;
    clock = 0;
    busy = 0;
    clock_mhz;
    trace;
  }

let shared_memory t = t.shared
let thread t i = t.threads.(i)

(* Send [th] back to the program's entry, ready to take a packet. *)
let restart th =
  th.block <- 0;
  th.pc <- 0;
  th.halted <- false

let to_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* The shifts on register values (always masked), each shared by a
   register and a literal form; the caller masks the result. *)
let shl x y = if y land 31 = 0 && y <> 0 then 0 else x lsl (y land 31)
let shr x y = if y >= 32 then 0 else (x land word_mask) lsr (y land 31)
let asr_ x y = to_signed x asr min 31 (y land 255)

let cond_eval cond x y =
  let sx = to_signed x and sy = to_signed y in
  match cond with
  | Insn.Eq -> x = y
  | Insn.Ne -> x <> y
  | Insn.Lt -> sx < sy
  | Insn.Le -> sx <= sy
  | Insn.Gt -> sx > sy
  | Insn.Ge -> sx >= sy
  | Insn.Ultl -> x < y
  | Insn.Uge -> x >= y

(* Execute one straight instruction: one match, then loads and stores
   into the register file.  Inlined into the run loop and into [exec]. *)
let[@inline] straight regs op =
  match op with
  | Add_r { dst; x; y } -> st regs dst (ld regs x + ld regs y)
  | Add_i { dst; x; y } -> st regs dst (ld regs x + y)
  | Sub_r { dst; x; y } -> st regs dst (ld regs x - ld regs y)
  | Sub_i { dst; x; y } -> st regs dst (ld regs x - y)
  | And_r { dst; x; y } -> st regs dst (ld regs x land ld regs y)
  | And_i { dst; x; y } -> st regs dst (ld regs x land y)
  | Or_r { dst; x; y } -> st regs dst (ld regs x lor ld regs y)
  | Or_i { dst; x; y } -> st regs dst (ld regs x lor y)
  | Xor_r { dst; x; y } -> st regs dst (ld regs x lxor ld regs y)
  | Xor_i { dst; x; y } -> st regs dst (ld regs x lxor y)
  | Shl_r { dst; x; y } -> st regs dst (shl (ld regs x) (ld regs y))
  | Shl_i { dst; x; y } -> st regs dst (shl (ld regs x) y)
  | Shr_r { dst; x; y } -> st regs dst (shr (ld regs x) (ld regs y))
  | Shr_i { dst; x; y } -> st regs dst (shr (ld regs x) y)
  | Asr_r { dst; x; y } -> st regs dst (asr_ (ld regs x) (ld regs y))
  | Asr_i { dst; x; y } -> st regs dst (asr_ (ld regs x) y)
  | Mullo_r { dst; x; y } -> st regs dst (ld regs x * ld regs y)
  | Mullo_i { dst; x; y } -> st regs dst (ld regs x * y)
  | Mov { dst; src } -> st regs dst (ld regs src)
  | Not { dst; src } -> st regs dst (lnot (ld regs src))
  | Neg { dst; src } -> st regs dst (-ld regs src)
  | Imm { dst; value; _ } -> st regs dst value
  | Nop -> ()
  | Bad_reg _ | Read _ | Write _ | Hash _ | Bit_test_set _ | Spill _
  | Reload _ | Csr_read _ | Rfifo_read _ | Tfifo_write _ | Clone | Ctx_arb ->
      assert false

(* Run the straight instructions [ops.(first)] .. [ops.(stop - 1)]. *)
let run_straight regs ops first stop =
  for i = first to stop - 1 do
    straight regs (Array.unsafe_get ops i)
  done

(* Which memory image does a space access go to?  SRAM and scratch are
   shared; SDRAM is the thread's private packet buffer. *)
let memory_for t th = function
  | Insn.Sram | Insn.Scratch -> t.shared
  | Insn.Sdram -> th.sdram

(* Effective latency of a memory reference: the unloaded latency plus
   any queueing stall dealt by the chip-level bus arbiter.  SDRAM data
   images are per-thread (correctness isolation) but SDRAM *bandwidth*
   is chip-shared, so SDRAM references arbitrate too. *)
let request t { latency; chan } =
  match chan with
  | None -> latency
  | Some c -> Memory.channel_request c ~now:t.clock ~latency

let push_tfifo th v =
  if th.tfifo_len = Array.length th.tfifo then begin
    let grown = Array.make (2 * th.tfifo_len) 0 in
    Array.blit th.tfifo 0 grown 0 th.tfifo_len;
    th.tfifo <- grown
  end;
  Array.unsafe_set th.tfifo th.tfifo_len v;
  th.tfifo_len <- th.tfifo_len + 1

(* Hook invoked when a thread halts: supply the next inbound packet, or
   none to retire the thread. *)
type packet_source = thread:int -> packets_done:int -> int array option

(* Execute one decoded instruction for [th]; returns the latency in
   cycles.  The order in which an instruction reads its operands decides
   which of several faults it raises, and is fixed: [y] before [x]; a
   [Write]'s sources before its address; a [Read]'s address, then the
   transfer, then its destinations. *)
let exec t th op =
  match op with
  | Bad_reg code -> bad_reg code
  | Read { space; dsts; addr; port } ->
      let count = Array.length dsts in
      Memory.read_into (memory_for t th space) space (addr_value th.regs addr)
        ~count ~dst:th.xfer;
      for k = 0 to count - 1 do
        set th.regs dsts.(k) th.xfer.(k)
      done;
      request t port
  | Write { space; srcs; addr; port } ->
      let count = Array.length srcs in
      for k = 0 to count - 1 do
        th.xfer.(k) <- get th.regs srcs.(k)
      done;
      Memory.write_from (memory_for t th space) space (addr_value th.regs addr)
        ~count ~src:th.xfer;
      request t port
  | Hash { dst; src; latency } ->
      set th.regs dst (Memory.hash (get th.regs src));
      latency
  | Bit_test_set { dst; src; addr; port } ->
      let v = get th.regs src in
      let a = addr_value th.regs addr in
      set th.regs dst (Memory.bit_test_set t.shared a v);
      request t port
  | Spill { slot; src; port } ->
      Memory.spill_store t.shared slot (get th.regs src);
      request t port
  | Reload { slot; dst; port } ->
      set th.regs dst (Memory.spill_load t.shared slot);
      request t port
  | Csr_read { dst; csr } ->
      set th.regs dst
        (match csr with
        | Ctx -> th.id
        | Engine -> t.engine_id
        | Cycle -> t.clock land word_mask
        | Zero -> 0);
      1
  | Rfifo_read { dsts; addr; port } ->
      let base = addr_value th.regs addr / 4 in
      for k = 0 to Array.length dsts - 1 do
        let idx = base + k in
        let v = if idx < th.rfifo_words then th.rfifo.(idx) else 0 in
        set th.regs dsts.(k) v
      done;
      request t port
  | Tfifo_write { srcs; addr; port } ->
      ignore (addr_value th.regs addr);
      for k = 0 to Array.length srcs - 1 do
        push_tfifo th (get th.regs srcs.(k))
      done;
      request t port
  | Clone -> raise (Stuck "clone pseudo-instruction reached simulator")
  | Ctx_arb -> 1
  | Add_r _ | Add_i _ | Sub_r _ | Sub_i _ | And_r _ | And_i _ | Or_r _
  | Or_i _ | Xor_r _ | Xor_i _ | Shl_r _ | Shl_i _ | Shr_r _ | Shr_i _
  | Asr_r _ | Asr_i _ | Mullo_r _ | Mullo_i _ | Mov _ | Not _ | Neg _ | Imm _
  | Nop ->
      straight th.regs op;
      straight_cost op

(* A jump to a label the program lacks fails when it is taken. *)
let goto th { index; label } =
  if index < 0 then Diag.ice "Flowgraph: unknown block %s" label;
  th.block <- index;
  th.pc <- 0

(* Advance [th] through instructions until it yields (memory reference or
   ctx_arb), halts, or runs out of fuel.  A straight run executes at
   once and updates pc, counts and clock once; when the fuel left cannot
   cover it, or under [trace], instructions step one at a time, so a
   context stops, faults and prints exactly where stepping would. *)
let step_thread t th ~fuel =
  let yielded = ref false in
  let fuel = ref fuel in
  while (not !yielded) && not th.halted do
    if !fuel <= 0 then
      raise (Stuck (Printf.sprintf "thread %d: fuel exhausted" th.id));
    let b = t.code.(th.block) in
    let pc = th.pc in
    if pc = 0 then b.entries <- b.entries + 1;
    let n = Array.length b.ops in
    let run = if pc < n then Array.unsafe_get b.run_end pc - pc else 0 in
    if run > 0 && run <= !fuel then begin
      run_straight th.regs b.ops pc (pc + run);
      let cost = Array.unsafe_get b.run_cost pc in
      th.pc <- pc + run;
      th.insns_executed <- th.insns_executed + run;
      fuel := !fuel - run;
      t.clock <- t.clock + cost;
      t.busy <- t.busy + cost
    end
    else begin
      decr fuel;
      if pc < n then begin
        let op = b.ops.(pc) in
        th.pc <- pc + 1;
        th.insns_executed <- th.insns_executed + 1;
        if t.trace then
          Fmt.epr "[%d] t%d %s.%d: %a@." t.clock th.id b.source.Flowgraph.label
            th.pc (Insn.pp Reg.pp) b.source.Flowgraph.insns.(pc);
        let lat = exec t th op in
        (* issue cost: memory ops occupy the pipe briefly; the remaining
           latency is hidden by switching threads *)
        let issue = if lat < 2 then lat else 2 in
        t.clock <- t.clock + issue;
        t.busy <- t.busy + issue;
        if lat > 2 then begin
          th.ready_at <- t.clock + lat - 2;
          yielded := true
        end
        else
          match op with
          | Ctx_arb ->
              th.ready_at <- t.clock;
              yielded := true
          | _ -> ()
      end
      else
        match b.term with
        | Jump target ->
            goto th target;
            t.clock <- t.clock + 1;
            t.busy <- t.busy + 1
        | Branch { cond; x; y; ifso; ifnot } ->
            let yv = operand th.regs y in
            if cond_eval cond (get th.regs x) yv then begin
              goto th ifso;
              t.clock <- t.clock + 3;
              t.busy <- t.busy + 3
            end
            else begin
              goto th ifnot;
              t.clock <- t.clock + 1;
              t.busy <- t.busy + 1
            end
        | Halt ->
            th.halted <- true;
            th.packets_done <- th.packets_done + 1
    end
  done

(* Run a single thread to completion (no packet refill); the common mode
   for semantics tests. *)
let run_single ?(fuel = 10_000_000) t =
  let th = t.threads.(0) in
  while not th.halted do
    (* no other context to hide the latency: absorb the stall *)
    if th.ready_at > t.clock then t.clock <- th.ready_at;
    step_thread t th ~fuel
  done;
  t.clock

(* Multi-threaded throughput run: each thread processes packets supplied
   by [source] until the source dries up. *)
let run_packets ?(fuel = 100_000_000) t (source : packet_source) =
  let restart th =
    match source ~thread:th.id ~packets_done:th.packets_done with
    | None -> false
    | Some packet ->
        th.rfifo <- packet;
        th.rfifo_words <- Array.length packet;
        restart th;
        true
  in
  let alive = Array.map (fun th -> restart th) t.threads in
  let any_alive () = Array.exists Fun.id alive in
  let budget = ref fuel in
  while any_alive () && !budget > 0 do
    decr budget;
    (* pick the ready thread with the earliest ready_at *)
    let best = ref (-1) in
    Array.iteri
      (fun i th ->
        if alive.(i) && not th.halted then
          if !best < 0 || th.ready_at < t.threads.(!best).ready_at then best := i)
      t.threads;
    match !best with
    | -1 ->
        (* all alive threads halted: refill *)
        Array.iteri
          (fun i th -> if alive.(i) && th.halted then alive.(i) <- restart th)
          t.threads
    | i ->
        let th = t.threads.(i) in
        if th.ready_at > t.clock then t.clock <- th.ready_at;
        step_thread t th ~fuel:1_000_000;
        if th.halted then alive.(i) <- restart th
  done;
  t.clock

let cycles t = t.clock
let busy_cycles t = t.busy
let packets_done t =
  Array.fold_left (fun acc th -> acc + th.packets_done) 0 t.threads

let insns_executed t =
  Array.fold_left (fun acc th -> acc + th.insns_executed) 0 t.threads

(* Times the engine's contexts entered each block, by label, in program
   order. *)
let block_entries t =
  Array.map (fun b -> (b.source.Flowgraph.label, b.entries)) t.code

(* End (exclusive) of the straight run that starts at instruction [pc]
   of block [block] (program order); [pc] itself when there is none. *)
let straight_run t ~block ~pc = t.code.(block).run_end.(pc)

(* Megabits per second for [bytes] of payload processed in [cycles]. *)
let mbps t ~bytes =
  let seconds = float_of_int t.clock /. (t.clock_mhz *. 1e6) in
  if seconds <= 0. then 0.
  else float_of_int (bytes * 8) /. seconds /. 1e6

let read_tfifo t ~thread =
  let th = t.threads.(thread) in
  Array.sub th.tfifo 0 th.tfifo_len

let set_rfifo t ~thread packet =
  let th = t.threads.(thread) in
  th.rfifo <- packet;
  th.rfifo_words <- Array.length packet

(* Pooled variant: [buf] outlives the packet and only its first [words]
   entries belong to it.  No allocation. *)
let set_rfifo_view t ~thread buf ~words =
  let th = t.threads.(thread) in
  th.rfifo <- buf;
  th.rfifo_words <- words

let sdram_of_thread t ~thread = t.threads.(thread).sdram
