(* Shared benchmark plumbing: compile each paper workload once, cache the
   result, and provide simulator, chip and cluster harnesses. *)

type workload = {
  name : string;
  source : string;
  (* paper Figure 5 row: lines, layouts, pack, unpack, raise, handle *)
  paper_fig5 : (int * int * string * string * string * string) option;
  (* paper Figure 6 row: DefL, DefLD, total, UseS, UseSD, total *)
  paper_fig6 : (int * int * int * int * int * int) option;
  (* paper Figure 7 row: root s, integer s, vars k, rows k, obj k, moves, spills *)
  paper_fig7 : (float * float * int * int * int * int * int) option;
  (* chip-level harness: payload sizes the workload accepts (block
     size), table setup into the chip's shared memory, and the
     per-packet header+payload image for a context's SDRAM buffer *)
  size_align : int;
  init_chip_tables : Ixp.Memory.t -> unit;
  write_packet : (int -> int -> unit) -> payload_len:int -> unit;
}

let workload ?fig5 ?fig6 ?fig7 name source ~size_align ~tables ~packet =
  {
    name;
    source;
    paper_fig5 = fig5;
    paper_fig6 = fig6;
    paper_fig7 = fig7;
    size_align;
    init_chip_tables = tables;
    write_packet = (fun load ~payload_len -> ignore (packet load ~payload_len));
  }

let poke_sram mem w v = Ixp.Memory.poke mem Ixp.Insn.Sram w v

(* Every workload but Kasumi loads its tables into SRAM alone. *)
let sram_tables init_tables mem = init_tables (poke_sram mem)

let aes =
  Workloads.Aes.(
    workload "AES" source ~size_align:16
      ~fig5:(541, 588, "7/8", "5", "3", "1")
      ~fig6:(68, 16, 84, 4, 10, 14)
      ~fig7:(30.4, 35.9, 108, 102, 37, 25, 0)
      ~tables:(sram_tables init_tables) ~packet:init_payload)

let kasumi =
  Workloads.Kasumi.(
    workload "Kasumi" source ~size_align:8
      ~fig5:(587, 538, "7/7", "4", "2", "2")
      ~fig6:(44, 14, 58, 4, 14, 18)
      ~fig7:(48.2, 59.2, 138, 131, 50, 20, 0)
      ~tables:(fun mem ->
        init_tables ~load_sram:(poke_sram mem)
          ~load_scratch:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Scratch w v))
      ~packet:init_payload)

let nat =
  Workloads.Nat.(
    workload "NAT" source ~size_align:4
      ~fig5:(839, 740, "-", "-", "-", "-")
      ~fig6:(43, 22, 65, 8, 60, 64)
      ~fig7:(69.2, 155.6, 208, 203, 72, 60, 0)
      ~tables:(sram_tables init_tables) ~packet:init_payload)

(* The dataplane portfolio workloads (LPM, firewall, csum, QoS) have no
   paper figures: they are ours, not the paper's. *)
let lpm =
  Workloads.Lpm.(
    workload "LPM" source ~size_align:4 ~tables:(sram_tables init_tables)
      ~packet:init_payload)

let firewall =
  Workloads.Firewall.(
    workload "Firewall" source ~size_align:4
      ~tables:(sram_tables init_tables) ~packet:init_payload)

let csum =
  Workloads.Csum.(
    workload "Csum" source ~size_align:8 ~tables:(sram_tables init_tables)
      ~packet:init_payload)

let qos =
  Workloads.Qos.(
    workload "QoS" source ~size_align:4 ~tables:(sram_tables init_tables)
      ~packet:init_payload)

let all = [ aes; kasumi; nat; lpm; firewall; csum; qos ]

(* One packet of [payload_len] bytes for context 0 of a simulated
   engine: the tables in its shared memory, the packet in its SDRAM. *)
let init_sim w sim ~payload_len =
  w.init_chip_tables (Ixp.Simulator.shared_memory sim);
  let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
  w.write_packet
    (fun a v -> Ixp.Memory.poke sdram Ixp.Insn.Sdram a v)
    ~payload_len

(* Compilation cache: each workload is compiled at most once per mode. *)
let cache : (string, Regalloc.Driver.compiled) Hashtbl.t = Hashtbl.create 8

let compile ?(allocator = Regalloc.Driver.Ilp_allocator)
    ?(objective = Regalloc.Ilp.Minimize_moves) ?(time_limit = 900.)
    ?(node_limit = Regalloc.Driver.default_options.Regalloc.Driver.node_limit)
    (w : workload) =
  let key =
    Printf.sprintf "%s/%s/%s/%.0f/%d" w.name
      (match allocator with
      | Regalloc.Driver.Ilp_allocator -> "ilp"
      | Regalloc.Driver.Baseline_allocator -> "base")
      (match objective with
      | Regalloc.Ilp.Minimize_moves -> "moves"
      | Regalloc.Ilp.Spill_feasibility -> "spill")
      time_limit node_limit
  in
  match Hashtbl.find_opt cache key with
  | Some c -> c
  | None ->
      let options =
        {
          Regalloc.Driver.default_options with
          allocator;
          objective;
          time_limit;
          node_limit;
        }
      in
      let c =
        Regalloc.Driver.compile ~options ~file:(w.name ^ ".nova") w.source
      in
      Hashtbl.replace cache key c;
      c

(* Packets are delivered by writing the workload's header+payload image
   into the receiving context's SDRAM buffer (the kernels read the
   packet from SDRAM, not the RFIFO). *)
let workload_deliver (w : workload) : Ixp.Chip.deliver =
 fun chip ~engine ~thread ~seq:_ ~size ~words:_ ~payload:_ ->
  let sim = Ixp.Chip.engine chip engine in
  let sd = Ixp.Simulator.sdram_of_thread sim ~thread in
  let payload_len = max w.size_align (size / w.size_align * w.size_align) in
  w.write_packet
    (fun word v -> Ixp.Memory.poke sd Ixp.Insn.Sdram word v)
    ~payload_len

(* Chip-level forwarding-rate run: instantiate the chip on the compiled
   program, load the workload's tables into the shared memory, and drive
   it from the packet generator. *)
let chip_run (w : workload) (c : Regalloc.Driver.compiled) ~engines ~threads
    ~offered ~packets ~seed ~profile =
  let config =
    { Ixp.Chip.default_config with Ixp.Chip.engines; threads }
  in
  let chip = Ixp.Chip.create ~config c.Regalloc.Driver.physical in
  w.init_chip_tables (Ixp.Chip.shared_memory chip);
  let gen =
    Ixp.Pktgen.create
      {
        Ixp.Pktgen.default_config with
        Ixp.Pktgen.profile;
        offered_mpps = offered;
        seed;
        count = packets;
        size_align = w.size_align;
      }
  in
  Ixp.Chip.run ~deliver:(workload_deliver w) chip gen

(* Cluster-level forwarding-rate run: [chips] chip models behind the
   load balancer, each loaded with the workload's tables. *)
let cluster_run (w : workload) (c : Regalloc.Driver.compiled) ~chips ~balancer
    ~engines ~threads ~offered ~packets ~seed ~profile ~drop_budget =
  let chip_config =
    { Ixp.Chip.default_config with Ixp.Chip.engines; threads }
  in
  let config =
    {
      Cluster.default_config with
      Cluster.chips;
      balancer;
      chip_config;
      drop_budget;
    }
  in
  let cl = Cluster.create ~config c.Regalloc.Driver.physical in
  Cluster.iter_chips
    (fun chip -> w.init_chip_tables (Ixp.Chip.shared_memory chip))
    cl;
  let gen =
    Ixp.Pktgen.create
      {
        Ixp.Pktgen.default_config with
        Ixp.Pktgen.profile;
        offered_mpps = offered;
        seed;
        count = packets;
        size_align = w.size_align;
      }
  in
  Cluster.run ~deliver:(workload_deliver w) cl gen

let front_cache : (string, Regalloc.Driver.front) Hashtbl.t = Hashtbl.create 8

let front (w : workload) =
  match Hashtbl.find_opt front_cache w.name with
  | Some f -> f
  | None ->
      let f = Regalloc.Driver.front_end ~file:(w.name ^ ".nova") w.source in
      Hashtbl.replace front_cache w.name f;
      f
