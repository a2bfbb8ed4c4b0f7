(* Shared benchmark plumbing: compile each paper workload once, cache the
   result, and provide simulator harnesses for the throughput runs. *)

(* Run artifacts (cache stores, sockets, smoke reports) land in an
   ignored directory instead of littering the repo root. *)
let artifact name =
  let dir = "_artifacts" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat dir name

type workload = {
  name : string;
  source : string;
  (* paper Figure 5 row: lines, layouts, pack, unpack, raise, handle *)
  paper_fig5 : (int * int * string * string * string * string) option;
  (* paper Figure 6 row: DefL, DefLD, total, UseS, UseSD, total *)
  paper_fig6 : (int * int * int * int * int * int) option;
  (* paper Figure 7 row: root s, integer s, vars k, rows k, obj k, moves, spills *)
  paper_fig7 : (float * float * int * int * int * int * int) option;
  init_sim : Ixp.Simulator.t -> payload_len:int -> unit;
  init_interp : Cps.Interp.state -> payload_len:int -> unit;
  (* chip-level harness: payload sizes the workload accepts (block
     size), table setup into the chip's shared memory, and the
     per-packet header+payload image for a context's SDRAM buffer *)
  size_align : int;
  init_chip_tables : Ixp.Memory.t -> unit;
  write_packet : (int -> int -> unit) -> payload_len:int -> unit;
}

let poke_scratch mem w v = Ixp.Memory.poke mem Ixp.Insn.Scratch w v

let aes =
  {
    name = "AES";
    source = Workloads.Aes.source;
    paper_fig5 = Some (541, 588, "7/8", "5", "3", "1");
    paper_fig6 = Some (68, 16, 84, 4, 10, 14);
    paper_fig7 = Some (30.4, 35.9, 108, 102, 37, 25, 0);
    init_sim =
      (fun sim ~payload_len ->
        let mem = Ixp.Simulator.shared_memory sim in
        Workloads.Aes.init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
        ignore
          (Workloads.Aes.init_payload
             (fun w v -> Ixp.Memory.poke sdram Ixp.Insn.Sdram w v)
             ~payload_len));
    init_interp =
      (fun st ~payload_len ->
        let mem = Cps.Interp.memory st in
        Workloads.Aes.init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        ignore
          (Workloads.Aes.init_payload
             (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sdram w v)
             ~payload_len));
    size_align = 16;
    init_chip_tables =
      (fun mem ->
        Workloads.Aes.init_tables (fun w v ->
            Ixp.Memory.poke mem Ixp.Insn.Sram w v));
    write_packet =
      (fun load ~payload_len ->
        ignore (Workloads.Aes.init_payload load ~payload_len));
  }

let kasumi =
  {
    name = "Kasumi";
    source = Workloads.Kasumi.source;
    paper_fig5 = Some (587, 538, "7/7", "4", "2", "2");
    paper_fig6 = Some (44, 14, 58, 4, 14, 18);
    paper_fig7 = Some (48.2, 59.2, 138, 131, 50, 20, 0);
    init_sim =
      (fun sim ~payload_len ->
        let mem = Ixp.Simulator.shared_memory sim in
        Workloads.Kasumi.init_tables
          ~load_sram:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v)
          ~load_scratch:(fun w v -> poke_scratch mem w v);
        let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
        ignore
          (Workloads.Kasumi.init_payload
             (fun w v -> Ixp.Memory.poke sdram Ixp.Insn.Sdram w v)
             ~payload_len));
    init_interp =
      (fun st ~payload_len ->
        let mem = Cps.Interp.memory st in
        Workloads.Kasumi.init_tables
          ~load_sram:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v)
          ~load_scratch:(fun w v -> poke_scratch mem w v);
        ignore
          (Workloads.Kasumi.init_payload
             (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sdram w v)
             ~payload_len));
    size_align = 8;
    init_chip_tables =
      (fun mem ->
        Workloads.Kasumi.init_tables
          ~load_sram:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v)
          ~load_scratch:(fun w v -> poke_scratch mem w v));
    write_packet =
      (fun load ~payload_len ->
        ignore (Workloads.Kasumi.init_payload load ~payload_len));
  }

let nat =
  {
    name = "NAT";
    source = Workloads.Nat.source;
    paper_fig5 = Some (839, 740, "-", "-", "-", "-");
    paper_fig6 = Some (43, 22, 65, 8, 60, 64);
    paper_fig7 = Some (69.2, 155.6, 208, 203, 72, 60, 0);
    init_sim =
      (fun sim ~payload_len ->
        let mem = Ixp.Simulator.shared_memory sim in
        Workloads.Nat.init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
        ignore
          (Workloads.Nat.init_payload
             (fun w v -> Ixp.Memory.poke sdram Ixp.Insn.Sdram w v)
             ~payload_len));
    init_interp =
      (fun st ~payload_len ->
        let mem = Cps.Interp.memory st in
        Workloads.Nat.init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        ignore
          (Workloads.Nat.init_payload
             (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sdram w v)
             ~payload_len));
    size_align = 4;
    init_chip_tables =
      (fun mem ->
        Workloads.Nat.init_tables (fun w v ->
            Ixp.Memory.poke mem Ixp.Insn.Sram w v));
    write_packet =
      (fun load ~payload_len ->
        ignore (Workloads.Nat.init_payload load ~payload_len));
  }

(* The dataplane portfolio workloads (LPM, firewall, csum, QoS) all share
   the NAT-shaped init interface: one SRAM table loader and one SDRAM
   packet writer.  No paper figures — they are ours, not the paper's. *)
let dataplane name source ~size_align ~init_tables ~init_payload =
  {
    name;
    source;
    paper_fig5 = None;
    paper_fig6 = None;
    paper_fig7 = None;
    init_sim =
      (fun sim ~payload_len ->
        let mem = Ixp.Simulator.shared_memory sim in
        init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
        ignore
          (init_payload
             (fun w v -> Ixp.Memory.poke sdram Ixp.Insn.Sdram w v)
             ~payload_len));
    init_interp =
      (fun st ~payload_len ->
        let mem = Cps.Interp.memory st in
        init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v);
        ignore
          (init_payload
             (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sdram w v)
             ~payload_len));
    size_align;
    init_chip_tables =
      (fun mem ->
        init_tables (fun w v -> Ixp.Memory.poke mem Ixp.Insn.Sram w v));
    write_packet =
      (fun load ~payload_len -> ignore (init_payload load ~payload_len));
  }

let lpm =
  dataplane "LPM" Workloads.Lpm.source ~size_align:4
    ~init_tables:Workloads.Lpm.init_tables
    ~init_payload:Workloads.Lpm.init_payload

let firewall =
  dataplane "Firewall" Workloads.Firewall.source ~size_align:4
    ~init_tables:Workloads.Firewall.init_tables
    ~init_payload:Workloads.Firewall.init_payload

let csum =
  dataplane "Csum" Workloads.Csum.source ~size_align:8
    ~init_tables:Workloads.Csum.init_tables
    ~init_payload:Workloads.Csum.init_payload

let qos =
  dataplane "QoS" Workloads.Qos.source ~size_align:4
    ~init_tables:Workloads.Qos.init_tables
    ~init_payload:Workloads.Qos.init_payload

let all = [ aes; kasumi; nat; lpm; firewall; csum; qos ]

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
