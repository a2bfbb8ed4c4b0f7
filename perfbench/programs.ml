(* The programs the benchmark compiles and simulates, what each needs on
   the chip, and its reference check.

   The reference check runs compiled code for one packet on one engine
   and compares the packet image it leaves in SDRAM with the image the
   workload's reference model computes (FIPS-derived AES, the Kasumi
   reference, and the dataplane transforms); a compile that passes it
   produced working microcode, not just a legal allocation.

   The chip harness follows bench/workbench.ml but is kept here, so
   that the benchmark changes only when this directory does. *)

type program = {
  name : string;
  source : string;
  size_align : int; (* payload sizes the program accepts *)
  load_tables : Ixp.Memory.t -> unit; (* into SRAM / scratch *)
  write_packet : (int -> int -> unit) -> payload_len:int -> unit;
  check_len : int; (* payload bytes of the reference check *)
  reference : (int -> int) -> bool;
      (* given an SDRAM reader, does the image match the reference? *)
  rate_mpps : float; (* fixed-rate leg: an offered load below capacity *)
  rate_packets : int;
}

let sram mem w v = Ixp.Memory.poke mem Ixp.Insn.Sram w v
let scratch mem w v = Ixp.Memory.poke mem Ixp.Insn.Scratch w v

(* [words] must appear at SDRAM word [base] onwards. *)
let words_at ~base words peek =
  let ok = ref true in
  Array.iteri (fun i w -> if peek (base + i) <> w then ok := false) words;
  !ok

let aes =
  {
    name = "AES";
    source = Workloads.Aes.source;
    size_align = 16;
    load_tables = (fun mem -> Workloads.Aes.init_tables (sram mem));
    write_packet =
      (fun load ~payload_len ->
        ignore (Workloads.Aes.init_payload load ~payload_len));
    check_len = 64;
    reference =
      (fun peek ->
        let ct, _ = Workloads.Aes.expected ~payload_len:64 in
        words_at ~base:(Workloads.Aes.ct_base / 4) ct peek);
    rate_mpps = 0.035;
    rate_packets = 1000;
  }

let kasumi =
  {
    name = "Kasumi";
    source = Workloads.Kasumi.source;
    size_align = 8;
    load_tables =
      (fun mem ->
        Workloads.Kasumi.init_tables ~load_sram:(sram mem)
          ~load_scratch:(scratch mem));
    write_packet =
      (fun load ~payload_len ->
        ignore (Workloads.Kasumi.init_payload load ~payload_len));
    check_len = 64;
    reference =
      (fun peek ->
        let ct, _ = Workloads.Kasumi.expected ~payload_len:64 in
        words_at ~base:(Workloads.Kasumi.pkt_base / 4) ct peek);
    rate_mpps = 0.05;
    rate_packets = 1000;
  }

(* The dataplane programs share one interface: an SRAM table loader, an
   SDRAM packet writer at [in_base], and a reference transform over the
   whole SDRAM image.  The check covers the packet header and payload. *)
let dataplane name source ~size_align ~init_tables ~init_payload ~expected
    ~in_base ~check_len ~rate_mpps =
  let image =
    lazy
      (fst
         (expected ~payload_len:check_len
            ~sdram_words:Ixp.Memory.default_config.Ixp.Memory.sdram_words))
  in
  {
    name;
    source;
    size_align;
    load_tables = (fun mem -> init_tables (sram mem));
    write_packet =
      (fun load ~payload_len -> ignore (init_payload load ~payload_len));
    check_len;
    reference =
      (fun peek ->
        let image = Lazy.force image in
        let lo = in_base / 4 and hi = ((in_base + 20 + check_len) / 4) + 1 in
        words_at ~base:lo (Array.sub image lo (hi - lo + 1)) peek);
    rate_mpps;
    rate_packets = 10_000;
  }

let lpm =
  Workloads.Lpm.(
    dataplane "LPM" source ~size_align:4 ~init_tables ~init_payload ~expected
      ~in_base ~check_len:16 ~rate_mpps:4.0)

let firewall =
  Workloads.Firewall.(
    dataplane "Firewall" source ~size_align:4 ~init_tables ~init_payload
      ~expected ~in_base ~check_len:16 ~rate_mpps:4.0)

let csum =
  Workloads.Csum.(
    dataplane "Csum" source ~size_align:8 ~init_tables ~init_payload ~expected
      ~in_base ~check_len:24 ~rate_mpps:1.5)

let qos =
  Workloads.Qos.(
    dataplane "QoS" source ~size_align:4 ~init_tables ~init_payload ~expected
      ~in_base ~check_len:16 ~rate_mpps:4.0)

(* The five programs whose ILP proves its optimum at the root. *)
let root_optimal = [ kasumi; lpm; firewall; csum; qos ]

(* Run [physical] for one packet on one engine and compare with the
   reference model. *)
let reference_ok p physical =
  let sim = Ixp.Simulator.create physical in
  p.load_tables (Ixp.Simulator.shared_memory sim);
  let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
  p.write_packet
    (fun w v -> Ixp.Memory.poke sdram Ixp.Insn.Sdram w v)
    ~payload_len:p.check_len;
  ignore (Ixp.Simulator.run_single sim);
  p.reference (fun w -> Ixp.Memory.peek sdram Ixp.Insn.Sdram w)

(* ---------------- chip and cluster legs ---------------- *)

let chip_config engines =
  { Ixp.Chip.default_config with Ixp.Chip.engines; threads = 4 }

let traffic p ~profile ~offered ~packets ~seed =
  Ixp.Pktgen.create
    {
      Ixp.Pktgen.default_config with
      Ixp.Pktgen.profile;
      offered_mpps = offered;
      seed;
      count = packets;
      size_align = p.size_align;
    }

(* The kernels read the packet from their context's SDRAM buffer, so
   delivery writes the program's own header and payload image there. *)
let deliver p : Ixp.Chip.deliver =
 fun chip ~engine ~thread ~seq:_ ~size ~words:_ ~payload:_ ->
  let sim = Ixp.Chip.engine chip engine in
  let sd = Ixp.Simulator.sdram_of_thread sim ~thread in
  p.write_packet
    (fun w v -> Ixp.Memory.poke sd Ixp.Insn.Sdram w v)
    ~payload_len:(max p.size_align (size / p.size_align * p.size_align))

(* 64-byte packets on 6 engines x 4 contexts. *)
let chip_leg p physical ~offered ~packets ~seed =
  let chip = Ixp.Chip.create ~config:(chip_config 6) physical in
  p.load_tables (Ixp.Chip.shared_memory chip);
  Ixp.Chip.run ~deliver:(deliver p) chip
    (traffic p ~profile:(Ixp.Pktgen.Fixed 64) ~offered ~packets ~seed)

(* Offered far above what six engines sustain: achieved Mpps is the
   capacity of the code. *)
let capacity_leg p physical ~seed =
  chip_leg p physical ~offered:16.0 ~packets:10_000 ~seed

let fixed_rate_leg p physical ~seed =
  chip_leg p physical ~offered:p.rate_mpps ~packets:p.rate_packets ~seed

(* 4 chips x 2 engines behind the flow-hash balancer at 0.6 Mpps. *)
let cluster_leg p physical ~profile ~seed =
  let config =
    {
      Cluster.default_config with
      Cluster.chips = 4;
      balancer = Cluster.Flow_hash;
      chip_config = chip_config 2;
      drop_budget = 0;
    }
  in
  let cl = Cluster.create ~config physical in
  Cluster.iter_chips
    (fun chip -> p.load_tables (Ixp.Chip.shared_memory chip))
    cl;
  Cluster.run ~deliver:(deliver p) cl
    (traffic p ~profile ~offered:0.6 ~packets:1500 ~seed)

let cluster_profiles =
  [
    Ixp.Pktgen.Syn_flood { size = 40 };
    Ixp.Pktgen.Elephants { flows = 512; heavy = 4; heavy_pct = 80; size = 576 };
  ]

(* Every generated packet is completed, dropped or still on a context. *)
let chip_accounted (r : Ixp.Chip.report) =
  r.Ixp.Chip.generated
  = r.Ixp.Chip.completed + Ixp.Chip.dropped r + r.Ixp.Chip.r_in_flight

let cluster_accounted (r : Cluster.report) =
  let chips f =
    Array.fold_left (fun acc cr -> acc + f cr) 0 r.Cluster.chip_reports
  in
  r.Cluster.generated
  = r.Cluster.completed + Cluster.dropped r
    + chips Ixp.Chip.dropped
    + chips (fun cr -> cr.Ixp.Chip.r_in_flight)

(* The event-engine kernel: packet-independent cost, so the leg times
   the timing wheel, packet pool and bus rather than a workload. *)
let event_kernel =
  {|
fun main () : word {
  let x = sram(64, 1);
  let c = scratch(256, 1);
  scratch(256) <- c + 1;
  x + 1
}
|}

let event_packets = 500_000

(* Drive [event_packets] through one chip; returns the report and the
   minor words allocated while driving. *)
let event_leg physical ~seed =
  let chip = Ixp.Chip.create ~config:(chip_config 6) physical in
  let gen =
    Ixp.Pktgen.create
      {
        Ixp.Pktgen.default_config with
        Ixp.Pktgen.profile = Ixp.Pktgen.Fixed 64;
        offered_mpps = 2.0;
        seed;
        count = event_packets;
        ports = 4;
      }
  in
  Ixp.Chip.prepare chip ~ports:4 ~expected:event_packets;
  let minor0 = Gc.minor_words () in
  Ixp.Chip.drive chip ~deliver:Ixp.Chip.default_deliver gen;
  let words = Gc.minor_words () -. minor0 in
  (Ixp.Chip.finish chip, words)
