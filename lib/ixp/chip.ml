(* Chip-level IXP1200 model: N micro-engines behind a shared memory bus,
   fed by chip-level receive FIFO rings and drained through a transmit
   ring.

   The single-engine [Simulator] models one micro-engine faithfully;
   this module instantiates several of them over one shared SRAM/scratch
   image and one bus arbiter ([Memory.bus]), and adds the parts of the
   chip that the paper's evaluation (§12) exercised with real hardware:
   packets arriving at line rate on input ports, bounded receive rings
   that drop on overflow, and per-packet latency from wire arrival to
   completion.

   The run loop is event-driven and fully deterministic: each engine
   keeps its own clock (they run in parallel on real silicon); the chip
   always advances the globally earliest event, which is either the next
   generated packet arrival or the engine whose next runnable thread has
   the smallest timestamp.  Ties break toward arrivals, then lower
   engine/thread ids, so a given program, traffic profile and seed
   reproduce bit-identical cycle counts, drops and latency traces.

   The steady-state loop allocates zero minor words per packet.  Every
   structure it touches is preallocated at [prepare]: packets live in a
   pool of fixed payload buffers indexed by flat [int array]s, the
   receive rings are flat circular [int array]s of pool slots, engine
   wake-ups go through a min-scan scheduler ([Event_wheel]), latencies
   accumulate into a preallocated array plus an integer bucket table
   merged into [Support.Metrics] at [finish], and the transmit drain is
   10.10 fixed point rather than float.  [run] wraps the pieces for the
   single-chip case; [Cluster] drives [prepare]/[offer]/[step]/[finish]
   directly to interleave several chips. *)

open Support

type config = {
  engines : int;
  threads : int; (* hardware contexts per engine *)
  clock_mhz : float;
  mem_config : Memory.config;
  contention : bool; (* false = no bus arbiter: unloaded latencies *)
  rx_capacity : int; (* packets per input-port receive ring *)
  tx_capacity : int; (* words buffered in the transmit ring *)
  tx_drain_per_cycle : float; (* words the transmit port drains per cycle *)
  trace : bool;
}

let default_config =
  {
    engines = 6;
    threads = 4;
    clock_mhz = 233.0;
    mem_config = Memory.default_config;
    contention = true;
    rx_capacity = 32;
    tx_capacity = 1024;
    tx_drain_per_cycle = 1.0;
    trace = false;
  }

let no_event = Event_wheel.no_event

(* fixed-point scale for the transmit drain rate *)
let tx_fp = 1024

type t = {
  config : config;
  shared : Memory.t;
  bus : Memory.bus option;
  engines : Simulator.t array;
  wheel : Event_wheel.t; (* one event slot per engine *)
  next_ctx : int array; (* engine -> context its event runs, or -1 *)
  mutable idle : int; (* contexts waiting for a packet *)
  in_flight : int array; (* engine*threads+thread -> pool slot, or -1 *)
  tx_drain_num : int; (* drain rate, x [tx_fp] *)
  ctx_names : string array; (* trace labels, built once *)
  m_rx_dropped : Metrics.counter;
  (* packet pool: slot-indexed flat arrays; buffers are fixed at
     [Pktgen.max_payload_words] and hold the packet from arrival until
     completion (a context's receive FIFO aliases the pool buffer) *)
  mutable pool_buf : int array array;
  mutable pool_seq : int array;
  mutable pool_size : int array;
  mutable pool_words : int array;
  mutable pool_arrival : int array;
  mutable free_stack : int array; (* free slot ids; [free_top] live *)
  mutable free_top : int;
  (* receive rings: per-port circular ranges of [rx_ring] *)
  mutable nports : int;
  mutable rx_ring : int array; (* port*rx_capacity+k -> pool slot *)
  mutable rx_head : int array;
  mutable rx_len : int array;
  mutable rx_queued : int; (* total packets across all rings *)
  mutable rx_received : int array; (* packets that reached each port *)
  mutable rx_dropped : int array; (* ring overflow drops *)
  mutable rr_port : int; (* round-robin refill cursor *)
  (* accounting *)
  mutable latencies : int array; (* first [lat_len] valid, unsorted *)
  mutable lat_len : int;
  lat_buckets : int array; (* [Metrics.bucket_index]-mapped counts *)
  mutable completed : int;
  mutable bytes_completed : int;
  mutable generated : int;
  mutable tx_words : int; (* words offered to the transmit ring *)
  mutable tx_dropped_words : int; (* ring-overflow words *)
  mutable tx_drained : int; (* words already on the wire *)
  mutable horizon : int; (* timestamp of the latest event seen *)
}

let create ?(config = default_config) program =
  let shared = Memory.create ~config:config.mem_config () in
  let bus = if config.contention then Some (Memory.bus_create ()) else None in
  let engines =
    Array.init config.engines (fun e ->
        Simulator.create ~threads:config.threads ~clock_mhz:config.clock_mhz
          ~config:config.mem_config ~trace:config.trace ~shared ?bus
          ~engine_id:e program)
  in
  (* all contexts start idle, waiting for a packet *)
  Array.iter
    (fun sim ->
      Array.iter
        (fun th -> th.Simulator.halted <- true)
        sim.Simulator.threads)
    engines;
  {
    config;
    shared;
    bus;
    engines;
    wheel = Event_wheel.create config.engines;
    next_ctx = Array.make config.engines (-1);
    idle = config.engines * config.threads;
    in_flight = Array.make (config.engines * config.threads) (-1);
    tx_drain_num =
      int_of_float (config.tx_drain_per_cycle *. float_of_int tx_fp);
    ctx_names =
      Array.init config.threads (fun i -> "ctx" ^ string_of_int i);
    m_rx_dropped = Metrics.counter "chip.rx.dropped";
    pool_buf = [||];
    pool_seq = [||];
    pool_size = [||];
    pool_words = [||];
    pool_arrival = [||];
    free_stack = [||];
    free_top = 0;
    nports = 0;
    rx_ring = [||];
    rx_head = [||];
    rx_len = [||];
    rx_queued = 0;
    rx_received = [||];
    rx_dropped = [||];
    rr_port = 0;
    latencies = [||];
    lat_len = 0;
    lat_buckets = Array.make Metrics.bucket_count 0;
    completed = 0;
    bytes_completed = 0;
    generated = 0;
    tx_words = 0;
    tx_dropped_words = 0;
    tx_drained = 0;
    horizon = 0;
  }

let shared_memory t = t.shared
let engine t e = t.engines.(e)
let config t = t.config

(* Contexts whose halted flag is set. *)
let count_idle chip =
  let n = ref 0 in
  for e = 0 to Array.length chip.engines - 1 do
    let ths = chip.engines.(e).Simulator.threads in
    for i = 0 to Array.length ths - 1 do
      if ths.(i).Simulator.halted then n := !n + 1
    done
  done;
  !n

(* Size every pool and ring for [ports] input ports and preallocate the
   latency store for [expected] packets.  Must run before [offer]; after
   it, the steady-state loop performs no minor allocation (the latency
   array grows geometrically only if [expected] was an underestimate). *)
let prepare chip ~ports ~expected =
  let nports = max 1 ports in
  let cap = chip.config.rx_capacity in
  (* worst case live packets: every ring full + every context busy *)
  let nslots = (nports * cap) + Array.length chip.in_flight + 2 in
  chip.nports <- nports;
  chip.pool_buf <-
    Array.init nslots (fun _ -> Array.make Pktgen.max_payload_words 0);
  chip.pool_seq <- Array.make nslots 0;
  chip.pool_size <- Array.make nslots 0;
  chip.pool_words <- Array.make nslots 0;
  chip.pool_arrival <- Array.make nslots 0;
  chip.free_stack <- Array.init nslots (fun i -> nslots - 1 - i);
  chip.free_top <- nslots;
  chip.rx_ring <- Array.make (nports * cap) (-1);
  chip.rx_head <- Array.make nports 0;
  chip.rx_len <- Array.make nports 0;
  chip.rx_queued <- 0;
  chip.rx_received <- Array.make nports 0;
  chip.rx_dropped <- Array.make nports 0;
  chip.rr_port <- 0;
  chip.latencies <- Array.make (max 16 expected) 0;
  chip.lat_len <- 0;
  Array.fill chip.lat_buckets 0 Metrics.bucket_count 0;
  Array.fill chip.in_flight 0 (Array.length chip.in_flight) (-1);
  Event_wheel.clear chip.wheel;
  Array.fill chip.next_ctx 0 (Array.length chip.next_ctx) (-1);
  chip.idle <- count_idle chip;
  chip.completed <- 0;
  chip.bytes_completed <- 0;
  chip.generated <- 0;
  chip.tx_words <- 0;
  chip.tx_dropped_words <- 0;
  chip.tx_drained <- 0;
  chip.horizon <- 0

(* ------------------------------------------------------------------ *)
(* Packet pool                                                         *)
(* ------------------------------------------------------------------ *)

let acquire chip (v : Pktgen.view) =
  chip.free_top <- chip.free_top - 1;
  let slot = chip.free_stack.(chip.free_top) in
  chip.pool_seq.(slot) <- v.Pktgen.v_seq;
  chip.pool_size.(slot) <- v.Pktgen.v_size;
  chip.pool_words.(slot) <- v.Pktgen.v_words;
  chip.pool_arrival.(slot) <- v.Pktgen.v_arrival;
  (* an int loop: [Array.blit] into a major-heap buffer goes through
     the write barrier word by word *)
  let src = v.Pktgen.v_payload and dst = chip.pool_buf.(slot) in
  for k = 0 to v.Pktgen.v_words - 1 do
    dst.(k) <- src.(k)
  done;
  slot

let release chip slot =
  chip.free_stack.(chip.free_top) <- slot;
  chip.free_top <- chip.free_top + 1

(* ------------------------------------------------------------------ *)
(* Receive rings                                                       *)
(* ------------------------------------------------------------------ *)

let push_rx chip port slot =
  let cap = chip.config.rx_capacity in
  let base = port * cap in
  chip.rx_ring.(base + ((chip.rx_head.(port) + chip.rx_len.(port)) mod cap))
  <- slot;
  chip.rx_len.(port) <- chip.rx_len.(port) + 1;
  chip.rx_queued <- chip.rx_queued + 1

(* Pop the next queued packet across ports, round-robin, arrival order
   within a port; pool slot, or -1 when every ring is empty. *)
let pop_rx chip =
  if chip.rx_queued = 0 then -1
  else begin
    let cap = chip.config.rx_capacity in
    let slot = ref (-1) in
    while !slot < 0 do
      let p = chip.rr_port in
      chip.rr_port <- (chip.rr_port + 1) mod chip.nports;
      if chip.rx_len.(p) > 0 then begin
        slot := chip.rx_ring.((p * cap) + chip.rx_head.(p));
        chip.rx_head.(p) <- (chip.rx_head.(p) + 1) mod cap;
        chip.rx_len.(p) <- chip.rx_len.(p) - 1;
        chip.rx_queued <- chip.rx_queued - 1
      end
    done;
    !slot
  end

(* ------------------------------------------------------------------ *)
(* Engine scheduling                                                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic choice of an idle context: engine with the smallest
   local clock (it has been idle longest), then lowest ids.  Flat
   context index, or -1 when every context is busy. *)
let find_idle chip =
  let best = ref (-1) and best_clock = ref 0 in
  if chip.idle > 0 then
    for e = 0 to Array.length chip.engines - 1 do
      let sim = chip.engines.(e) in
      let ths = sim.Simulator.threads in
      for i = 0 to Array.length ths - 1 do
        if
          ths.(i).Simulator.halted
          && (!best < 0 || sim.Simulator.clock < !best_clock)
        then begin
          best := (e * chip.config.threads) + i;
          best_clock := sim.Simulator.clock
        end
      done
    done;
  !best

(* Earliest cycle at which engine [e] can execute its next instruction;
   (re)stamps its scheduler event, or cancels it when every context idles.
   The context it picks -- earliest ready_at, lowest id on ties -- is
   the one [step] runs: every change to a context's state on this engine
   is followed by a call here. *)
let resched_engine chip e =
  let sim = chip.engines.(e) in
  let ths = sim.Simulator.threads in
  let best = ref no_event and best_i = ref (-1) in
  for i = 0 to Array.length ths - 1 do
    let th = ths.(i) in
    if (not th.Simulator.halted) && th.Simulator.ready_at < !best then begin
      best := th.Simulator.ready_at;
      best_i := i
    end
  done;
  chip.next_ctx.(e) <- !best_i;
  if !best_i < 0 then Event_wheel.cancel chip.wheel e
  else
    let clock = sim.Simulator.clock in
    Event_wheel.schedule chip.wheel e
      ~cycle:(if clock > !best then clock else !best)

(* ------------------------------------------------------------------ *)
(* Packet hand-off                                                     *)
(* ------------------------------------------------------------------ *)

(* A packet is handed to a context by aliasing its pool buffer into the
   context's receive FIFO and copying the head into the context's
   private SDRAM packet buffer; workloads that expect a particular SDRAM
   image install their own [deliver].  [payload] is the pool buffer:
   only the first [words] entries belong to the packet, and the buffer
   is reused once the packet completes. *)
type deliver =
  t ->
  engine:int ->
  thread:int ->
  seq:int ->
  size:int ->
  words:int ->
  payload:int array ->
  unit

let default_deliver chip ~engine ~thread ~seq:_ ~size:_ ~words ~payload =
  let sim = chip.engines.(engine) in
  Simulator.set_rfifo_view sim ~thread payload ~words;
  Memory.load_prefix
    (Simulator.sdram_of_thread sim ~thread)
    Insn.Sdram ~word_offset:0 payload ~len:words

let start_packet chip ~(deliver : deliver) e i slot ~at =
  let sim = chip.engines.(e) in
  let th = sim.Simulator.threads.(i) in
  Simulator.restart th;
  chip.idle <- chip.idle - 1;
  let clock = sim.Simulator.clock in
  th.Simulator.ready_at <- (if at > clock then at else clock);
  th.Simulator.tfifo_len <- 0;
  deliver chip ~engine:e ~thread:i ~seq:chip.pool_seq.(slot)
    ~size:chip.pool_size.(slot) ~words:chip.pool_words.(slot)
    ~payload:chip.pool_buf.(slot);
  chip.in_flight.((e * chip.config.threads) + i) <- slot;
  resched_engine chip e

(* Move a completed context's transmit FIFO into the chip transmit ring,
   modelling a port that drains [tx_drain_per_cycle] words per cycle:
   words beyond the ring capacity at the completion instant are dropped
   and counted. *)
let flush_tfifo chip sim i ~now =
  let th = sim.Simulator.threads.(i) in
  let n = th.Simulator.tfifo_len in
  if n > 0 then begin
    let drained = now * chip.tx_drain_num / tx_fp in
    if drained > chip.tx_drained then
      chip.tx_drained <- min drained chip.tx_words;
    let level = chip.tx_words - chip.tx_drained in
    let accepted = max 0 (min n (chip.config.tx_capacity - level)) in
    chip.tx_words <- chip.tx_words + accepted;
    chip.tx_dropped_words <- chip.tx_dropped_words + (n - accepted);
    th.Simulator.tfifo_len <- 0
  end

let record_latency chip d =
  if chip.lat_len >= Array.length chip.latencies then begin
    (* [expected] was an underestimate: geometric growth, off the
       steady-state path when [prepare] was sized correctly *)
    let n = Array.make (max 32 (2 * Array.length chip.latencies)) 0 in
    Array.blit chip.latencies 0 n 0 chip.lat_len;
    chip.latencies <- n
  end;
  chip.latencies.(chip.lat_len) <- d;
  chip.lat_len <- chip.lat_len + 1;
  let b = Metrics.bucket_index d in
  chip.lat_buckets.(b) <- chip.lat_buckets.(b) + 1

let complete_packet chip ~deliver e i =
  let sim = chip.engines.(e) in
  let now = sim.Simulator.clock in
  if now > chip.horizon then chip.horizon <- now;
  let idx = (e * chip.config.threads) + i in
  let slot = chip.in_flight.(idx) in
  if slot >= 0 then begin
    chip.completed <- chip.completed + 1;
    chip.bytes_completed <- chip.bytes_completed + chip.pool_size.(slot);
    record_latency chip (now - chip.pool_arrival.(slot));
    chip.in_flight.(idx) <- -1;
    release chip slot
  end;
  flush_tfifo chip sim i ~now;
  let next = pop_rx chip in
  if next >= 0 then start_packet chip ~deliver e i next ~at:now

(* ------------------------------------------------------------------ *)
(* Event-driven run loop                                               *)
(* ------------------------------------------------------------------ *)

exception Chip_stuck of string

(* Room for one more packet on [port]?  When every context is busy and
   the port's ring is full, an offered packet would be dropped; the
   cluster load balancer checks this before steering. *)
let has_room chip ~port =
  chip.rx_len.(port) < chip.config.rx_capacity || chip.idle > 0

(* Hand the packet in [v] to the chip at its arrival time: an idle
   context if one exists (the receive rings are necessarily empty then),
   else the port's ring, else the drop counter.  Packets must be offered
   in arrival order, interleaved with [step] so that chip time never
   runs ahead of arrivals ([v.v_arrival <= next_time]). *)
let offer chip ~(deliver : deliver) ~port (v : Pktgen.view) =
  chip.generated <- chip.generated + 1;
  let t_arr = v.Pktgen.v_arrival in
  if t_arr > chip.horizon then chip.horizon <- t_arr;
  chip.rx_received.(port) <- chip.rx_received.(port) + 1;
  let idle = find_idle chip in
  if idle >= 0 then begin
    let slot = acquire chip v in
    start_packet chip ~deliver (idle / chip.config.threads)
      (idle mod chip.config.threads) slot ~at:t_arr
  end
  else if chip.rx_len.(port) < chip.config.rx_capacity then
    push_rx chip port (acquire chip v)
  else begin
    chip.rx_dropped.(port) <- chip.rx_dropped.(port) + 1;
    Metrics.incr chip.m_rx_dropped;
    if Trace.is_enabled () then
      Trace.instant "rx-drop" ~tid:(-1) ~args:[ ("port", Trace.Int port) ]
  end

(* Free entries in [port]'s receive ring. *)
let rx_room chip ~port = chip.config.rx_capacity - chip.rx_len.(port)

(* Contexts idle and waiting for a packet. *)
let idle_contexts chip = chip.idle

let rx_queued chip = chip.rx_queued

(* Cycle of the chip's next internal event ([no_event] when every
   context is idle). *)
let next_time chip = Event_wheel.next_time chip.wheel

(* Packets queued or in flight? *)
let active chip = chip.rx_queued > 0 || not (Event_wheel.is_empty chip.wheel)

(* Advance the chip by one event: run the engine with the earliest
   wake-up to its next yield.  Must only be called when [active]. *)
let step chip ~(deliver : deliver) =
  if Event_wheel.is_empty chip.wheel then
    raise (Chip_stuck "chip step: queued packets, no event");
  let e = Event_wheel.pop chip.wheel in
  let sim = chip.engines.(e) in
  (* the context [resched_engine] picked *)
  let ctx = chip.next_ctx.(e) in
  let th = sim.Simulator.threads.(ctx) in
  if th.Simulator.ready_at > sim.Simulator.clock then
    sim.Simulator.clock <- th.Simulator.ready_at;
  let step_start = sim.Simulator.clock in
  Simulator.step_thread sim th ~fuel:1_000_000;
  if sim.Simulator.clock > chip.horizon then
    chip.horizon <- sim.Simulator.clock;
  (* Context-occupancy span: one complete event per contiguous run of
     context [best_i] on engine [e] (ended by a context swap on a memory
     reference, or by the packet completing).  Timebase: one simulated
     cycle is exported as one microsecond, so Perfetto's ruler reads
     directly in cycles; tid = engine id. *)
  if Trace.is_enabled () then
    Trace.complete ~cat:"engine" ~tid:e
      ~ts_us:(float_of_int step_start)
      ~dur_us:(float_of_int (sim.Simulator.clock - step_start))
      chip.ctx_names.(ctx);
  if th.Simulator.halted then begin
    chip.idle <- chip.idle + 1;
    complete_packet chip ~deliver e ctx
  end;
  resched_engine chip e

(* Drain the whole generator through the chip.  [fuel] bounds run-loop
   iterations (events + arrivals), not instructions. *)
let drive ?(fuel = 200_000_000) chip ~(deliver : deliver) gen =
  let v = Pktgen.make_view () in
  let pending = ref (Pktgen.next_into gen v) in
  let budget = ref fuel in
  while !pending || active chip do
    decr budget;
    if !budget < 0 then raise (Chip_stuck "chip run: fuel exhausted");
    let t_step = next_time chip in
    let t_arr = if !pending then v.Pktgen.v_arrival else no_event in
    if t_arr = no_event && t_step = no_event then
      (* queued packets but no pending arrival and no runnable context:
         unreachable if the idle-implies-empty-rings invariant holds *)
      raise (Chip_stuck "chip run: queued packets with no runnable context");
    if t_arr <= t_step then begin
      offer chip ~deliver ~port:v.Pktgen.v_port v;
      pending := Pktgen.next_into gen v
    end
    else step chip ~deliver
  done

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  r_config : config;
  cycles : int; (* makespan: latest event on the chip *)
  generated : int;
  completed : int;
  bytes_completed : int;
  r_in_flight : int; (* packets still on a context at report time *)
  rx_received : int array; (* per port *)
  rx_dropped : int array;
  tx_words : int;
  tx_dropped_words : int;
  engine_busy : int array;
  engine_cycles : int array;
  latencies : int array; (* sorted ascending *)
  lat_buckets : int array; (* [Metrics.bucket_index]-mapped counts *)
  bus : (string * Memory.channel_stats) list;
}

let in_flight_count chip =
  let n = ref 0 in
  Array.iter (fun s -> if s >= 0 then incr n) chip.in_flight;
  !n

(* Move [v] down from slot [i] of the heap [a.(0 .. n-1)]. *)
let rec sift_down a i n v =
  let c = (2 * i) + 1 in
  if c >= n then a.(i) <- v
  else
    let c = if c + 1 < n && a.(c + 1) > a.(c) then c + 1 else c in
    if a.(c) > v then begin
      a.(i) <- a.(c);
      sift_down a c n v
    end
    else a.(i) <- v

(* In-place heap sort of an int array: [Array.sort Int.compare] on half
   a million latencies spends most of its time calling the comparison
   through a closure. *)
let sort_ints a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n a.(i)
  done;
  for last = n - 1 downto 1 do
    let top = a.(0) in
    sift_down a 0 last a.(last);
    a.(last) <- top
  done

(* Snapshot the chip's counters into a report and mirror them into the
   metrics registry (latency buckets merge into the "chip.latency"
   histogram, so `--metrics` shows p99/p999 without parsing the
   report). *)
let finish (chip : t) =
  let latencies = Array.sub chip.latencies 0 chip.lat_len in
  sort_ints latencies;
  (* Per-channel bus counters: mirrored into the metrics registry (and a
     trace counter series) so `--metrics` shows where memory time went
     without parsing the report. *)
  (match chip.bus with
  | None -> ()
  | Some b ->
      List.iter
        (fun (name, s) ->
          let g field v =
            Metrics.set
              (Metrics.gauge (Printf.sprintf "chip.bus.%s.%s" name field))
              (float_of_int v)
          in
          g "requests" s.Memory.chan_requests;
          g "busy" s.Memory.chan_busy;
          g "stall" s.Memory.chan_stall;
          if Trace.is_enabled () then
            Trace.counter ("bus." ^ name)
              [
                ("busy", float_of_int s.Memory.chan_busy);
                ("stall", float_of_int s.Memory.chan_stall);
              ])
        (Memory.bus_stats b));
  Metrics.merge_buckets (Metrics.histogram "chip.latency") chip.lat_buckets;
  Metrics.set (Metrics.gauge "chip.completed") (float_of_int chip.completed);
  {
    r_config = chip.config;
    cycles = chip.horizon;
    generated = chip.generated;
    completed = chip.completed;
    bytes_completed = chip.bytes_completed;
    r_in_flight = in_flight_count chip;
    rx_received = Array.copy chip.rx_received;
    rx_dropped = Array.copy chip.rx_dropped;
    tx_words = chip.tx_words;
    tx_dropped_words = chip.tx_dropped_words;
    engine_busy = Array.map Simulator.busy_cycles chip.engines;
    engine_cycles = Array.map Simulator.cycles chip.engines;
    latencies;
    lat_buckets = Array.copy chip.lat_buckets;
    bus = (match chip.bus with None -> [] | Some b -> Memory.bus_stats b);
  }

let run ?(deliver = default_deliver) ?fuel chip gen =
  prepare chip
    ~ports:gen.Pktgen.config.Pktgen.ports
    ~expected:gen.Pktgen.config.Pktgen.count;
  drive ?fuel chip ~deliver gen;
  finish chip

(* ------------------------------------------------------------------ *)
(* Report derivations                                                  *)
(* ------------------------------------------------------------------ *)

let seconds r cycles =
  float_of_int cycles /. (r.r_config.clock_mhz *. 1e6)

(* Achieved forwarding rate in million packets per second. *)
let achieved_mpps r =
  if r.cycles = 0 then 0.
  else float_of_int r.completed /. seconds r r.cycles /. 1e6

(* Achieved payload rate in Mbit/s. *)
let achieved_mbps r =
  if r.cycles = 0 then 0.
  else float_of_int (r.bytes_completed * 8) /. seconds r r.cycles /. 1e6

let dropped r = Array.fold_left ( + ) 0 r.rx_dropped

let drop_rate r =
  if r.generated = 0 then 0.
  else float_of_int (dropped r) /. float_of_int r.generated

(* Mean utilization of engine [e]: issue cycles over the makespan. *)
let utilization r e =
  if r.cycles = 0 then 0.
  else float_of_int r.engine_busy.(e) /. float_of_int r.cycles

let latency_percentile r q =
  let n = Array.length r.latencies in
  if n = 0 then 0
  else begin
    let k = int_of_float (ceil (q *. float_of_int n)) - 1 in
    r.latencies.(max 0 (min (n - 1) k))
  end

let pp_report ppf r =
  Fmt.pf ppf "cycles: %d (%.2f us at %.0f MHz)@." r.cycles
    (seconds r r.cycles *. 1e6)
    r.r_config.clock_mhz;
  Fmt.pf ppf "packets: %d generated, %d completed, %d dropped (%.1f%%)@."
    r.generated r.completed (dropped r)
    (100. *. drop_rate r);
  if r.r_in_flight > 0 then Fmt.pf ppf "in flight: %d@." r.r_in_flight;
  Fmt.pf ppf "achieved: %.3f Mpps, %.1f Mbit/s payload@." (achieved_mpps r)
    (achieved_mbps r);
  Fmt.pf ppf "tx ring: %d words sent, %d dropped@." r.tx_words
    r.tx_dropped_words;
  Array.iteri
    (fun e busy ->
      Fmt.pf ppf "engine %d: %d busy cycles (%.1f%% utilization)@." e busy
        (100. *. utilization r e))
    r.engine_busy;
  if Array.length r.latencies > 0 then
    Fmt.pf ppf "latency cycles: p50 %d, p90 %d, p99 %d, p99.9 %d, max %d@."
      (latency_percentile r 0.50) (latency_percentile r 0.90)
      (latency_percentile r 0.99)
      (latency_percentile r 0.999)
      r.latencies.(Array.length r.latencies - 1);
  List.iter
    (fun (name, s) ->
      Fmt.pf ppf "bus %-7s: %d requests, %d busy cycles, %d stall cycles@."
        name s.Memory.chan_requests s.Memory.chan_busy s.Memory.chan_stall)
    r.bus
