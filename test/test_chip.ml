(* Tests for the chip-level subsystem: the synthetic packet generator,
   the memory-bus arbiter, and the multi-engine Chip run loop. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- packet generator ---------------- *)

let gen_config ?(profile = Ixp.Pktgen.Fixed 64) ?(offered = 1.0) ?(seed = 7)
    ?(count = 100) ?(ports = 1) () =
  {
    Ixp.Pktgen.default_config with
    Ixp.Pktgen.profile;
    offered_mpps = offered;
    seed;
    count;
    ports;
  }

let test_pktgen_determinism () =
  let trace cfg =
    List.map
      (fun (p : Ixp.Pktgen.packet) ->
        (p.Ixp.Pktgen.seq, p.Ixp.Pktgen.port, p.Ixp.Pktgen.arrival,
         p.Ixp.Pktgen.size, Array.to_list p.Ixp.Pktgen.payload))
      (Ixp.Pktgen.trace cfg)
  in
  let cfg = gen_config ~profile:Ixp.Pktgen.Imix ~ports:4 () in
  checkb "same seed, identical trace" true (trace cfg = trace cfg);
  checkb "different seed, different trace" true
    (trace cfg <> trace { cfg with Ixp.Pktgen.seed = 8 })

let test_pktgen_profiles () =
  let sizes cfg =
    List.map (fun (p : Ixp.Pktgen.packet) -> p.Ixp.Pktgen.size)
      (Ixp.Pktgen.trace cfg)
  in
  checkb "fixed profile is fixed" true
    (List.for_all (( = ) 64) (sizes (gen_config ())));
  checkb "imix draws from the three classes" true
    (List.for_all
       (fun s -> s = 64 || s = 576 || s = 1504)
       (sizes (gen_config ~profile:Ixp.Pktgen.Imix ())));
  (* fixed interarrival: 1 Mpps at 233 MHz is one packet per 233 cycles *)
  let arrivals =
    List.map (fun (p : Ixp.Pktgen.packet) -> p.Ixp.Pktgen.arrival)
      (Ixp.Pktgen.trace (gen_config ~count:10 ()))
  in
  (match arrivals with
  | a0 :: a1 :: _ -> checkb "1 Mpps spacing" true (a1 - a0 = 233)
  | _ -> Alcotest.fail "trace too short");
  (* saturation: everything arrives at cycle 0 *)
  checkb "saturation arrivals at 0" true
    (List.for_all (( = ) 0)
       (List.map (fun (p : Ixp.Pktgen.packet) -> p.Ixp.Pktgen.arrival)
          (Ixp.Pktgen.trace (gen_config ~offered:0. ()))))

(* ---------------- adversarial profiles ---------------- *)

let test_pktgen_profile_strings () =
  (* CLI names round-trip through the parser and printer *)
  List.iter
    (fun s ->
      match Ixp.Pktgen.profile_of_string s with
      | Ok p ->
          (match Ixp.Pktgen.profile_of_string (Ixp.Pktgen.profile_to_string p) with
          | Ok p' -> checkb ("round-trip " ^ s) true (p = p')
          | Error _ -> Alcotest.failf "printer output for %s does not parse" s)
      | Error _ -> Alcotest.failf "profile %s does not parse" s)
    [
      "fixed:64"; "imix"; "imix-path"; "burst:64:8"; "flood"; "flood:40";
      "elephants"; "elephants:512:4:80:576"; "flows:1024:90:200"; "flash:5000";
    ];
  checkb "garbage rejected" true
    (match Ixp.Pktgen.profile_of_string "nope" with
    | Error _ -> true
    | Ok _ -> false)

let flow_counts cfg =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p : Ixp.Pktgen.packet) ->
      let f = p.Ixp.Pktgen.flow in
      Hashtbl.replace tbl f (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f)))
    (Ixp.Pktgen.trace cfg);
  tbl

let test_pktgen_flood () =
  (* a SYN flood draws a fresh flow id per packet: no reuse, tiny and
     uniform packet size *)
  let cfg =
    gen_config ~profile:(Ixp.Pktgen.Syn_flood { size = 40 }) ~count:300 ()
  in
  let counts = flow_counts cfg in
  checki "every packet a distinct flow" 300 (Hashtbl.length counts);
  checkb "all 40-byte" true
    (List.for_all
       (fun (p : Ixp.Pktgen.packet) -> p.Ixp.Pktgen.size = 40)
       (Ixp.Pktgen.trace cfg))

let test_pktgen_elephants () =
  (* 4 heavy flows carry 80% of the traffic: the top-4 flow counts must
     clearly dominate the other 508 *)
  let cfg =
    gen_config
      ~profile:
        (Ixp.Pktgen.Elephants { flows = 512; heavy = 4; heavy_pct = 80; size = 576 })
      ~count:500 ()
  in
  let counts = flow_counts cfg in
  let sorted =
    List.sort (fun a b -> compare b a)
      (Hashtbl.fold (fun _ c acc -> c :: acc) counts [])
  in
  let top4 =
    match sorted with a :: b :: c :: d :: _ -> a + b + c + d | _ -> 0
  in
  checkb
    (Printf.sprintf "top-4 flows carry most packets (%d/500)" top4)
    true
    (top4 >= 300);
  checkb "but not everything" true (Hashtbl.length counts > 8)

let test_pktgen_zipf_flows () =
  (* Zipf user population: heavily skewed but many distinct flows *)
  let cfg =
    gen_config
      ~profile:(Ixp.Pktgen.Flows { users = 1024; alpha_pct = 110; size = 200 })
      ~count:500 ()
  in
  let counts = flow_counts cfg in
  let n = Hashtbl.length counts in
  let max_c = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  checkb (Printf.sprintf "many distinct flows (%d)" n) true (n > 50);
  checkb
    (Printf.sprintf "head flow well above uniform share (%d)" max_c)
    true
    (max_c * n > 3 * 500)

let test_pktgen_flash_crowd () =
  (* the flash crowd ramps the arrival rate up: gaps shrink over the
     ramp, by 4x start-to-end *)
  let cfg =
    gen_config
      ~profile:(Ixp.Pktgen.Flash_crowd { size = 64; ramp = 100 })
      ~offered:1.0 ~count:101 ()
  in
  let arrivals =
    List.map (fun (p : Ixp.Pktgen.packet) -> p.Ixp.Pktgen.arrival)
      (Ixp.Pktgen.trace cfg)
  in
  let gaps =
    let rec go = function
      | a :: (b :: _ as tl) -> (b - a) :: go tl
      | _ -> []
    in
    go arrivals
  in
  let first = List.nth gaps 0 and last = List.nth gaps (List.length gaps - 1) in
  checkb
    (Printf.sprintf "gap shrinks over the ramp (%d -> %d)" first last)
    true
    (first > last && first >= 3 * last)

let test_pktgen_imix_path () =
  (* pathological IMIX alternates one max-size packet with a run of
     minimum-size packets in a fixed group pattern *)
  let cfg = gen_config ~profile:Ixp.Pktgen.Imix_path ~count:36 () in
  List.iter
    (fun (p : Ixp.Pktgen.packet) ->
      let expect = if p.Ixp.Pktgen.seq mod 12 = 0 then 1504 else 40 in
      checki "group pattern" expect p.Ixp.Pktgen.size)
    (Ixp.Pktgen.trace cfg)

let test_pktgen_next_into_no_alloc () =
  (* the streaming generator reuses the caller's view: zero minor words
     per packet in steady state *)
  let gen =
    Ixp.Pktgen.create
      (gen_config
         ~profile:
           (Ixp.Pktgen.Elephants { flows = 512; heavy = 4; heavy_pct = 80; size = 576 })
         ~count:2000 ())
  in
  let v = Ixp.Pktgen.make_view () in
  (* warm up *)
  for _ = 1 to 10 do
    ignore (Ixp.Pktgen.next_into gen v)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1500 do
    ignore (Ixp.Pktgen.next_into gen v)
  done;
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "next_into allocates nothing (%.0f words)" words)
    true (words < 64.)

(* ---------------- event wheel ---------------- *)

let test_wheel_order () =
  let w = Ixp.Event_wheel.create 4 in
  checkb "empty" true (Ixp.Event_wheel.is_empty w);
  Ixp.Event_wheel.schedule w 2 ~cycle:100;
  Ixp.Event_wheel.schedule w 0 ~cycle:50;
  Ixp.Event_wheel.schedule w 1 ~cycle:50;
  Ixp.Event_wheel.schedule w 3 ~cycle:7;
  checki "next is the min" 7 (Ixp.Event_wheel.next_time w);
  checki "pop min" 3 (Ixp.Event_wheel.pop w);
  (* ties break to the lowest event id *)
  checki "tie to lowest id" 0 (Ixp.Event_wheel.pop w);
  checki "then the other" 1 (Ixp.Event_wheel.pop w);
  checki "then the stragglers" 2 (Ixp.Event_wheel.pop w);
  checkb "empty again" true (Ixp.Event_wheel.is_empty w)

let test_wheel_reschedule_cancel () =
  let w = Ixp.Event_wheel.create 4 in
  Ixp.Event_wheel.schedule w 0 ~cycle:10;
  (* rescheduling moves the event *)
  Ixp.Event_wheel.schedule w 0 ~cycle:90;
  Ixp.Event_wheel.schedule w 1 ~cycle:40;
  checki "rescheduled event comes later" 1 (Ixp.Event_wheel.pop w);
  Ixp.Event_wheel.cancel w 0;
  checkb "cancel empties" true (Ixp.Event_wheel.is_empty w);
  (* cancelling an unscheduled event is a no-op *)
  Ixp.Event_wheel.cancel w 0;
  checkb "still empty" true (Ixp.Event_wheel.is_empty w)

let test_wheel_cursor_rollback () =
  (* the run loop peeks next_time before an arrival may schedule an
     earlier event: the earlier event must win, and neither is lost *)
  let w = Ixp.Event_wheel.create 4 in
  Ixp.Event_wheel.schedule w 0 ~cycle:60;
  checki "peek at 60" 60 (Ixp.Event_wheel.next_time w);
  Ixp.Event_wheel.schedule w 1 ~cycle:20;
  checki "earlier event wins" 20 (Ixp.Event_wheel.next_time w);
  checki "pop it" 1 (Ixp.Event_wheel.pop w);
  checki "later event intact" 0 (Ixp.Event_wheel.pop w)

(* The wheel keeps the earliest id between operations.  Against a plain
   scan of a shadow array, over random schedules (earlier, later, tied,
   of the earliest event or another), cancels and pops, every peek and
   pop must agree. *)
let test_wheel_matches_scan () =
  let n = 6 in
  let w = Ixp.Event_wheel.create n in
  let shadow = Array.make n Ixp.Event_wheel.no_event in
  let earliest () =
    let best = ref (-1) in
    Array.iteri
      (fun id c ->
        if c <> Ixp.Event_wheel.no_event && (!best < 0 || c < shadow.(!best))
        then best := id)
      shadow;
    !best
  in
  let rng = Random.State.make [| 27 |] in
  for step = 1 to 20_000 do
    let id = Random.State.int rng n in
    (match Random.State.int rng 4 with
    | 0 | 1 ->
        let cycle = Random.State.int rng 8 in
        Ixp.Event_wheel.schedule w id ~cycle;
        shadow.(id) <- cycle
    | 2 ->
        Ixp.Event_wheel.cancel w id;
        shadow.(id) <- Ixp.Event_wheel.no_event
    | _ ->
        let e = earliest () in
        if e >= 0 then begin
          checki (Printf.sprintf "pop at step %d" step) e
            (Ixp.Event_wheel.pop w);
          shadow.(e) <- Ixp.Event_wheel.no_event
        end);
    let e = earliest () in
    checki
      (Printf.sprintf "next_time at step %d" step)
      (if e < 0 then Ixp.Event_wheel.no_event else shadow.(e))
      (Ixp.Event_wheel.next_time w)
  done

let test_wheel_sparse_jump () =
  (* events far apart in time: next_time finds the distant one once the
     near one is gone *)
  let w = Ixp.Event_wheel.create 4 in
  Ixp.Event_wheel.schedule w 0 ~cycle:1_000_003;
  Ixp.Event_wheel.schedule w 1 ~cycle:3;
  checki "near event first" 3 (Ixp.Event_wheel.next_time w);
  checki "pop near" 1 (Ixp.Event_wheel.pop w);
  checki "distant event found" 1_000_003 (Ixp.Event_wheel.next_time w);
  checki "pop far" 0 (Ixp.Event_wheel.pop w)

(* ---------------- bus arbiter ---------------- *)

let test_bus_arbiter () =
  let bus = Ixp.Memory.bus_create ~sram_occupancy:5 () in
  (* an uncontended request sees the unloaded latency *)
  checki "first request unstalled" 20
    (Ixp.Memory.bus_request bus Ixp.Insn.Sram ~now:0 ~latency:20);
  (* a second request in the same cycle queues behind the first *)
  checki "second request stalls by the occupancy" 25
    (Ixp.Memory.bus_request bus Ixp.Insn.Sram ~now:0 ~latency:20);
  (* a later request, after the channel drained, is unstalled again *)
  checki "request after drain" 20
    (Ixp.Memory.bus_request bus Ixp.Insn.Sram ~now:100 ~latency:20);
  (* channels are independent *)
  checki "scratch channel independent" 12
    (Ixp.Memory.bus_request bus Ixp.Insn.Scratch ~now:0 ~latency:12);
  let stats = Ixp.Memory.bus_stats bus in
  let sram = List.assoc "sram" stats in
  checki "sram request count" 3 sram.Ixp.Memory.chan_requests;
  checki "sram stall cycles" 5 sram.Ixp.Memory.chan_stall

let test_bus_channel_stats () =
  let bus = Ixp.Memory.bus_create ~sram_occupancy:5 () in
  (* two same-cycle requests: the second waits the occupancy of the
     first, and busy accumulates one occupancy per request *)
  checki "first" 20 (Ixp.Memory.bus_request bus Ixp.Insn.Sram ~now:0 ~latency:20);
  checki "second queues" 25
    (Ixp.Memory.bus_request bus Ixp.Insn.Sram ~now:0 ~latency:20);
  let stats = Ixp.Memory.bus_stats bus in
  let sram = List.assoc "sram" stats in
  checki "requests" 2 sram.Ixp.Memory.chan_requests;
  checki "busy = 2 occupancies" 10 sram.Ixp.Memory.chan_busy;
  checki "stall = 1 occupancy" 5 sram.Ixp.Memory.chan_stall;
  (* every channel is reported, untouched ones as zeros *)
  let names = List.map fst stats in
  List.iter
    (fun ch -> checkb ("stats has " ^ ch) true (List.mem ch names))
    [ "sram"; "sdram"; "scratch"; "fifo" ];
  let sdram = List.assoc "sdram" stats in
  checki "untouched channel zero requests" 0 sdram.Ixp.Memory.chan_requests;
  checki "untouched channel zero busy" 0 sdram.Ixp.Memory.chan_busy

(* ---------------- chip run loop ---------------- *)

(* A small idempotent kernel: reads SRAM, bumps a scratch counter.  It
   does not depend on the packet contents, so every invocation costs the
   same number of cycles. *)
let program =
  {|
fun main () : word {
  let x = sram(64, 1);
  let c = scratch(256, 1);
  scratch(256) <- c + 1;
  x + 1
}
|}

let compiled =
  lazy (Regalloc.Driver.compile ~file:"chip_test.nova" program)

let run_chip ?(engines = 2) ?(threads = 4) ?(contention = true)
    ?(rx_capacity = 32) ?(offered = 1.0) ?(count = 60) ?(seed = 7) () =
  let c = Lazy.force compiled in
  let config =
    {
      Ixp.Chip.default_config with
      Ixp.Chip.engines;
      threads;
      contention;
      rx_capacity;
    }
  in
  let chip = Ixp.Chip.create ~config c.Regalloc.Driver.physical in
  let gen = Ixp.Pktgen.create (gen_config ~offered ~count ~seed ()) in
  Ixp.Chip.run chip gen

let report_key (r : Ixp.Chip.report) =
  ( r.Ixp.Chip.cycles,
    r.Ixp.Chip.generated,
    r.Ixp.Chip.completed,
    Array.to_list r.Ixp.Chip.rx_dropped,
    Array.to_list r.Ixp.Chip.engine_busy,
    Array.to_list r.Ixp.Chip.latencies )

let test_chip_determinism () =
  let a = run_chip () and b = run_chip () in
  checkb "same seed, bit-identical report" true (report_key a = report_key b);
  (* the kernel is packet-independent and Fixed-profile arrivals do not
     depend on the seed, so vary the load instead: saturation queues
     packets and queueing shows up in the latencies *)
  let c = run_chip ~offered:0. () in
  checkb "saturation changes the latencies" true
    (a.Ixp.Chip.latencies <> c.Ixp.Chip.latencies)

let test_chip_overload_accounting () =
  (* one slow context, tiny RX ring, saturation arrivals: most packets
     must be dropped, and every generated packet is accounted for *)
  let r =
    run_chip ~engines:1 ~threads:1 ~rx_capacity:4 ~offered:0. ~count:50 ()
  in
  checki "all generated" 50 r.Ixp.Chip.generated;
  checkb "overload drops packets" true (Ixp.Chip.dropped r > 0);
  checki "completed + dropped = generated" r.Ixp.Chip.generated
    (r.Ixp.Chip.completed + Ixp.Chip.dropped r);
  checkb "drop rate matches" true
    (abs_float
       (Ixp.Chip.drop_rate r
       -. (float_of_int (Ixp.Chip.dropped r) /. 50.))
    < 1e-9)

let test_chip_no_drops_when_sustainable () =
  (* offered load far below capacity: everything completes *)
  let r = run_chip ~engines:2 ~offered:0.05 ~count:40 () in
  checki "no drops" 0 (Ixp.Chip.dropped r);
  checki "all completed" 40 r.Ixp.Chip.completed

let test_chip_single_engine_matches_simulator () =
  (* with one engine, one context, contention off, and back-to-back
     arrivals, the chip is the single-threaded simulator run [count]
     times: the makespan must be exactly count * per-packet cycles *)
  let c = Lazy.force compiled in
  let sim = Ixp.Simulator.create ~threads:1 c.Regalloc.Driver.physical in
  let per_packet = Ixp.Simulator.run_single sim in
  let count = 10 in
  let r =
    run_chip ~engines:1 ~threads:1 ~contention:false ~offered:0. ~count
      ~rx_capacity:count ()
  in
  checki "chip matches N sequential simulator runs" (count * per_packet)
    r.Ixp.Chip.cycles;
  checki "everything completed" count r.Ixp.Chip.completed;
  (* and with contention enabled the bus can only slow it down *)
  let rc =
    run_chip ~engines:1 ~threads:1 ~contention:true ~offered:0. ~count
      ~rx_capacity:count ()
  in
  checkb "arbiter never speeds a lone engine up" true
    (rc.Ixp.Chip.cycles >= r.Ixp.Chip.cycles)

let test_chip_scaling () =
  (* under saturation, more engines means more throughput *)
  let r1 = run_chip ~engines:1 ~offered:0. ~count:60 () in
  let r6 = run_chip ~engines:6 ~offered:0. ~count:60 () in
  checkb "six engines beat one" true
    (Ixp.Chip.achieved_mpps r6 > Ixp.Chip.achieved_mpps r1)

let test_chip_report_invariants () =
  let r = run_chip ~engines:2 ~threads:2 ~offered:0. ~count:40 () in
  checki "one latency per completed packet" r.Ixp.Chip.completed
    (Array.length r.Ixp.Chip.latencies);
  let sorted = Array.copy r.Ixp.Chip.latencies in
  Array.sort compare sorted;
  checkb "latencies sorted ascending" true (sorted = r.Ixp.Chip.latencies);
  Array.iter
    (fun l -> checkb "latency positive" true (l > 0))
    r.Ixp.Chip.latencies;
  for e = 0 to Array.length r.Ixp.Chip.engine_busy - 1 do
    let u = Ixp.Chip.utilization r e in
    checkb "utilization within [0,1]" true (u >= 0. && u <= 1.)
  done;
  checkb "percentiles ordered" true
    (Ixp.Chip.latency_percentile r 0.50 <= Ixp.Chip.latency_percentile r 0.99);
  (* the report carries the bus channel stats the kernel exercised *)
  let sram = List.assoc "sram" r.Ixp.Chip.bus in
  checkb "kernel hit the sram channel" true (sram.Ixp.Memory.chan_requests > 0);
  checkb "saturated sram channel stalls" true (sram.Ixp.Memory.chan_stall > 0)

let test_chip_traced_run () =
  (* a traced chip run emits per-context occupancy spans and mirrors the
     bus totals into the metrics registry *)
  Support.Metrics.reset ();
  Support.Trace.enable ();
  let r = run_chip ~engines:2 ~threads:2 ~offered:0. ~count:20 () in
  Support.Trace.disable ();
  let totals = Support.Trace.span_totals () in
  checkb "ctx0 spans recorded" true (List.mem_assoc "ctx0" totals);
  (* chip trace events use the 1 cycle = 1 us timebase, so the summed
     context occupancy cannot exceed engines * makespan *)
  let ctx_total =
    List.fold_left
      (fun acc (n, s) ->
        if String.length n >= 3 && String.sub n 0 3 = "ctx" then acc +. s
        else acc)
      0. totals
  in
  checkb "occupancy bounded by engines * makespan" true
    (ctx_total *. 1e6 <= 2. *. float_of_int r.Ixp.Chip.cycles +. 1.);
  let sram_requests =
    Support.Metrics.gauge_value (Support.Metrics.gauge "chip.bus.sram.requests")
  in
  let stats = List.assoc "sram" r.Ixp.Chip.bus in
  checkb "bus gauge mirrors report" true
    (int_of_float sram_requests = stats.Ixp.Memory.chan_requests);
  checkb "completed gauge" true
    (int_of_float (Support.Metrics.gauge_value (Support.Metrics.gauge "chip.completed"))
    = r.Ixp.Chip.completed);
  Support.Trace.reset ()

let test_chip_in_flight_invariant () =
  (* drive the loop by hand and check the conservation law at every
     event: received = completed + dropped + on-a-context + queued.
     Overload parameters so the rings overflow and drops participate. *)
  let c = Lazy.force compiled in
  let config =
    {
      Ixp.Chip.default_config with
      Ixp.Chip.engines = 1;
      threads = 2;
      rx_capacity = 4;
    }
  in
  let chip = Ixp.Chip.create ~config c.Regalloc.Driver.physical in
  let gen = Ixp.Pktgen.create (gen_config ~offered:0. ~count:60 ()) in
  Ixp.Chip.prepare chip ~ports:1 ~expected:60;
  let deliver = Ixp.Chip.default_deliver in
  let v = Ixp.Pktgen.make_view () in
  let pending = ref (Ixp.Pktgen.next_into gen v) in
  let saw_in_flight = ref false in
  let check_invariant () =
    let received = Array.fold_left ( + ) 0 chip.Ixp.Chip.rx_received in
    let dropped = Array.fold_left ( + ) 0 chip.Ixp.Chip.rx_dropped in
    let in_flight = Ixp.Chip.in_flight_count chip in
    if in_flight > 0 then saw_in_flight := true;
    checki "received = completed + dropped + in-flight + queued" received
      (chip.Ixp.Chip.completed + dropped + in_flight
      + Ixp.Chip.rx_queued chip)
  in
  while !pending || Ixp.Chip.active chip do
    let t_step = Ixp.Chip.next_time chip in
    let t_arr = if !pending then v.Ixp.Pktgen.v_arrival else Ixp.Chip.no_event in
    if t_arr <= t_step then begin
      Ixp.Chip.offer chip ~deliver ~port:v.Ixp.Pktgen.v_port v;
      pending := Ixp.Pktgen.next_into gen v
    end
    else Ixp.Chip.step chip ~deliver;
    check_invariant ()
  done;
  checkb "the mid-run states actually had packets in flight" true
    !saw_in_flight;
  let r = Ixp.Chip.finish chip in
  checkb "overloaded run dropped packets" true (Ixp.Chip.dropped r > 0);
  checki "final report: nothing left in flight" 0 r.Ixp.Chip.r_in_flight;
  checki "final report: generated fully accounted" r.Ixp.Chip.generated
    (r.Ixp.Chip.completed + Ixp.Chip.dropped r + r.Ixp.Chip.r_in_flight)

let test_chip_report_histogram () =
  (* the report's latency buckets agree with its exact latency list *)
  let r = run_chip ~engines:2 ~offered:0. ~count:40 () in
  checki "bucket mass = completed" r.Ixp.Chip.completed
    (Array.fold_left ( + ) 0 r.Ixp.Chip.lat_buckets);
  let h = Support.Metrics.histogram "test.lat" in
  Support.Metrics.merge_buckets h r.Ixp.Chip.lat_buckets;
  let exact_p99 = Ixp.Chip.latency_percentile r 0.99 in
  let hist_p99 = Support.Metrics.percentile h 0.99 in
  (* histogram percentiles carry <=1/32 relative bucket error *)
  checkb
    (Printf.sprintf "histogram p99 tracks exact p99 (%d vs %d)" hist_p99
       exact_p99)
    true
    (abs (hist_p99 - exact_p99) * 16 <= exact_p99 + 32)

let test_chip_steady_state_no_alloc () =
  (* the heart of the event-engine rewrite: once warmed up, the
     offer/step loop must not allocate minor words at all *)
  let c = Lazy.force compiled in
  let config =
    { Ixp.Chip.default_config with Ixp.Chip.engines = 2; threads = 4 }
  in
  let chip = Ixp.Chip.create ~config c.Regalloc.Driver.physical in
  let count = 3000 in
  let mk () = Ixp.Pktgen.create (gen_config ~offered:1.0 ~count ~ports:2 ()) in
  (* warm up: latency array growth, lazy tables *)
  Ixp.Chip.prepare chip ~ports:2 ~expected:count;
  Ixp.Chip.drive chip ~deliver:Ixp.Chip.default_deliver (mk ());
  (* generator construction and [prepare] may allocate; the event loop
     itself must not (beyond the one packet view it creates) *)
  let gen = mk () in
  Ixp.Chip.prepare chip ~ports:2 ~expected:count;
  let before = Gc.minor_words () in
  Ixp.Chip.drive chip ~deliver:Ixp.Chip.default_deliver gen;
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "steady-state drive allocates nothing (%.0f words for %d \
                     packets)"
       words count)
    true (words < 64.)

(* ---------------- simulated results pinned ---------------- *)

(* The chip statistics of real workload code, pinned as digests of the
   printed report plus the sorted latency list: a change to the engine,
   the memory model, the bus or the schedulers that moves any cycle,
   drop, stall or latency changes a digest.  Compiles are cold (fresh
   identifier stamps), so the code under test does not depend on which
   tests ran before. *)

type workload = {
  w_name : string;
  w_source : string;
  w_align : int; (* payload sizes the program accepts *)
  w_plen : int; (* payload bytes of a single-packet run *)
  w_tables : Ixp.Memory.t -> unit;
  w_packet : (int -> int -> unit) -> payload_len:int -> unit;
}

let poke_sram mem w v = Ixp.Memory.poke mem Ixp.Insn.Sram w v

let workload w_name w_source ~align ~plen ~tables ~packet =
  {
    w_name;
    w_source;
    w_align = align;
    w_plen = plen;
    w_tables = tables;
    w_packet = (fun load ~payload_len -> ignore (packet load ~payload_len));
  }

let dataplane name source ~align ~plen ~init_tables ~init_payload =
  workload name source ~align ~plen
    ~tables:(fun mem -> init_tables (poke_sram mem))
    ~packet:init_payload

let w_aes =
  Workloads.Aes.(
    dataplane "aes" source ~align:16 ~plen:64 ~init_tables ~init_payload)

let w_kasumi =
  workload "kasumi" Workloads.Kasumi.source ~align:8 ~plen:64
    ~tables:(fun mem ->
      Workloads.Kasumi.init_tables ~load_sram:(poke_sram mem)
        ~load_scratch:(fun w v -> Ixp.Memory.poke mem Ixp.Insn.Scratch w v))
    ~packet:Workloads.Kasumi.init_payload

let w_nat =
  Workloads.Nat.(
    dataplane "nat" source ~align:4 ~plen:16 ~init_tables ~init_payload)

let w_lpm =
  Workloads.Lpm.(
    dataplane "lpm" source ~align:4 ~plen:16 ~init_tables ~init_payload)

let w_firewall =
  Workloads.Firewall.(
    dataplane "firewall" source ~align:4 ~plen:16 ~init_tables ~init_payload)

let w_csum =
  Workloads.Csum.(
    dataplane "csum" source ~align:8 ~plen:24 ~init_tables ~init_payload)

let w_qos =
  Workloads.Qos.(
    dataplane "qos" source ~align:4 ~plen:16 ~init_tables ~init_payload)

let workloads = [ w_aes; w_kasumi; w_nat; w_lpm; w_firewall; w_csum; w_qos ]

(* Each workload compiled once per allocator, cold on one domain; the
   ILP under a 128-node budget. *)
let cold_compile =
  let memo = Hashtbl.create 16 in
  fun allocator w ->
    match Hashtbl.find_opt memo (allocator, w.w_name) with
    | Some c -> c
    | None ->
        let options =
          {
            Regalloc.Driver.default_options with
            allocator;
            node_limit = 128;
            time_limit = 1e9;
            solver_domains = 1;
          }
        in
        let c =
          Regalloc.Driver.compile ~options ~file:(w.w_name ^ ".nova") w.w_source
        in
        Hashtbl.replace memo (allocator, w.w_name) c;
        c

let ilp_compiled = cold_compile Regalloc.Driver.Ilp_allocator
let baseline_compiled = cold_compile Regalloc.Driver.Baseline_allocator
let ilp_code w = (ilp_compiled w).Regalloc.Driver.physical
let baseline_code w = (baseline_compiled w).Regalloc.Driver.physical

(* One packet of [payload_len] bytes on context 0 of a fresh engine: the
   engine, for its memory, and the cycles the packet took. *)
let run_one w physical ~payload_len =
  let sim = Ixp.Simulator.create physical in
  w.w_tables (Ixp.Simulator.shared_memory sim);
  let sd = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
  w.w_packet (fun a v -> Ixp.Memory.poke sd Ixp.Insn.Sdram a v) ~payload_len;
  let cycles = Ixp.Simulator.run_single sim in
  (sim, cycles)

(* Each context's SDRAM gets the workload's own packet image. *)
let deliver_workload w : Ixp.Chip.deliver =
 fun chip ~engine ~thread ~seq:_ ~size ~words:_ ~payload:_ ->
  let sim = Ixp.Chip.engine chip engine in
  let sd = Ixp.Simulator.sdram_of_thread sim ~thread in
  w.w_packet
    (fun a v -> Ixp.Memory.poke sd Ixp.Insn.Sdram a v)
    ~payload_len:(max w.w_align (size / w.w_align * w.w_align))

let workload_traffic w ~profile ~offered ~count =
  Ixp.Pktgen.create
    {
      Ixp.Pktgen.default_config with
      Ixp.Pktgen.profile;
      offered_mpps = offered;
      seed = 3;
      count;
      size_align = w.w_align;
    }

let chip_digest (r : Ixp.Chip.report) =
  Digest.to_hex
    (Digest.string
       (Fmt.str "%a%a" Ixp.Chip.pp_report r
          Fmt.(array ~sep:comma int)
          r.Ixp.Chip.latencies))

let cluster_digest (r : Cluster.report) =
  let chips = Array.to_list r.Cluster.chip_reports in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (Fmt.str "%a" Cluster.pp_report r :: List.map chip_digest chips)))

let six_by_four =
  { Ixp.Chip.default_config with Ixp.Chip.engines = 6; threads = 4 }

let chip_leg ?(config = six_by_four) w physical ~offered ~count =
  let chip = Ixp.Chip.create ~config physical in
  w.w_tables (Ixp.Chip.shared_memory chip);
  Ixp.Chip.run ~deliver:(deliver_workload w) chip
    (workload_traffic w ~profile:(Ixp.Pktgen.Fixed 64) ~offered ~count)

let cluster_leg w physical ~profile =
  let config =
    {
      Cluster.default_config with
      Cluster.chips = 4;
      balancer = Cluster.Flow_hash;
      chip_config = { six_by_four with Ixp.Chip.engines = 2 };
      drop_budget = 0;
    }
  in
  let cl = Cluster.create ~config physical in
  Cluster.iter_chips
    (fun chip -> w.w_tables (Ixp.Chip.shared_memory chip))
    cl;
  Cluster.run ~deliver:(deliver_workload w) cl
    (workload_traffic w ~profile ~offered:0.6 ~count:1500)

let check_digest what expected got =
  Alcotest.(check string)
    (what ^ ": simulated statistics digest")
    expected got

let test_pinned_chip_legs () =
  List.iter
    (fun (what, w, code, offered, count, digest) ->
      check_digest what digest
        (chip_digest (chip_leg w (code w) ~offered ~count)))
    [
      ("kasumi ilp capacity", w_kasumi, ilp_code, 16.0, 2000,
        "27d852cbce5ba3ed02e5c04b91160457");
      ("kasumi baseline capacity", w_kasumi, baseline_code, 16.0, 2000,
        "e20d1cce4572a9e4610aba5ffb0ab471");
      ("lpm ilp capacity", w_lpm, ilp_code, 16.0, 2000,
        "7180bfd348e5502b4c17c3474740333d");
      ("lpm baseline capacity", w_lpm, baseline_code, 16.0, 2000,
        "d1f739cb0fb5f9b0e70a12b7cc543dd3");
      ("csum ilp at 1.5 Mpps", w_csum, ilp_code, 1.5, 2000,
        "529b2253c11c3bba7a41de3616342e89");
    ]

let test_pinned_cluster_legs () =
  List.iter
    (fun (what, profile, digest) ->
      check_digest what digest
        (cluster_digest (cluster_leg w_kasumi (ilp_code w_kasumi) ~profile)))
    [
      ("kasumi ilp cluster, flood", Ixp.Pktgen.Syn_flood { size = 40 },
        "bc497da69d1765d2af1bbf32dbfcde04");
      ( "kasumi ilp cluster, elephants",
        Ixp.Pktgen.Elephants
          { flows = 512; heavy = 4; heavy_pct = 80; size = 576 },
        "daa9962093b455da59778b2f30275ed3" );
    ]

(* One packet on one context, every workload, baseline code. *)
let test_pinned_run_single () =
  List.iter
    (fun (w, cycles) ->
      checki (w.w_name ^ ": run_single cycles") cycles
        (snd (run_one w (baseline_code w) ~payload_len:w.w_plen)))
    [
      (w_aes, 18716); (w_kasumi, 25899); (w_nat, 521); (w_lpm, 238);
      (w_firewall, 603); (w_csum, 447); (w_qos, 329);
    ]

let suites =
  [
    ( "chip.pktgen",
      [
        Alcotest.test_case "determinism" `Quick test_pktgen_determinism;
        Alcotest.test_case "profiles" `Quick test_pktgen_profiles;
        Alcotest.test_case "profile strings" `Quick test_pktgen_profile_strings;
        Alcotest.test_case "syn flood" `Quick test_pktgen_flood;
        Alcotest.test_case "elephant flows" `Quick test_pktgen_elephants;
        Alcotest.test_case "zipf flows" `Quick test_pktgen_zipf_flows;
        Alcotest.test_case "flash crowd" `Quick test_pktgen_flash_crowd;
        Alcotest.test_case "pathological imix" `Quick test_pktgen_imix_path;
        Alcotest.test_case "streaming no-alloc" `Quick
          test_pktgen_next_into_no_alloc;
      ] );
    ( "chip.wheel",
      [
        Alcotest.test_case "min order" `Quick test_wheel_order;
        Alcotest.test_case "reschedule and cancel" `Quick
          test_wheel_reschedule_cancel;
        Alcotest.test_case "cursor rollback" `Quick test_wheel_cursor_rollback;
        Alcotest.test_case "sparse jump" `Quick test_wheel_sparse_jump;
        Alcotest.test_case "matches a plain scan" `Quick test_wheel_matches_scan;
      ] );
    ( "chip.bus",
      [
        Alcotest.test_case "arbiter" `Quick test_bus_arbiter;
        Alcotest.test_case "channel stats" `Quick test_bus_channel_stats;
      ] );
    ( "chip.run",
      [
        Alcotest.test_case "determinism" `Quick test_chip_determinism;
        Alcotest.test_case "overload accounting" `Quick
          test_chip_overload_accounting;
        Alcotest.test_case "sustainable load" `Quick
          test_chip_no_drops_when_sustainable;
        Alcotest.test_case "single-engine equivalence" `Quick
          test_chip_single_engine_matches_simulator;
        Alcotest.test_case "engine scaling" `Quick test_chip_scaling;
        Alcotest.test_case "report invariants" `Quick
          test_chip_report_invariants;
        Alcotest.test_case "in-flight conservation" `Quick
          test_chip_in_flight_invariant;
        Alcotest.test_case "latency histogram" `Quick
          test_chip_report_histogram;
        Alcotest.test_case "steady-state zero-alloc" `Quick
          test_chip_steady_state_no_alloc;
        Alcotest.test_case "traced run" `Quick test_chip_traced_run;
      ] );
    ( "chip.pinned",
      [
        Alcotest.test_case "workload chip legs" `Quick test_pinned_chip_legs;
        Alcotest.test_case "workload cluster legs" `Quick
          test_pinned_cluster_legs;
        Alcotest.test_case "run_single cycles" `Quick test_pinned_run_single;
      ] );
  ]
