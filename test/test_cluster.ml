(* Tests for the multi-chip cluster: balancer steering, failover, the
   drop-budget breaker, and determinism of the whole assembly. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* The same small packet-independent kernel the chip tests use. *)
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
  lazy (Regalloc.Driver.compile ~file:"cluster_test.nova" program)

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

let make_cluster ?(chips = 2) ?(balancer = Cluster.Flow_hash) ?(engines = 2)
    ?(threads = 2) ?(rx_capacity = 32) ?(drop_budget = 0) ?(failover = true)
    () =
  let c = Lazy.force compiled in
  let chip_config =
    {
      Ixp.Chip.default_config with
      Ixp.Chip.engines;
      threads;
      rx_capacity;
    }
  in
  Cluster.create
    ~config:
      { Cluster.chips; balancer; chip_config; drop_budget; failover }
    c.Regalloc.Driver.physical

let run_cluster ?chips ?balancer ?engines ?threads ?rx_capacity ?drop_budget
    ?failover ?profile ?offered ?(seed = 7) ?(count = 80) () =
  let cl =
    make_cluster ?chips ?balancer ?engines ?threads ?rx_capacity ?drop_budget
      ?failover ()
  in
  Cluster.run cl (Ixp.Pktgen.create (gen_config ?profile ?offered ~seed ~count ()))

let test_cluster_determinism () =
  (* bit-identical reports under the fixed seed, for both balancers and
     both profiles; the report is compared structurally, chip
     sub-reports included *)
  List.iter
    (fun profile ->
      let what = Ixp.Pktgen.profile_to_string profile in
      let a = run_cluster ~balancer:Cluster.Flow_hash ~profile () in
      let b = run_cluster ~balancer:Cluster.Flow_hash ~profile () in
      checkb (what ^ ": hash: same seed, bit-identical report") true (a = b);
      let c = run_cluster ~balancer:Cluster.Round_robin ~profile () in
      let d = run_cluster ~balancer:Cluster.Round_robin ~profile () in
      checkb (what ^ ": rr: same seed, bit-identical report") true (c = d);
      let e = run_cluster ~balancer:Cluster.Flow_hash ~profile ~seed:8 () in
      checkb (what ^ ": different seed, different steering") true (a <> e))
    [
      Ixp.Pktgen.Elephants
        { flows = 512; heavy = 4; heavy_pct = 80; size = 576 };
      Ixp.Pktgen.Syn_flood { size = 40 };
    ]

let test_cluster_flow_affinity () =
  (* under the hash balancer at sustainable load with failover off,
     every packet lands on its flow's natural chip: the per-chip steer
     counts must equal the counts predicted from the generated trace *)
  let chips = 4 in
  let cfg =
    gen_config
      ~profile:(Ixp.Pktgen.Flows { users = 256; alpha_pct = 100; size = 64 })
      ~offered:0.05 ~count:120 ()
  in
  let expect = Array.make chips 0 in
  List.iter
    (fun (p : Ixp.Pktgen.packet) ->
      let c = p.Ixp.Pktgen.hash mod chips in
      expect.(c) <- expect.(c) + 1)
    (Ixp.Pktgen.trace cfg);
  let cl = make_cluster ~chips ~balancer:Cluster.Flow_hash ~failover:false () in
  let r = Cluster.run cl (Ixp.Pktgen.create cfg) in
  checki "nothing dropped at this load" 0 (Cluster.dropped r);
  checki "nothing re-steered" 0 (Array.fold_left ( + ) 0 r.Cluster.resteered);
  for c = 0 to chips - 1 do
    checki
      (Printf.sprintf "chip %d steer count matches the trace" c)
      expect.(c) r.Cluster.steered.(c)
  done

let test_cluster_failover () =
  (* saturation with tiny chips: without failover the balancer drops at
     the natural target; with failover packets move to whichever chip
     has headroom, so strictly more complete *)
  let run failover =
    run_cluster ~chips:2 ~engines:1 ~threads:1 ~rx_capacity:2 ~failover
      ~offered:0. ~count:40 ()
  in
  let without = run false and with_fo = run true in
  checki "no re-steering without failover" 0
    (Array.fold_left ( + ) 0 without.Cluster.resteered);
  checkb "failover re-steers" true
    (Array.fold_left ( + ) 0 with_fo.Cluster.resteered > 0);
  checkb "failover completes at least as many" true
    (with_fo.Cluster.completed >= without.Cluster.completed);
  checkb "saturation still drops" true (Cluster.dropped with_fo > 0)

let test_cluster_drop_budget () =
  (* a small drop budget trips the breaker on saturated chips *)
  let r =
    run_cluster ~chips:2 ~engines:1 ~threads:1 ~rx_capacity:2 ~drop_budget:3
      ~offered:0. ~count:60 ()
  in
  checkb "some chip tripped unhealthy" true
    (Array.exists (fun u -> u) r.Cluster.unhealthy);
  (* the breaker can only reduce what a chip is offered, never lose a
     packet: accounting still closes *)
  checki "accounting closes" r.Cluster.generated
    (r.Cluster.completed + Cluster.dropped r);
  (* without a budget nothing trips *)
  let r0 =
    run_cluster ~chips:2 ~engines:1 ~threads:1 ~rx_capacity:2 ~drop_budget:0
      ~offered:0. ~count:60 ()
  in
  checkb "no breaker without a budget" true
    (not (Array.exists (fun u -> u) r0.Cluster.unhealthy))

let test_cluster_accounting () =
  (* conservation at the cluster level, overloaded and not: generated =
     completed + balancer drops, steered = completed, chips report no
     ring drops of their own (the balancer checks room first) *)
  List.iter
    (fun (offered, count) ->
      let r =
        run_cluster ~chips:3 ~engines:1 ~threads:2 ~rx_capacity:4 ~offered
          ~count ()
      in
      checki "generated = completed + dropped" r.Cluster.generated
        (r.Cluster.completed + Cluster.dropped r);
      checki "steered packets all complete" r.Cluster.completed
        (Array.fold_left ( + ) 0 r.Cluster.steered);
      Array.iter
        (fun (cr : Ixp.Chip.report) ->
          checki "no chip-level ring drops in cluster mode" 0
            (Ixp.Chip.dropped cr);
          checki "nothing left in flight" 0 cr.Ixp.Chip.r_in_flight)
        r.Cluster.chip_reports)
    [ (0.05, 40); (0., 120) ]

let test_cluster_single_chip_equivalence () =
  (* a 1-chip cluster is the chip: same cycles, same completions, and
     the balancer's drops are exactly the ring drops the bare chip
     takes, under both a sustainable and an overloaded run *)
  List.iter
    (fun (offered, count) ->
      let c = Lazy.force compiled in
      let chip_config =
        {
          Ixp.Chip.default_config with
          Ixp.Chip.engines = 1;
          threads = 2;
          rx_capacity = 4;
        }
      in
      let cfg = gen_config ~offered ~count () in
      let chip = Ixp.Chip.create ~config:chip_config c.Regalloc.Driver.physical in
      let rc = Ixp.Chip.run chip (Ixp.Pktgen.create cfg) in
      let cl =
        Cluster.create
          ~config:
            {
              Cluster.default_config with
              Cluster.chips = 1;
              chip_config;
            }
          c.Regalloc.Driver.physical
      in
      let r = Cluster.run cl (Ixp.Pktgen.create cfg) in
      checki "same makespan" rc.Ixp.Chip.cycles r.Cluster.cycles;
      checki "same completions" rc.Ixp.Chip.completed r.Cluster.completed;
      checki "cluster drops = chip ring drops" (Ixp.Chip.dropped rc)
        (Cluster.dropped r);
      checki "same bytes" rc.Ixp.Chip.bytes_completed r.Cluster.bytes_completed)
    [ (0.05, 30); (0., 60) ]

let test_cluster_steady_state_no_alloc () =
  (* the cluster loop on top of the chips must stay allocation-free in
     steady state too *)
  let cl = make_cluster ~chips:2 ~engines:2 ~threads:4 () in
  let count = 2000 in
  let run () =
    ignore
      (Cluster.run cl
         (Ixp.Pktgen.create
            (gen_config
               ~profile:(Ixp.Pktgen.Syn_flood { size = 40 })
               ~offered:1.0 ~count ())))
  in
  run () (* warm up *);
  (* [Cluster.run] itself allocates reports and resets state; measure
     only the drive loop *)
  let gen =
    Ixp.Pktgen.create
      (gen_config ~profile:(Ixp.Pktgen.Syn_flood { size = 40 }) ~offered:1.0
         ~count ())
  in
  Cluster.iter_chips
    (fun chip -> Ixp.Chip.prepare chip ~ports:1 ~expected:count)
    cl;
  let before = Gc.minor_words () in
  Cluster.drive cl ~deliver:Ixp.Chip.default_deliver gen;
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "cluster drive allocates nothing (%.0f words for %d \
                     packets)"
       words count)
    true (words < 64.)

let suites =
  [
    ( "cluster",
      [
        Alcotest.test_case "determinism" `Quick test_cluster_determinism;
        Alcotest.test_case "flow affinity" `Quick test_cluster_flow_affinity;
        Alcotest.test_case "failover" `Quick test_cluster_failover;
        Alcotest.test_case "drop budget breaker" `Quick
          test_cluster_drop_budget;
        Alcotest.test_case "conservation" `Quick test_cluster_accounting;
        Alcotest.test_case "single-chip equivalence" `Quick
          test_cluster_single_chip_equivalence;
        Alcotest.test_case "steady-state zero-alloc" `Quick
          test_cluster_steady_state_no_alloc;
      ] );
  ]
