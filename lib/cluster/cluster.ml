(* Multi-chip cluster simulation: N IXP1200 chips behind a pluggable
   load balancer.

   The paper's evaluation stops at one chip; network elements built from
   IXPs put several behind a steering stage (a switch fabric hashing on
   the 5-tuple, or a simple round-robin splitter).  This module models
   that stage over [Ixp.Chip]'s event-driven cores: the balancer decides
   which chip receives each generated packet, per-chip bounded receive
   rings absorb bursts, and chip saturation is handled by failover
   re-steering plus a per-chip drop budget that trips an "unhealthy"
   breaker.

   Determinism: the run loop always advances the globally earliest event
   -- the next packet arrival or the chip with the earliest internal
   event (lowest chip id on ties, arrivals first) -- and every balancer
   decision depends only on simulation state, so a fixed seed reproduces
   bit-identical reports.

   Zero allocation in steady state: chips are driven through
   [Chip.prepare]/[offer]/[step]/[finish] (all allocation-free after
   [prepare]), the cluster's own scheduler is a second [Event_wheel]
   over chip ids, and steering is integer arithmetic over preallocated
   arrays.  Latency percentiles come from the chips' integer bucket
   tables, merged into the [Support.Metrics] "cluster.latency" histogram
   at [finish]. *)

open Support

type balancer =
  | Flow_hash (* 5-tuple hash modulo cluster size: flow affinity *)
  | Round_robin (* packet-level round robin: no affinity, even load *)

let balancer_to_string = function
  | Flow_hash -> "hash"
  | Round_robin -> "rr"

let balancer_of_string = function
  | "hash" -> Ok Flow_hash
  | "rr" | "round-robin" -> Ok Round_robin
  | s -> Error (Printf.sprintf "unknown balancer %S (expected hash|rr)" s)

type config = {
  chips : int;
  balancer : balancer;
  chip_config : Ixp.Chip.config;
  drop_budget : int;
      (* balancer drops tolerated per chip before it is marked unhealthy
         and steered around; 0 disables the breaker *)
  failover : bool;
      (* re-steer packets whose target chip is saturated to the healthy
         chip with the most headroom *)
}

let default_config =
  {
    chips = 2;
    balancer = Flow_hash;
    chip_config = Ixp.Chip.default_config;
    drop_budget = 0;
    failover = true;
  }

let no_event = Ixp.Event_wheel.no_event

type t = {
  config : config;
  chips : Ixp.Chip.t array;
  wheel : Ixp.Event_wheel.t; (* one event slot per chip *)
  mutable rr_next : int; (* round-robin steering cursor *)
  steered : int array; (* packets offered to each chip *)
  resteered : int array; (* packets failover moved off their target *)
  lb_dropped : int array; (* balancer drops, charged to the target *)
  unhealthy : bool array; (* drop budget exceeded: steered around *)
  mutable generated : int;
}

let create ?(config = default_config) program =
  if config.chips <= 0 then invalid_arg "Cluster.create: chips <= 0";
  {
    config;
    chips =
      Array.init config.chips (fun _ ->
          Ixp.Chip.create ~config:config.chip_config program);
    wheel = Ixp.Event_wheel.create config.chips;
    rr_next = 0;
    steered = Array.make config.chips 0;
    resteered = Array.make config.chips 0;
    lb_dropped = Array.make config.chips 0;
    unhealthy = Array.make config.chips false;
    generated = 0;
  }

let chip t c = t.chips.(c)
let iter_chips f t = Array.iter f t.chips

(* ------------------------------------------------------------------ *)
(* Steering                                                            *)
(* ------------------------------------------------------------------ *)

(* Natural target of a packet before health/saturation checks. *)
let natural_target t (v : Ixp.Pktgen.view) =
  match t.config.balancer with
  | Flow_hash -> v.Ixp.Pktgen.v_hash mod t.config.chips
  | Round_robin ->
      let c = t.rr_next in
      t.rr_next <- (c + 1) mod t.config.chips;
      c

(* Headroom of [c] for a packet on [port]: idle contexts plus free ring
   entries.  Deterministic, allocation-free. *)
let headroom t c ~port =
  Ixp.Chip.idle_contexts t.chips.(c) + Ixp.Chip.rx_room t.chips.(c) ~port

(* Healthy chip (excluding [avoid]) with the most headroom for [port];
   lowest id on ties; -1 when none has room. *)
let best_alternate t ~avoid ~port =
  let best = ref (-1) and best_room = ref 0 in
  for c = 0 to t.config.chips - 1 do
    if c <> avoid && not t.unhealthy.(c) then begin
      let room = headroom t c ~port in
      if room > !best_room then begin
        best := c;
        best_room := room
      end
    end
  done;
  !best

let charge_drop t c =
  t.lb_dropped.(c) <- t.lb_dropped.(c) + 1;
  if t.config.drop_budget > 0 && t.lb_dropped.(c) > t.config.drop_budget then
    t.unhealthy.(c) <- true

(* Steer one generated packet: returns the chip that accepted it, or -1
   for a balancer drop.  [offer] itself never drops at the chip level
   because room is checked first -- every cluster-mode drop is charged
   here, to the packet's natural target. *)
let steer t (v : Ixp.Pktgen.view) ~(deliver : Ixp.Chip.deliver) =
  t.generated <- t.generated + 1;
  let port = v.Ixp.Pktgen.v_port in
  let target = natural_target t v in
  let dest =
    if (not t.unhealthy.(target))
       && Ixp.Chip.has_room t.chips.(target) ~port
    then target
    else if t.config.failover then best_alternate t ~avoid:target ~port
    else -1
  in
  if dest < 0 then begin
    charge_drop t target;
    -1
  end
  else begin
    if dest <> target then t.resteered.(dest) <- t.resteered.(dest) + 1;
    t.steered.(dest) <- t.steered.(dest) + 1;
    Ixp.Chip.offer t.chips.(dest) ~deliver ~port v;
    dest
  end

(* ------------------------------------------------------------------ *)
(* Run loop                                                            *)
(* ------------------------------------------------------------------ *)

exception Cluster_stuck of string

let resched_chip t c =
  let nt = Ixp.Chip.next_time t.chips.(c) in
  if nt = no_event then Ixp.Event_wheel.cancel t.wheel c
  else Ixp.Event_wheel.schedule t.wheel c ~cycle:nt

let any_queued t =
  let q = ref false in
  for c = 0 to t.config.chips - 1 do
    if Ixp.Chip.rx_queued t.chips.(c) > 0 then q := true
  done;
  !q

(* Drain the whole generator through the cluster.  Chips must have been
   [prepare]d (see [run]); [fuel] bounds run-loop iterations. *)
let drive ?(fuel = 400_000_000) t ~(deliver : Ixp.Chip.deliver) gen =
  let v = Ixp.Pktgen.make_view () in
  let pending = ref (Ixp.Pktgen.next_into gen v) in
  let budget = ref fuel in
  while !pending || not (Ixp.Event_wheel.is_empty t.wheel) do
    decr budget;
    if !budget < 0 then raise (Cluster_stuck "cluster run: fuel exhausted");
    let t_step = Ixp.Event_wheel.next_time t.wheel in
    let t_arr = if !pending then v.Ixp.Pktgen.v_arrival else no_event in
    if t_arr <= t_step then begin
      (* arrivals win ties, as in the single-chip loop *)
      let dest = steer t v ~deliver in
      if dest >= 0 then resched_chip t dest;
      pending := Ixp.Pktgen.next_into gen v
    end
    else begin
      let c = Ixp.Event_wheel.pop t.wheel in
      Ixp.Chip.step t.chips.(c) ~deliver;
      resched_chip t c
    end
  done;
  if any_queued t then
    raise (Cluster_stuck "cluster run: queued packets with no runnable context")

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  rc_chips : int;
  rc_balancer : balancer;
  rc_clock_mhz : float;
  cycles : int; (* makespan: latest event across the cluster *)
  generated : int;
  completed : int;
  bytes_completed : int;
  lb_dropped : int array; (* balancer drops charged per chip *)
  steered : int array;
  resteered : int array;
  unhealthy : bool array;
  p50 : int; (* latency percentiles, cycles, bucket-quantized *)
  p90 : int;
  p99 : int;
  p999 : int;
  chip_reports : Ixp.Chip.report array;
}

let finish t =
  let chip_reports = Array.map Ixp.Chip.finish t.chips in
  let h = Metrics.histogram "cluster.latency" in
  Array.iter
    (fun (r : Ixp.Chip.report) ->
      Metrics.merge_buckets h r.Ixp.Chip.lat_buckets)
    chip_reports;
  let cycles =
    Array.fold_left
      (fun acc (r : Ixp.Chip.report) -> max acc r.Ixp.Chip.cycles)
      0 chip_reports
  in
  let sum f =
    Array.fold_left (fun acc r -> acc + f r) 0 chip_reports
  in
  Metrics.set (Metrics.gauge "cluster.completed")
    (float_of_int (sum (fun r -> r.Ixp.Chip.completed)));
  Metrics.set (Metrics.gauge "cluster.lb_dropped")
    (float_of_int (Array.fold_left ( + ) 0 t.lb_dropped));
  {
    rc_chips = t.config.chips;
    rc_balancer = t.config.balancer;
    rc_clock_mhz = t.config.chip_config.Ixp.Chip.clock_mhz;
    cycles;
    generated = t.generated;
    completed = sum (fun r -> r.Ixp.Chip.completed);
    bytes_completed = sum (fun r -> r.Ixp.Chip.bytes_completed);
    lb_dropped = Array.copy t.lb_dropped;
    steered = Array.copy t.steered;
    resteered = Array.copy t.resteered;
    unhealthy = Array.copy t.unhealthy;
    p50 = Metrics.percentile h 0.50;
    p90 = Metrics.percentile h 0.90;
    p99 = Metrics.percentile h 0.99;
    p999 = Metrics.percentile h 0.999;
    chip_reports;
  }

(* One-call convenience: size every chip for the generator's ports and
   an even share of its packets, drive, report.  The "cluster.latency"
   histogram is reset first so [finish]'s percentiles describe exactly
   this run. *)
let run ?(deliver = Ixp.Chip.default_deliver) ?fuel t gen =
  let ports = gen.Ixp.Pktgen.config.Ixp.Pktgen.ports in
  let count = gen.Ixp.Pktgen.config.Ixp.Pktgen.count in
  let expected = (count / t.config.chips * 2) + 1024 in
  Array.iter (fun c -> Ixp.Chip.prepare c ~ports ~expected) t.chips;
  Ixp.Event_wheel.clear t.wheel;
  let h = Metrics.histogram "cluster.latency" in
  Array.fill h.Metrics.h_buckets 0 Metrics.bucket_count 0;
  h.Metrics.h_count <- 0;
  h.Metrics.h_sum <- 0.;
  t.rr_next <- 0;
  t.generated <- 0;
  Array.fill t.steered 0 t.config.chips 0;
  Array.fill t.resteered 0 t.config.chips 0;
  Array.fill t.lb_dropped 0 t.config.chips 0;
  Array.fill t.unhealthy 0 t.config.chips false;
  drive ?fuel t ~deliver gen;
  finish t

(* ------------------------------------------------------------------ *)
(* Report derivations                                                  *)
(* ------------------------------------------------------------------ *)

let seconds r = float_of_int r.cycles /. (r.rc_clock_mhz *. 1e6)

let achieved_mpps r =
  if r.cycles = 0 then 0. else float_of_int r.completed /. seconds r /. 1e6

let achieved_mbps r =
  if r.cycles = 0 then 0.
  else float_of_int (r.bytes_completed * 8) /. seconds r /. 1e6

let dropped r = Array.fold_left ( + ) 0 r.lb_dropped

let drop_rate r =
  if r.generated = 0 then 0.
  else float_of_int (dropped r) /. float_of_int r.generated

let pp_report ppf r =
  Fmt.pf ppf "cluster: %d chips, %s balancer@." r.rc_chips
    (balancer_to_string r.rc_balancer);
  Fmt.pf ppf "cycles: %d (%.2f us at %.0f MHz)@." r.cycles
    (seconds r *. 1e6) r.rc_clock_mhz;
  Fmt.pf ppf "packets: %d generated, %d completed, %d dropped (%.1f%%)@."
    r.generated r.completed (dropped r)
    (100. *. drop_rate r);
  Fmt.pf ppf "achieved: %.3f Mpps, %.1f Mbit/s payload@." (achieved_mpps r)
    (achieved_mbps r);
  Fmt.pf ppf "latency cycles: p50 %d, p90 %d, p99 %d, p99.9 %d@." r.p50 r.p90
    r.p99 r.p999;
  Array.iteri
    (fun c (cr : Ixp.Chip.report) ->
      Fmt.pf ppf
        "chip %d: %d steered (%d re-steered), %d completed, %d dropped%s@." c
        r.steered.(c) r.resteered.(c) cr.Ixp.Chip.completed r.lb_dropped.(c)
        (if r.unhealthy.(c) then " [unhealthy]" else ""))
    r.chip_reports
