(* Synthetic traffic generator for the chip- and cluster-level
   simulations.

   Replaces the hardware packet generator of the paper's evaluation
   (§12): a seeded, fully deterministic source of packets with
   configurable traffic profiles.  Given the same configuration and seed
   it produces a bit-identical packet trace, which is what makes the
   chip-level throughput numbers reproducible.

   Generation is flow-level, not just packet-level: every packet belongs
   to a flow with a stable 5-tuple hash, drawn from a seeded population
   whose skew depends on the profile (Zipf user populations, elephant
   flows, spoofed SYN-flood sources).  The cluster load balancer hashes
   on that 5-tuple for flow affinity, so the profiles below are the
   adversarial inputs the balancer is judged against.

   Offered load is expressed in packets per microsecond against the
   micro-engine clock; arrivals are scheduled in whole cycles with the
   fractional residue carried in 16.16 fixed point (integer arithmetic
   only -- the hot path allocates nothing).  [offered_mpps <= 0] means
   saturation: every packet arrives at cycle 0 (back-to-back line rate,
   limited only by the chip).

   The zero-allocation interface is [next_into]: it refills a
   caller-owned [view] whose payload buffer is preallocated at
   [max_payload_words].  [next]/[trace] are compatibility wrappers that
   materialize fresh [packet] records. *)

type profile =
  | Fixed of int (* every payload has this many bytes *)
  | Imix (* classic 7:4:1 mix of small/medium/large payloads *)
  | Bursty of { size : int; burst : int }
      (* [burst] back-to-back packets, then a gap sized to keep the
         configured average offered load *)
  | Flows of { users : int; alpha_pct : int; size : int }
      (* Zipf-distributed user population: user i+1 is weighted
         1/(i+1)^(alpha_pct/100); one flow per user *)
  | Elephants of { flows : int; heavy : int; heavy_pct : int; size : int }
      (* [heavy] elephant flows carry [heavy_pct]%% of all packets; the
         remaining mice share the rest evenly *)
  | Syn_flood of { size : int }
      (* DDoS: minimum-size packets, every one from a fresh spoofed
         source, so no two packets share a flow -- zero cache/affinity
         reuse for the balancer *)
  | Flash_crowd of { size : int; ramp : int }
      (* arrival rate ramps from 1/4x to 4x the configured offered load
         over the first [ramp] packets: a crowd piling onto a service *)
  | Imix_path
      (* pathological IMIX: groups of 11 minimum-size packets plus one
         maximum-size packet arriving back-to-back, then a gap keeping
         the configured average load -- worst case for RX rings *)

let profile_to_string = function
  | Fixed n -> Printf.sprintf "fixed:%d" n
  | Imix -> "imix"
  | Bursty { size; burst } -> Printf.sprintf "burst:%d:%d" size burst
  | Flows { users; alpha_pct; size } ->
      Printf.sprintf "flows:%d:%d:%d" users alpha_pct size
  | Elephants { flows = 512; heavy = 4; heavy_pct = 80; size = 576 } ->
      "elephants"
  | Elephants { flows; heavy; heavy_pct; size } ->
      Printf.sprintf "elephants:%d:%d:%d:%d" flows heavy heavy_pct size
  | Syn_flood { size = 40 } -> "flood"
  | Syn_flood { size } -> Printf.sprintf "flood:%d" size
  | Flash_crowd { size = 64; ramp } -> Printf.sprintf "flash:%d" ramp
  | Flash_crowd { size; ramp } -> Printf.sprintf "flash:%d:%d" ramp size
  | Imix_path -> "imix-path"

(* "fixed:64" | "imix" | "burst:64:8" | "flows:1000:120:64" | "elephants"
   | "elephants:512:4:80:576" | "flood" | "flood:64" | "flash:5000"
   | "flash:5000:128" | "imix-path" *)
let profile_of_string s =
  let pos_int n = match int_of_string_opt n with
    | Some n when n > 0 -> Some n
    | _ -> None
  in
  match String.split_on_char ':' s with
  | [ "imix" ] -> Ok Imix
  | [ "imix-path" ] -> Ok Imix_path
  | [ "flood" ] -> Ok (Syn_flood { size = 40 })
  | [ "flood"; n ] -> (
      match pos_int n with
      | Some size -> Ok (Syn_flood { size })
      | None -> Error (Printf.sprintf "bad flood size in %S" s))
  | [ "elephants" ] ->
      Ok (Elephants { flows = 512; heavy = 4; heavy_pct = 80; size = 576 })
  | [ "elephants"; f; h; p; n ] -> (
      match (pos_int f, pos_int h, int_of_string_opt p, pos_int n) with
      | Some flows, Some heavy, Some heavy_pct, Some size
        when heavy < flows && heavy_pct > 0 && heavy_pct < 100 ->
          Ok (Elephants { flows; heavy; heavy_pct; size })
      | _ -> Error (Printf.sprintf "bad elephants profile %S" s))
  | [ "flows"; u; a; n ] -> (
      match (pos_int u, int_of_string_opt a, pos_int n) with
      | Some users, Some alpha_pct, Some size when alpha_pct >= 0 ->
          Ok (Flows { users; alpha_pct; size })
      | _ -> Error (Printf.sprintf "bad flows profile %S" s))
  | [ "flash"; r ] -> (
      match pos_int r with
      | Some ramp -> Ok (Flash_crowd { size = 64; ramp })
      | None -> Error (Printf.sprintf "bad flash ramp in %S" s))
  | [ "flash"; r; n ] -> (
      match (pos_int r, pos_int n) with
      | Some ramp, Some size -> Ok (Flash_crowd { size; ramp })
      | _ -> Error (Printf.sprintf "bad flash profile %S" s))
  | [ "fixed"; n ] -> (
      match pos_int n with
      | Some n -> Ok (Fixed n)
      | None -> Error (Printf.sprintf "bad fixed size in %S" s))
  | [ "burst"; n; b ] -> (
      match (pos_int n, pos_int b) with
      | Some n, Some b -> Ok (Bursty { size = n; burst = b })
      | _ -> Error (Printf.sprintf "bad burst profile %S" s))
  | _ -> Error (Printf.sprintf "unknown traffic profile %S" s)

type config = {
  profile : profile;
  offered_mpps : float; (* packets per microsecond; <= 0 = saturation *)
  clock_mhz : float;
  seed : int;
  count : int; (* total packets to generate *)
  ports : int; (* round-robin across input ports *)
  size_align : int; (* round payload sizes up to this multiple *)
}

let default_config =
  {
    profile = Fixed 64;
    offered_mpps = 1.0;
    clock_mhz = 233.0;
    seed = 1;
    count = 64;
    ports = 1;
    size_align = 4;
  }

(* Largest payload any profile emits: a 1504-byte IMIX frame. *)
let max_payload_bytes = 1504
let max_payload_words = max_payload_bytes / 4

type packet = {
  seq : int;
  port : int;
  arrival : int; (* cycle at which the packet hits the receive ring *)
  size : int; (* payload bytes *)
  flow : int; (* flow identity (stable per flow; fresh per SYN) *)
  hash : int; (* 5-tuple hash of the flow, for balancer steering *)
  payload : int array; (* size/4 words of seeded content *)
}

(* Caller-owned refillable packet: the zero-allocation interface. *)
type view = {
  mutable v_seq : int;
  mutable v_port : int;
  mutable v_arrival : int;
  mutable v_size : int;
  mutable v_words : int; (* valid prefix of [v_payload] *)
  mutable v_flow : int;
  mutable v_hash : int;
  v_payload : int array; (* length [max_payload_words] *)
}

let make_view () =
  {
    v_seq = -1;
    v_port = 0;
    v_arrival = 0;
    v_size = 0;
    v_words = 0;
    v_flow = 0;
    v_hash = 0;
    v_payload = Array.make max_payload_words 0;
  }

type t = {
  config : config;
  mutable state : int; (* PRNG state *)
  mutable emitted : int;
  mutable next_arrival_fp : int; (* 16.16 fixed-point cycle accumulator *)
  gap_fp : int; (* mean inter-arrival gap, 16.16 fixed point *)
  (* flow population (empty for per-packet spoofed sources) *)
  flow_cum : int array; (* cumulative weights scaled to [cum_scale] *)
  flow_hash : int array; (* per-flow 5-tuple hash *)
}

(* xorshift-style 32-bit PRNG over masked OCaml ints; identical on every
   platform, no dependence on the global Random state. *)
let mask = 0xFFFFFFFF

let[@inline] prng_step x =
  let x = x lxor (x lsl 13) land mask in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) land mask in
  if x = 0 then 0x9E3779B9 else x

let prng_next g =
  let x = prng_step g.state in
  g.state <- x;
  x

(* Deterministic avalanche mix: flow id -> 5-tuple hash.  Stands in for
   hashing (src ip, dst ip, src port, dst port, proto); the flow id is
   the identity of that tuple. *)
let mix32 v =
  let v = v land mask in
  let v = v * 0x9E3779B1 land mask in
  let v = v lxor (v lsr 15) in
  let v = v * 0x85EBCA77 land mask in
  v lxor (v lsr 13) land mask

let fp = 1 lsl 16
let cum_scale = 1 lsl 30

(* Mean inter-arrival gap in cycles for the configured offered load. *)
let interarrival_cycles config =
  if config.offered_mpps <= 0. then 0.
  else config.clock_mhz /. config.offered_mpps

(* Scale per-flow weights to a cumulative table summing to [cum_scale]. *)
let cumulate weights =
  let total = Array.fold_left ( +. ) 0. weights in
  let n = Array.length weights in
  let cum = Array.make n 0 in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. weights.(i);
    cum.(i) <- int_of_float (!acc /. total *. float_of_int cum_scale)
  done;
  cum.(n - 1) <- cum_scale;
  cum

let flow_population ~seed = function
  | Flows { users; alpha_pct; _ } ->
      let alpha = float_of_int alpha_pct /. 100. in
      Array.init users (fun i ->
          1. /. (float_of_int (i + 1) ** alpha))
  | Elephants { flows; heavy; heavy_pct; _ } ->
      let hv = float_of_int heavy_pct /. float_of_int heavy in
      let mice = flows - heavy in
      let mv = float_of_int (100 - heavy_pct) /. float_of_int (max 1 mice) in
      Array.init flows (fun i -> if i < heavy then hv else mv)
  | Fixed _ | Imix | Bursty _ | Flash_crowd _ | Imix_path ->
      (* packet-level profiles still carry flow identity so the hash
         balancer has something to steer on: a modest uniform
         population, seeded per generator *)
      ignore seed;
      Array.make 256 1.
  | Syn_flood _ -> [||] (* spoofed: a fresh flow per packet *)

let create config =
  let weights = flow_population ~seed:config.seed config.profile in
  let n = Array.length weights in
  (* flow hashes are drawn from an independent PRNG stream so the
     per-packet draw sequence does not depend on the population size *)
  let hseed = ref ((config.seed * 0x85EBCA77 land mask) lor 1) in
  let flow_hash =
    Array.init n (fun i ->
        hseed := prng_step !hseed;
        mix32 (!hseed lxor i))
  in
  {
    config;
    (* avoid the all-zero fixed point; fold the seed through one round *)
    state = (config.seed * 0x9E3779B1 land mask) lor 1;
    emitted = 0;
    next_arrival_fp = 0;
    gap_fp =
      (if config.offered_mpps <= 0. then 0
       else int_of_float (interarrival_cycles config *. float_of_int fp));
    flow_cum = (if n = 0 then [||] else cumulate weights);
    flow_hash;
  }

let round_up n align = if align <= 1 then n else (n + align - 1) / align * align

(* IMIX in the classic 7:4:1 proportions, scaled to payload sizes that
   every workload accepts (the real mix is 40/576/1500-byte frames). *)
let imix_size g =
  let r = prng_next g mod 12 in
  if r < 7 then 64 else if r < 11 then 576 else 1504

(* group size of the pathological IMIX burst: 11 mice + 1 elephant *)
let imix_path_group = 12

let size_of g =
  let c = g.config in
  let raw =
    match c.profile with
    | Fixed n -> n
    | Bursty { size; _ } -> size
    | Imix -> imix_size g
    | Flows { size; _ } -> size
    | Elephants { size; _ } -> size
    | Syn_flood { size } -> size
    | Flash_crowd { size; _ } -> size
    | Imix_path -> if g.emitted mod imix_path_group = 0 then 1504 else 40
  in
  min max_payload_bytes (round_up raw c.size_align)

(* Sample a flow for the next packet: binary search of the cumulative
   weight table (no allocation). *)
let flow_of g =
  match g.config.profile with
  | Syn_flood _ ->
      (* every packet spoofs a fresh source *)
      prng_next g
  | _ ->
      let r = prng_next g land (cum_scale - 1) in
      let lo = ref 0 and hi = ref (Array.length g.flow_cum - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if g.flow_cum.(mid) > r then hi := mid else lo := mid + 1
      done;
      !lo

let arrival_of g =
  let c = g.config in
  let gap = g.gap_fp in
  match c.profile with
  | Fixed _ | Imix | Flows _ | Elephants _ | Syn_flood _ ->
      let a = g.next_arrival_fp in
      g.next_arrival_fp <- a + gap;
      a / fp
  | Flash_crowd { ramp; _ } ->
      (* inter-arrival gap shrinks linearly from 4x to 1/4x the mean
         over the first [ramp] packets: the crowd arriving *)
      let a = g.next_arrival_fp in
      let e = min g.emitted ramp in
      let f16 = 64 - (60 * e / ramp) in
      g.next_arrival_fp <- a + (gap * f16 / 16);
      a / fp
  | Bursty { burst; _ } ->
      (* packets inside a burst are back-to-back; the burst boundary
         jumps ahead to keep the long-run average at the offered load *)
      let a = g.next_arrival_fp in
      if (g.emitted + 1) mod burst = 0 then
        g.next_arrival_fp <- a + (gap * burst)
      else g.next_arrival_fp <- a;
      a / fp
  | Imix_path ->
      let a = g.next_arrival_fp in
      if (g.emitted + 1) mod imix_path_group = 0 then
        g.next_arrival_fp <- a + (gap * imix_path_group)
      else g.next_arrival_fp <- a;
      a / fp

(* Refill [v] with the next packet; false when the trace is exhausted.
   Allocation-free: every field is mutated in place and the payload goes
   into the view's preallocated buffer. *)
let next_into g v =
  if g.emitted >= g.config.count then false
  else begin
    let seq = g.emitted in
    let size = size_of g in
    let flow = flow_of g in
    let arrival = arrival_of g in
    let words = (size + 3) / 4 in
    (* the PRNG state stays in a register while the payload fills *)
    let x = ref g.state and payload = v.v_payload in
    for k = 0 to words - 1 do
      x := prng_step !x;
      payload.(k) <- !x
    done;
    g.state <- !x;
    g.emitted <- g.emitted + 1;
    v.v_seq <- seq;
    v.v_port <- seq mod g.config.ports;
    v.v_arrival <- arrival;
    v.v_size <- size;
    v.v_words <- words;
    v.v_flow <- flow;
    v.v_hash <-
      (match g.config.profile with
      | Syn_flood _ -> mix32 flow
      | _ -> g.flow_hash.(flow));
    true
  end

(* Compatibility wrapper: materialize the next packet as a record. *)
let scratch = make_view ()

let next g =
  if next_into g scratch then
    Some
      {
        seq = scratch.v_seq;
        port = scratch.v_port;
        arrival = scratch.v_arrival;
        size = scratch.v_size;
        flow = scratch.v_flow;
        hash = scratch.v_hash;
        payload = Array.sub scratch.v_payload 0 scratch.v_words;
      }
  else None

(* Materialize the whole trace (determinism tests, offline inspection). *)
let trace config =
  let g = create config in
  let rec go acc =
    match next g with None -> List.rev acc | Some p -> go (p :: acc)
  in
  go []

let pp_packet ppf p =
  Fmt.pf ppf "#%d port%d @%d %dB flow%d" p.seq p.port p.arrival p.size p.flow
