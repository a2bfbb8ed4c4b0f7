(* Memory system model for the simulated IXP1200.

   Three word-addressed spaces with the alignment rules the paper
   describes (§1.1): SDRAM transfers move 8-byte (2-word) aligned units,
   SRAM transfers 4-byte (1-word) aligned units; scratch behaves like
   SRAM.  All values are 32-bit words stored as masked OCaml ints.

   Latencies are unloaded approximations of IXP1200 figures and are
   configurable; the throughput benchmarks only depend on their relative
   magnitudes (SDRAM > SRAM > scratch >> ALU). *)

let word_mask = 0xFFFFFFFF

type config = {
  sram_words : int;
  sdram_words : int;
  scratch_words : int;
  sram_latency : int;
  sdram_latency : int;
  scratch_latency : int;
  hash_latency : int;
  fifo_latency : int;
}

let default_config =
  {
    sram_words = 64 * 1024;
    sdram_words = 256 * 1024;
    scratch_words = 1024;
    sram_latency = 18;
    sdram_latency = 33;
    scratch_latency = 12;
    hash_latency = 14;
    fifo_latency = 10;
  }

(* A space's image is a table of fixed-size pages.  Every page starts as
   the one shared [zero_page], which is never written; the first write
   to a page gives it a private copy.  So a context's 256 K-word SDRAM
   buffer, of which a kernel touches a few hundred words, and the SRAM
   and scratch of its image, which a chip engine never uses (it shares
   the chip's), cost a page table each until written. *)

let page_bits = 10
let page_words = 1 lsl page_bits
let page_mask = page_words - 1
let zero_page = Array.make page_words 0

type image = { words : int; pages : int array array }

let image words =
  { words; pages = Array.make ((words + page_mask) lsr page_bits) zero_page }

(* Unchecked accessors: [w] must lie in [0, words). *)
let load img w =
  let p = Array.unsafe_get img.pages (w lsr page_bits) in
  Array.unsafe_get p (w land page_mask)

let store img w v =
  let p = Array.unsafe_get img.pages (w lsr page_bits) in
  let p =
    if p != zero_page then p
    else begin
      let fresh = Array.make page_words 0 in
      Array.unsafe_set img.pages (w lsr page_bits) fresh;
      fresh
    end
  in
  Array.unsafe_set p (w land page_mask) v

let in_bounds img w =
  if w < 0 || w >= img.words then invalid_arg "index out of bounds"

type t = {
  config : config;
  sram : image;
  sdram : image;
  scratch : image;
  (* Spill area lives at the top of scratch; slots grow downward. *)
  mutable spill_base : int;
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let create ?(config = default_config) () =
  {
    config;
    sram = image config.sram_words;
    sdram = image config.sdram_words;
    scratch = image config.scratch_words;
    spill_base = config.scratch_words - 64;
  }

let space_image t = function
  | Insn.Sram -> t.sram
  | Insn.Sdram -> t.sdram
  | Insn.Scratch -> t.scratch

let latency t = function
  | Insn.Sram -> t.config.sram_latency
  | Insn.Sdram -> t.config.sdram_latency
  | Insn.Scratch -> t.config.scratch_latency

(* Byte address -> word index, enforcing the alignment rule of the
   space.  SDRAM additionally requires the *transfer* to start at an
   8-byte boundary. *)
let word_index t space byte_addr ~count =
  let align = match space with Insn.Sdram -> 8 | _ -> 4 in
  if byte_addr mod align <> 0 then
    fault "%s access at 0x%x violates %d-byte alignment"
      (Insn.space_to_string space) byte_addr align;
  if not (Insn.legal_aggregate space count) then
    fault "illegal %s aggregate size %d" (Insn.space_to_string space) count;
  let idx = byte_addr / 4 in
  if idx < 0 || idx + count > (space_image t space).words then
    fault "%s access at 0x%x (+%d words) out of range"
      (Insn.space_to_string space) byte_addr count;
  idx

let read t space byte_addr ~count =
  let idx = word_index t space byte_addr ~count in
  let img = space_image t space in
  Array.init count (fun k -> load img (idx + k))

(* Allocation-free transfer variants: the caller owns the buffer (the
   simulator keeps one per thread), so the hot loop moves words without
   materializing a fresh array per memory reference. *)
let read_into t space byte_addr ~count ~dst =
  let idx = word_index t space byte_addr ~count in
  let img = space_image t space in
  for k = 0 to count - 1 do
    Array.unsafe_set dst k (load img (idx + k))
  done

let write_from t space byte_addr ~count ~src =
  let idx = word_index t space byte_addr ~count in
  let img = space_image t space in
  for k = 0 to count - 1 do
    store img (idx + k) (Array.unsafe_get src k land word_mask)
  done

let write t space byte_addr values =
  let count = Array.length values in
  let idx = word_index t space byte_addr ~count in
  let img = space_image t space in
  Array.iteri (fun k v -> store img (idx + k) (v land word_mask)) values

(* Word-granular accessors used by test harnesses and loaders. *)
let peek t space word =
  let img = space_image t space in
  in_bounds img word;
  load img word

let poke t space word v =
  let img = space_image t space in
  in_bounds img word;
  store img word (v land word_mask)

(* Store the first [len] words of [values] from word [word_offset] on,
   with one bounds check for the whole range. *)
let load_prefix t space ~word_offset values ~len =
  let img = space_image t space in
  if
    len < 0
    || len > Array.length values
    || (len > 0 && (word_offset < 0 || word_offset + len > img.words))
  then invalid_arg "index out of bounds";
  for k = 0 to len - 1 do
    store img (word_offset + k) (Array.unsafe_get values k land word_mask)
  done

let load_words t space ~word_offset values =
  load_prefix t space ~word_offset values ~len:(Array.length values)

(* bit_test_set: atomically OR [v] into SRAM at [byte_addr], returning
   the previous value. *)
let bit_test_set t byte_addr v =
  let idx = word_index t Insn.Sram byte_addr ~count:1 in
  let old = load t.sram idx in
  store t.sram idx ((old lor v) land word_mask);
  old

(* Deterministic stand-in for the IXP hash unit (a polynomial hash over
   48/64-bit quantities on real hardware). *)
let hash v =
  let v = v land word_mask in
  let v = v * 0x9E3779B1 land word_mask in
  let v = v lxor (v lsr 15) in
  let v = v * 0x85EBCA77 land word_mask in
  v lxor (v lsr 13) land word_mask

(* Spill slots (scratch-resident).  The allocator asks for a slot index;
   the simulator maps it into the reserved area. *)
let spill_addr t slot =
  let w = t.spill_base + slot in
  if w >= t.config.scratch_words then fault "spill slot %d out of range" slot;
  w

let spill_store t slot v = poke t Insn.Scratch (spill_addr t slot) v
let spill_load t slot = peek t Insn.Scratch (spill_addr t slot)

(* ------------------------------------------------------------------ *)
(* Memory-bus arbiter                                                  *)
(* ------------------------------------------------------------------ *)

(* The IXP1200's micro-engines share the SRAM, SDRAM and scratchpad
   units through a common command bus; under load, requests queue at the
   unit and the requester sees the queueing delay on top of the unloaded
   latency.  We model each unit as a single-server channel: a request
   issued at [now] starts service at [max now free_at], occupies the
   unit for [occupancy] cycles (the unit's initiation interval, smaller
   than the full latency because the units are pipelined), and completes
   [latency] cycles after service starts.  The single-engine simulator
   runs without a bus and sees only the unloaded latencies; the chip
   model layers one bus over all engines. *)

type channel = {
  occupancy : int; (* cycles between back-to-back request starts *)
  mutable free_at : int; (* cycle at which the unit can start a request *)
  mutable requests : int;
  mutable busy_cycles : int;
  mutable stall_cycles : int; (* total queueing delay dealt to requesters *)
}

type bus = {
  sram_chan : channel;
  sdram_chan : channel;
  scratch_chan : channel;
  fifo_chan : channel; (* receive/transmit FIFO bus *)
}

let channel_create occupancy =
  { occupancy; free_at = 0; requests = 0; busy_cycles = 0; stall_cycles = 0 }

(* Default initiation intervals, roughly latency/4: the units are
   pipelined but an aggregate transfer holds the data bus for several
   cycles. *)
let bus_create ?(sram_occupancy = 5) ?(sdram_occupancy = 8)
    ?(scratch_occupancy = 3) ?(fifo_occupancy = 3) () =
  {
    sram_chan = channel_create sram_occupancy;
    sdram_chan = channel_create sdram_occupancy;
    scratch_chan = channel_create scratch_occupancy;
    fifo_chan = channel_create fifo_occupancy;
  }

let bus_channel bus = function
  | Insn.Sram -> bus.sram_chan
  | Insn.Sdram -> bus.sdram_chan
  | Insn.Scratch -> bus.scratch_chan

(* Issue a request on [chan] at cycle [now] with unloaded latency
   [latency]; returns the effective latency including any queueing
   stall.  Deterministic: depends only on the arrival order of
   requests. *)
let channel_request chan ~now ~latency =
  let start = if now > chan.free_at then now else chan.free_at in
  let stall = start - now in
  chan.free_at <- start + chan.occupancy;
  chan.requests <- chan.requests + 1;
  chan.busy_cycles <- chan.busy_cycles + chan.occupancy;
  chan.stall_cycles <- chan.stall_cycles + stall;
  stall + latency

let bus_request bus space ~now ~latency =
  channel_request (bus_channel bus space) ~now ~latency

type channel_stats = { chan_requests : int; chan_busy : int; chan_stall : int }

let channel_stats c =
  {
    chan_requests = c.requests;
    chan_busy = c.busy_cycles;
    chan_stall = c.stall_cycles;
  }

let bus_stats bus =
  [
    ("sram", channel_stats bus.sram_chan);
    ("sdram", channel_stats bus.sdram_chan);
    ("scratch", channel_stats bus.scratch_chan);
    ("fifo", channel_stats bus.fifo_chan);
  ]
