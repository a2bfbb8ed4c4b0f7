(* Process-wide metrics registry: named counters, gauges and histograms
   with a text dump.

   Unlike [Trace], which records a timeline, this module accumulates
   totals; the two answer different questions ("when did the time go" vs
   "how many times did X happen").  Lookup by name goes through a
   hashtable, so hot paths should resolve their instrument once (at
   module initialization or at the top of a solve) and then bump the
   returned record directly.  [reset] zeroes every registered instrument
   in place, keeping previously resolved handles valid.

   Domain-safety: in `bench` and `perfbench` the compile daemon runs on
   its own OCaml 5 domain beside the client, and both bump counters
   (node counts, cache hits) concurrently.  Counters and gauges are
   therefore [Atomic.t] cells -- an increment stays a single lock-free
   RMW -- and
   the registry hashtable plus the multi-word histogram updates are
   guarded by one module mutex.  Registration is cold (handles are
   resolved once), and histograms are fed either from single-domain
   simulation loops or via [merge_buckets] at the end of a run, so the
   lock is uncontended in practice. *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t }

(* ------------------------------------------------------------------ *)
(* Histogram buckets                                                   *)
(* ------------------------------------------------------------------ *)

(* HDR-style bucket table over non-negative integers: values 0..63 get
   one bucket each (exact), and every power-of-two range above that is
   split into 32 sub-buckets, so the relative quantization error beyond
   63 is at most 1/32 (~3.1%).  Percentile extraction walks the table by
   exact rank, which is what the chip/cluster simulations use for
   p99/p999 tail latency: observation is a pair of int increments (no
   allocation), and the table is small enough (1888 ints) to preallocate
   per histogram.

   The same bucket mapping is exposed standalone ([bucket_index],
   [bucket_value], [bucket_count]) so hot loops that cannot afford even
   a float box can accumulate into their own [int array] and merge it
   into a registered histogram afterwards ([merge_buckets]). *)

let sub_bits = 5
let subs = 1 lsl sub_bits (* sub-buckets per power-of-two range *)
let linear = 2 * subs (* values below this are their own bucket *)
let bucket_count = linear + ((62 - sub_bits - 1) * subs)

(* index of the highest set bit; [v] must be > 0 *)
let msb v =
  let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
  go v 0

let bucket_index v =
  if v < linear then if v < 0 then 0 else v
  else
    let h = msb v in
    let h = min h 61 in
    let sub = (v lsr (h - sub_bits)) land (subs - 1) in
    linear + (((h - sub_bits - 1) * subs) + sub)

(* lower bound of bucket [i]: the smallest value mapping to it *)
let bucket_value i =
  if i < linear then i
  else
    let r = i - linear in
    let h = sub_bits + 1 + (r / subs) in
    let sub = r mod subs in
    (subs + sub) lsl (h - sub_bits)

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as another kind" name)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> c
      | Some _ -> kind_clash name
      | None ->
          let c = { c_name = name; c_value = Atomic.make 0 } in
          Hashtbl.replace registry name (Counter c);
          c)

let incr c = Atomic.incr c.c_value
let add c n = ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge g) -> g
      | Some _ -> kind_clash name
      | None ->
          let g = { g_name = name; g_value = Atomic.make 0. } in
          Hashtbl.replace registry name (Gauge g);
          g)

let set g v = Atomic.set g.g_value v
let gauge_value g = Atomic.get g.g_value

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histogram h) -> h
      | Some _ -> kind_clash name
      | None ->
          let h =
            { h_name = name; h_count = 0; h_sum = 0.; h_min = infinity;
              h_max = neg_infinity; h_buckets = Array.make bucket_count 0 }
          in
          Hashtbl.replace registry name (Histogram h);
          h)

let observe h v =
  locked (fun () ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let i = bucket_index (int_of_float v) in
      h.h_buckets.(i) <- h.h_buckets.(i) + 1)

(* Fold an externally accumulated bucket table (same [bucket_index]
   mapping) into [h].  sum/min/max are reconstructed from the bucket
   lower bounds, i.e. exact below [linear] and within the bucket
   quantization above it. *)
let merge_buckets h (buckets : int array) =
  locked (fun () ->
      let n = min (Array.length buckets) bucket_count in
      for i = 0 to n - 1 do
        let c = buckets.(i) in
        if c > 0 then begin
          let v = float_of_int (bucket_value i) in
          h.h_buckets.(i) <- h.h_buckets.(i) + c;
          h.h_count <- h.h_count + c;
          h.h_sum <- h.h_sum +. (v *. float_of_int c);
          if v < h.h_min then h.h_min <- v;
          if v > h.h_max then h.h_max <- v
        end
      done)

let histogram_count h = h.h_count

(* Nearest-rank percentile from the bucket table: the value reported is
   the lower bound of the bucket holding the rank-th smallest
   observation (exact for integer observations below [linear], within
   ~3.1%% above).  [q] in [0,1]; 0 observations yield 0. *)
let percentile h q =
  if h.h_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
      max 1 (min h.h_count r)
    in
    let acc = ref 0 and i = ref 0 and res = ref 0 in
    (try
       while true do
         acc := !acc + h.h_buckets.(!i);
         if !acc >= rank then begin
           res := bucket_value !i;
           raise Exit
         end;
         i := !i + 1
       done
     with Exit -> ());
    !res
  end

(* Exact count of observations whose bucket lower bound is >= [v];
   exact when [v] is a bucket boundary (any integer < [linear]). *)
let tail_count h v =
  let from = bucket_index v in
  let acc = ref 0 in
  for i = from to bucket_count - 1 do
    acc := !acc + h.h_buckets.(i)
  done;
  !acc

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ instrument ->
          match instrument with
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value 0.
          | Histogram h ->
              h.h_count <- 0;
              h.h_sum <- 0.;
              h.h_min <- infinity;
              h.h_max <- neg_infinity;
              Array.fill h.h_buckets 0 bucket_count 0)
        registry)

(* Every registered instrument as one text line, sorted by name:
     counter   lp.bb.nodes 128
     gauge     chip.bus.sram.stall 42
     histogram span.solve count=3 sum=1.2 min=0.1 max=0.8 *)
let dump () =
  let lines =
    locked (fun () ->
        Hashtbl.fold
          (fun name instrument acc ->
            let line =
              match instrument with
              | Counter c ->
                  Printf.sprintf "counter   %s %d" name (Atomic.get c.c_value)
              | Gauge g ->
                  Printf.sprintf "gauge     %s %g" name (Atomic.get g.g_value)
              | Histogram h ->
                  if h.h_count = 0 then
                    Printf.sprintf "histogram %s count=0" name
                  else
                    Printf.sprintf
                      "histogram %s count=%d sum=%g min=%g max=%g mean=%g" name
                      h.h_count h.h_sum h.h_min h.h_max
                      (h.h_sum /. float_of_int h.h_count)
            in
            line :: acc)
          registry [])
  in
  String.concat "\n" (List.sort String.compare lines)
