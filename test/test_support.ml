(* Tests for the support library: idents, union-find, vec. *)

open Support

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_ident_freshness () =
  let a = Ident.fresh "x" and b = Ident.fresh "x" in
  checkb "distinct stamps" false (Ident.equal a b);
  checkb "same base" true (Ident.base a = Ident.base b);
  let c = Ident.clone a in
  checkb "clone distinct" false (Ident.equal a c)

let test_ident_collections () =
  let xs = List.init 100 (fun i -> Ident.fresh (Printf.sprintf "v%d" i)) in
  let set = Ident.Set.of_list xs in
  checki "set size" 100 (Ident.Set.cardinal set);
  let map =
    List.fold_left (fun m (i, x) -> Ident.Map.add x i m) Ident.Map.empty
      (List.mapi (fun i x -> (i, x)) xs)
  in
  checki "map lookup" 42 (Ident.Map.find (List.nth xs 42) map)

let test_union_find () =
  let uf = Union_find.create 10 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 5 6);
  checkb "0~2" true (Union_find.equiv uf 0 2);
  checkb "5~6" true (Union_find.equiv uf 5 6);
  checkb "0!~5" false (Union_find.equiv uf 0 5);
  checki "classes" 7 (List.length (Union_find.classes uf))

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  checki "length" 100 (Vec.length v);
  checki "get" 57 (Vec.get v 57);
  checki "pop" 99 (Vec.pop v);
  checki "after pop" 99 (Vec.length v);
  Vec.set v 0 1000;
  checki "set" 1000 (Vec.get v 0);
  checki "fold" (1000 + (98 * 99 / 2) - 0) (Vec.fold_left ( + ) 0 v);
  let l = Vec.to_list v in
  checki "to_list length" 99 (List.length l)

(* ---------------- monotonic clock ---------------- *)

let test_monotonic () =
  let a = Monotonic.now_ns () in
  let b = Monotonic.now_ns () in
  checkb "ns non-decreasing" true (Int64.compare b a >= 0);
  let s0 = Monotonic.now_s () in
  let s1 = Monotonic.now_s () in
  checkb "s non-decreasing" true (s1 >= s0);
  checkb "positive" true (Int64.compare a 0L > 0)

(* ---------------- trace ---------------- *)

(* Find every complete-span event in exported JSON as (name, ts, dur). *)
let spans_of_json json =
  let v =
    match Json.parse json with
    | Ok v -> v
    | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  in
  let events =
    match Option.bind (Json.member "traceEvents" v) Json.to_list with
    | Some es -> es
    | None -> Alcotest.fail "no traceEvents array"
  in
  List.filter_map
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.to_string in
      let num k = Option.bind (Json.member k e) Json.to_float in
      match (str "ph", str "name", num "ts", num "dur") with
      | Some "X", Some name, Some ts, Some dur -> Some (name, ts, dur)
      | _ -> None)
    events

let test_trace_spans_balance () =
  Trace.enable ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" ~args:[ ("k", Trace.Int 3) ] (fun () -> ());
      Trace.instant "tick";
      Trace.counter "c" [ ("n", 1.0) ]);
  Trace.disable ();
  let spans = spans_of_json (Trace.to_json ()) in
  checki "two complete spans" 2 (List.length spans);
  let name, outer_ts, outer_dur =
    List.find (fun (n, _, _) -> n = "outer") spans
  in
  let _, inner_ts, inner_dur =
    List.find (fun (n, _, _) -> n = "inner") spans
  in
  checkb "outer named" true (name = "outer");
  (* proper nesting: inner is contained in outer *)
  checkb "inner starts after outer" true (inner_ts >= outer_ts);
  checkb "inner ends before outer" true
    (inner_ts +. inner_dur <= outer_ts +. outer_dur +. 1e-6);
  let totals = Trace.span_totals () in
  checkb "totals has outer" true (List.mem_assoc "outer" totals);
  checkb "totals has inner" true (List.mem_assoc "inner" totals);
  Trace.reset ()

let test_trace_exception_closes_span () =
  Trace.enable ();
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Trace.disable ();
  let spans = spans_of_json (Trace.to_json ()) in
  checkb "span recorded despite raise" true
    (List.exists (fun (n, _, _) -> n = "boom") spans);
  Trace.reset ()

let test_trace_escaping () =
  Trace.enable ();
  Trace.with_span "quote\"back\\slash\nnewline"
    ~args:[ ("s", Trace.Str "tab\there") ]
    (fun () -> ());
  Trace.disable ();
  let json = Trace.to_json () in
  (match Json.parse json with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "escaped JSON does not parse: %s" msg);
  let spans = spans_of_json json in
  checkb "escaped name round-trips" true
    (List.exists (fun (n, _, _) -> n = "quote\"back\\slash\nnewline") spans);
  Trace.reset ()

let test_trace_disabled_no_alloc () =
  Trace.reset ();
  checkb "disabled" false (Trace.is_enabled ());
  (* warm up so the closure itself is not counted *)
  let f () = 7 in
  ignore (Trace.with_span "off" f);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Trace.with_span "off" f)
  done;
  let words = Gc.minor_words () -. before in
  (* a disabled span must be a bare bool test: no per-call allocation *)
  checkb
    (Printf.sprintf "no allocation when disabled (%.0f words)" words)
    true (words < 64.);
  checki "no events recorded" 0 (Trace.num_events ())

(* ---------------- metrics ---------------- *)

let test_metrics () =
  Metrics.reset ();
  let c = Metrics.counter "t.count" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3;
  checki "counter" 5 (Metrics.counter_value c);
  checkb "same handle" true (c == Metrics.counter "t.count");
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 2.5;
  checkb "gauge" true (Metrics.gauge_value g = 2.5);
  let h = Metrics.histogram "t.hist" in
  Metrics.observe h 1.0;
  Metrics.observe h 3.0;
  let contains ~sub s =
    let ls = String.length s and lsub = String.length sub in
    let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
    go 0
  in
  let dump = Metrics.dump () in
  checkb "dump has counter" true (contains ~sub:"t.count" dump);
  checkb "dump has histogram stats" true (contains ~sub:"count=2" dump);
  checkb "kind clash rejected" true
    (try
       ignore (Metrics.gauge "t.count");
       false
     with Invalid_argument _ -> true);
  Metrics.reset ();
  checki "reset zeroes counter in place" 0 (Metrics.counter_value c)

(* Histogram percentiles on a known distribution: 1000 observations of
   value 10, 9 of 1000, 1 of 50000.  Nearest-rank: p50/p90/p99 land in
   the bulk, p99.9 on the 1000s, and only the top observation sits above
   tail_count's cutoff.  Values up to 63 are recorded exactly; larger
   ones within the bucket's 1/32 relative-error envelope. *)
let test_metrics_percentiles () =
  Metrics.reset ();
  let h = Metrics.histogram "t.tail" in
  for _ = 1 to 1000 do
    Metrics.observe h 10.
  done;
  for _ = 1 to 9 do
    Metrics.observe h 1000.
  done;
  Metrics.observe h 50000.;
  checki "p50 exact (value < 64)" 10 (Metrics.percentile h 0.50);
  checki "p90 exact" 10 (Metrics.percentile h 0.90);
  checki "p99 exact" 10 (Metrics.percentile h 0.99);
  let p999 = Metrics.percentile h 0.999 in
  checkb
    (Printf.sprintf "p99.9 within bucket error of 1000 (got %d)" p999)
    true
    (abs (p999 - 1000) * 32 <= 1000);
  let p1000 = Metrics.percentile h 1.0 in
  checkb
    (Printf.sprintf "p100 within bucket error of 50000 (got %d)" p1000)
    true
    (abs (p1000 - 50000) * 32 <= 50000);
  checki "tail above 100" 10 (Metrics.tail_count h 100);
  checki "tail above 2000" 1 (Metrics.tail_count h 2000);
  checki "tail above 100000" 0 (Metrics.tail_count h 100000);
  (* merging external bucket counts is equivalent to observing *)
  let h2 = Metrics.histogram "t.tail2" in
  let buckets = Array.make 4096 0 in
  buckets.(Metrics.bucket_index 10) <- 1000;
  buckets.(Metrics.bucket_index 1000) <- 9;
  buckets.(Metrics.bucket_index 50000) <- 1;
  Metrics.merge_buckets h2 buckets;
  checki "merged p50" (Metrics.percentile h 0.50) (Metrics.percentile h2 0.50);
  checki "merged p99.9" p999 (Metrics.percentile h2 0.999);
  checki "merged tail" 10 (Metrics.tail_count h2 100);
  (* bucket_value is the inverse of bucket_index up to bucket width *)
  List.iter
    (fun v ->
      let r = Metrics.bucket_value (Metrics.bucket_index v) in
      checkb
        (Printf.sprintf "bucket round-trip %d -> %d" v r)
        true
        (abs (r - v) * 32 <= max v 32))
    [ 0; 1; 63; 64; 100; 1023; 65536; 1_000_000 ];
  Metrics.reset ()

(* Two domains hammer the same instruments concurrently: with atomic
   counters and the mutexed registry/histograms, no increment or
   observation may be lost, and racing registrations of one name must
   resolve to a single handle. *)
let test_metrics_domain_safety () =
  Metrics.reset ();
  let n = 100_000 in
  let worker () =
    (* resolve handles inside the domain so registration itself races *)
    let c = Metrics.counter "t.par.count" in
    let g = Metrics.gauge "t.par.gauge" in
    let h = Metrics.histogram "t.par.hist" in
    for i = 1 to n do
      Metrics.incr c;
      Metrics.add c 2;
      Metrics.set g (float_of_int i);
      if i land 1023 = 0 then Metrics.observe h (float_of_int (i land 63))
    done
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  checki "no lost counter increments" (2 * 3 * n)
    (Metrics.counter_value (Metrics.counter "t.par.count"));
  checki "no lost histogram observations"
    (2 * (n / 1024))
    (Metrics.histogram_count (Metrics.histogram "t.par.hist"));
  checkb "gauge holds one of the written values" true
    (let v = Metrics.gauge_value (Metrics.gauge "t.par.gauge") in
     v >= 1. && v <= float_of_int n);
  Metrics.reset ()

(* Same shape for the trace buffer: concurrent instants from two domains
   must all land in the (mutexed) event vector. *)
let test_trace_domain_safety () =
  Trace.reset ();
  Trace.enable ();
  let n = 10_000 in
  let worker tid () =
    for _ = 1 to n do
      Trace.instant ~tid "tick"
    done
  in
  let d1 = Domain.spawn (worker 1) and d2 = Domain.spawn (worker 2) in
  Domain.join d1;
  Domain.join d2;
  Trace.disable ();
  checki "no lost events" (2 * n) (Trace.num_events ());
  Trace.reset ()

(* ---------------- json parser ---------------- *)

let test_json_parser () =
  let ok s = match Json.parse s with Ok v -> v | Error m -> Alcotest.fail m in
  let bad s =
    match Json.parse s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> ()
  in
  (match
     ok {| {"a": [1, 2.5, -3e2], "b": "x\nA", "c": true, "d": null} |}
   with
  | Json.Obj fields ->
      checkb "member a" true
        (match List.assoc "a" fields with
        | Json.Arr [ Json.Num 1.; Json.Num 2.5; Json.Num -300. ] -> true
        | _ -> false);
      checkb "string escape" true (List.assoc "b" fields = Json.Str "x\nA");
      checkb "bool" true (List.assoc "c" fields = Json.Bool true);
      checkb "null" true (List.assoc "d" fields = Json.Null)
  | _ -> Alcotest.fail "expected object");
  let unicode = Printf.sprintf {| {"u": "%su0041%su00e9"} |} "\\" "\\" in
  checkb "unicode escape" true
    (Option.bind (Json.member "u" (ok unicode)) Json.to_string
    = Some "A\xc3\xa9");
  checkb "to_int" true
    (Option.bind (Json.member "n" (ok {| {"n": 42} |})) Json.to_int = Some 42);
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "1 2"

let suites =
  [
    ( "support",
      [
        Alcotest.test_case "ident freshness" `Quick test_ident_freshness;
        Alcotest.test_case "ident collections" `Quick test_ident_collections;
        Alcotest.test_case "union find" `Quick test_union_find;
        Alcotest.test_case "vec" `Quick test_vec;
      ] );
    ( "observability",
      [
        Alcotest.test_case "monotonic clock" `Quick test_monotonic;
        Alcotest.test_case "trace spans balance" `Quick
          test_trace_spans_balance;
        Alcotest.test_case "trace survives exception" `Quick
          test_trace_exception_closes_span;
        Alcotest.test_case "trace escaping" `Quick test_trace_escaping;
        Alcotest.test_case "disabled trace allocates nothing" `Quick
          test_trace_disabled_no_alloc;
        Alcotest.test_case "metrics registry" `Quick test_metrics;
        Alcotest.test_case "metrics percentiles and tails" `Quick
          test_metrics_percentiles;
        Alcotest.test_case "metrics survive two domains" `Quick
          test_metrics_domain_safety;
        Alcotest.test_case "trace survives two domains" `Quick
          test_trace_domain_safety;
        Alcotest.test_case "json parser" `Quick test_json_parser;
      ] );
  ]
