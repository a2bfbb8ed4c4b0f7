(* The repository benchmark.  See README.md in this directory.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
         one workload in this process; the last line of stdout is the
         JSON result ({correct, attempted, failed, metrics}) with the
         end-to-end metrics, or the per-layer ones under --trace 1
     main.exe benchmark [--workload W] [--seed N] [--seconds S] [--trace]
                        [--runs K] [--out FILE]
         every workload (or W), each run in its own child process,
         K runs with seeds N, N+1, ...; writes FILE
         (_artifacts/benchmark.json) and exits non-zero if any output
         check failed
     main.exe compare A.json B.json
         per workload x metric, the medians and quartiles of two such
         files and a verdict under the bounds in BENCHMARK.json *)

module Json = Support.Json

let end_to_end =
  [
    "setup_s"; "round_s"; "op_ms"; "move_cost"; "chip_mpps"; "chip_p99_cycles";
    "peak_rss_mb";
  ]

let per_layer =
  [
    "nova.parse_s"; "nova.typecheck_s"; "cps.passes_s"; "cps.verify_s";
    "regalloc.modelgen_s"; "regalloc.ilp_build_s"; "regalloc.emit_s";
    "regalloc.check_s"; "regalloc.moves"; "regalloc.baseline_move_cost";
    "lp.presolve_s"; "lp.root_lp_s"; "lp.root_cuts_s"; "lp.bb_s";
    "lp.cut_yield"; "lp.nodes"; "lp.iterations"; "lp.refactorizations";
    "lp.heuristic_incumbents"; "cache.noop_full_hit_ratio";
    "cache.edit_solve_replay_ratio"; "cache.evictions_per_request";
    "service.overhead_share"; "service.edit_tail_per_p50";
    "ixp.exec_mcycles_per_s"; "ixp.event_mpkt_per_s"; "ixp.minor_words_per_pkt";
    "ixp.engine_util"; "ixp.bus_stall_ratio"; "ixp.rx_drop_ratio";
    "ixp.ilp_vs_baseline_mpps"; "cluster.mpps"; "cluster.p99_cycles";
    "cluster.lb_drop_ratio"; "cluster.mpkt_per_s"; "trace.overhead_share";
  ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let artifact name =
  (try Unix.mkdir "_artifacts" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat "_artifacts" name

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> (
      match Json.parse text with Ok v -> v | Error e -> die "%s: %s" path e)
  | exception Sys_error e -> die "%s" e

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let host =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

(* ---------------- one workload ---------------- *)

let run_one ~workload ~seed ~seconds ~trace =
  let run =
    match List.assoc_opt workload Suite.all with
    | Some f -> f
    | None ->
        die "unknown workload %s (%s)" workload
          (String.concat ", " (List.map fst Suite.all))
  in
  let env =
    {
      Suite.workload;
      seed;
      seconds;
      trace;
      attempted = 0;
      failed = 0;
      metrics = [];
      rows = [];
    }
  in
  run env;
  let metrics = List.rev env.metrics in
  List.iter
    (fun (m : Suite.metric) ->
      Printf.printf "%s %s %.6g %s (n=%d)\n" workload m.name m.value m.unit_
        m.n)
    metrics;
  List.iter
    (fun (name, s) -> Printf.printf "%s compile_s.%s %.6g s\n" workload name s)
    env.rows;
  let correct = env.failed = 0 in
  Printf.printf "%s error_ratio %g (%d of %d operations failed)\n" workload
    (float_of_int env.failed /. float_of_int (max 1 env.attempted))
    env.failed env.attempted;
  let num x = Json.Num x in
  let metric_json ?(n = false) (m : Suite.metric) =
    Json.Obj
      ([ ("value", num m.value); ("unit", Json.Str m.unit_) ]
      @ if n then [ ("n", num (float_of_int m.n)) ] else [])
  in
  let find name =
    match List.find_opt (fun (m : Suite.metric) -> m.name = name) metrics with
    | Some m -> (name, metric_json m)
    | None -> die "%s did not measure %s" workload name
  in
  let head =
    [
      ("correct", Json.Bool correct);
      ("attempted", num (float_of_int env.attempted));
      ("failed", num (float_of_int env.failed));
    ]
  in
  write_file
    (artifact (Printf.sprintf "benchmark-%s.json" workload))
    (Json.encode
       (Json.Obj
          ([
             ("workload", Json.Str workload);
             ("seed", num (float_of_int seed));
             ("seconds", num seconds);
             ("trace", Json.Bool trace);
             ("host", host);
           ]
          @ head
          @ [
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun (m : Suite.metric) -> (m.name, metric_json ~n:true m))
                     metrics) );
              ( "compile_s",
                Json.Obj (List.map (fun (p, s) -> (p, num s)) env.rows) );
            ])));
  let declared = if trace then per_layer else end_to_end in
  print_endline
    (Json.encode
       (Json.Obj (head @ [ ("metrics", Json.Obj (List.map find declared)) ])));
  exit (if correct then 0 else 1)

(* ---------------- every workload, one child process each ---------------- *)

(* Each workload runs in a fresh process, so peak_rss_mb is its own and
   no compiler memo or GC state leaks from one workload into the next. *)
let benchmark ~workloads ~seed ~seconds ~trace ~runs ~out =
  let results = ref [] and ok = ref true in
  for k = 0 to runs - 1 do
    List.iter
      (fun w ->
        let args =
          [|
            Sys.executable_name; "--workload"; w; "--seed";
            string_of_int (seed + k); "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; (if trace then "1" else "0");
          |]
        in
        let file = artifact (Printf.sprintf "benchmark-%s.json" w) in
        if Sys.file_exists file then Sys.remove file;
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        (match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> ()
        | _ ->
            ok := false;
            Printf.eprintf "perfbench: workload %s (seed %d) failed\n%!" w
              (seed + k));
        if Sys.file_exists file then results := read_json file :: !results)
      workloads
  done;
  write_file out
    (Json.encode
       (Json.Obj [ ("host", host); ("runs", Json.Arr (List.rev !results)) ]));
  Printf.printf "wrote %s\n" out;
  exit (if !ok then 0 else 1)

(* ---------------- compare ---------------- *)

let str path doc = Option.bind (Suite.json_at path doc) Json.to_string
let num path doc = Option.bind (Suite.json_at path doc) Json.to_float

let arr path doc =
  Option.value ~default:[] (Option.bind (Suite.json_at path doc) Json.to_list)

(* (workload, metric) -> (values, unit), and the keys in file order *)
let samples doc =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun run ->
      let w = Option.value ~default:"?" (str [ "workload" ] run) in
      match Suite.json_at [ "metrics" ] run with
      | Some (Json.Obj ms) ->
          List.iter
            (fun (name, m) ->
              match (num [ "value" ] m, str [ "unit" ] m) with
              | Some v, Some u -> (
                  match Hashtbl.find_opt tbl (w, name) with
                  | Some (vs, _) -> Hashtbl.replace tbl (w, name) (v :: vs, u)
                  | None ->
                      order := (w, name) :: !order;
                      Hashtbl.replace tbl (w, name) ([ v ], u))
              | _ -> ())
            ms
      | _ -> ())
    (arr [ "runs" ] doc);
  (tbl, List.rev !order)

(* name -> (better, bound if any) from BENCHMARK.json in the working
   directory *)
let declared_bounds () =
  if not (Sys.file_exists "BENCHMARK.json") then []
  else
    let doc = read_json "BENCHMARK.json" in
    List.filter_map
      (fun m ->
        let better =
          Option.bind (str [ "better" ] m) Summary.better_of_string
        in
        match (str [ "name" ] m, better) with
        | Some n, Some b -> Some (n, (b, num [ "bound" ] m))
        | _ -> None)
      (arr [ "end_to_end" ] doc @ arr [ "per_layer" ] doc)

let compare_files a b =
  let ta, order = samples (read_json a) and tb, _ = samples (read_json b) in
  let bounds = declared_bounds () in
  let row = Printf.printf "%-15s %-30s %-10s %30s %30s  %s\n" in
  row "workload" "metric" "unit" "A median [q1, q3]" "B median [q1, q3]"
    "verdict";
  let worse = ref false in
  let show vs =
    let q1, m, q3 = Summary.quartiles vs in
    Printf.sprintf "%.5g [%.5g, %.5g] n=%d" m q1 q3 (List.length vs)
  in
  List.iter
    (fun ((w, name) as key) ->
      match (Hashtbl.find_opt ta key, Hashtbl.find_opt tb key) with
      | Some (va, u), Some (vb, _) ->
          let verdict =
            match List.assoc_opt name bounds with
            | Some (better, Some bound) ->
                let v = Summary.verdict ~better ~bound ~base:va ~cand:vb in
                if v = Summary.Worse then worse := true;
                Summary.verdict_to_string v
            | _ -> "-"
          in
          row w name u (show va) (show vb) verdict
      | _ -> ())
    order;
  exit (if !worse then 1 else 0)

(* ---------------- command line ---------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, args =
    match args with
    | (("benchmark" | "compare") as m) :: rest -> (m, rest)
    | _ -> ("one", args)
  in
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref false and runs = ref 1 and out = ref None in
  let files = ref [] in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer" flag
  in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_arg "--seed" n;
        parse rest
    | "--seconds" :: s :: rest ->
        (seconds :=
           match float_of_string_opt s with
           | Some x when x > 0. -> x
           | _ -> die "--seconds expects a positive number");
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--runs" :: n :: rest ->
        runs := int_arg "--runs" n;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | f :: rest when mode = "compare" && f <> "" && f.[0] <> '-' ->
        files := f :: !files;
        parse rest
    | a :: _ -> die "unexpected argument %s" a
    | [] -> ()
  in
  parse args;
  match (mode, !workload, List.rev !files) with
  | "compare", _, [ a; b ] -> compare_files a b
  | "compare", _, _ -> die "compare expects two result files"
  | "benchmark", w, _ ->
      let workloads =
        match w with Some w -> [ w ] | None -> List.map fst Suite.all
      in
      benchmark ~workloads ~seed:!seed ~seconds:!seconds ~trace:!trace
        ~runs:(max 1 !runs)
        ~out:(Option.value !out ~default:(artifact "benchmark.json"))
  | _, Some w, _ ->
      run_one ~workload:w ~seed:!seed ~seconds:!seconds ~trace:!trace
  | _, None, _ ->
      die "give --workload W, or benchmark, or compare A.json B.json"
