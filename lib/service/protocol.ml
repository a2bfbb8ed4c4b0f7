(* Wire protocol for the `novac serve` compile daemon.

   Newline-delimited JSON over a Unix domain socket: each request is one
   JSON object on one line, each response is one JSON object on one
   line, in order.  The only JSON machinery used is [Support.Json], so
   the protocol needs nothing beyond the stdlib.

   Requests:

     {"op":"ping"}
     {"op":"stats"}                       -- metrics registry dump
     {"op":"clear-cache"}                 -- drop in-memory cache tiers
     {"op":"shutdown"}
     {"op":"compile", "file":F, "source":S, ...overrides}
     {"op":"batch", "jobs":[{...compile job...}, ...]}

   A compile job carries the source text plus optional per-job
   overrides of the daemon's base options: "time_limit" (seconds) and
   "rel_gap" (finite, non-negative numbers), "node_limit" (a
   non-negative integer), "allocator" ("ilp"|"baseline"), "objective"
   ("moves"|"spillfeas"), "entry" (a string).  An override that is
   present with another type or value, "null" included, fails the
   request with an error naming the field; it never falls back to the
   daemon's option.  A batch with one such job fails whole.

   Responses always carry "ok": true/false; failures carry "error".
   Successful compiles report the assembly, headline stats, the
   per-stage cache report and the wall-clock spent serving the job. *)

open Support

type job = {
  job_file : string;
  job_source : string;
  job_time_limit : float option;
  job_node_limit : int option;
  job_rel_gap : float option;
  job_allocator : Regalloc.Driver.allocator option;
  job_objective : Regalloc.Ilp.objective_mode option;
  job_entry : string option;
}

type request =
  | Ping
  | Stats
  | Clear_cache
  | Shutdown
  | Compile of job
  | Batch of job list

let job_of_json (doc : Json.t) : (job, string) result =
  let ( let* ) = Result.bind in
  (* [None] when absent; present, it must read as [what] *)
  let field name what read =
    match Json.member name doc with
    | None -> Ok None
    | Some v -> (
        match read v with
        | Some x -> Ok (Some x)
        | None -> Error (Printf.sprintf "compile job: %S must be %s" name what))
  in
  let str name = field name "a string" Json.to_string in
  let required name =
    let* v = str name in
    Option.to_result ~none:(Printf.sprintf "compile job: missing %S" name) v
  in
  let nonneg name =
    field name "a finite non-negative number" (fun v ->
        match Json.to_float v with
        | Some f when Float.is_finite f && f >= 0. -> Some f
        | _ -> None)
  in
  let enum name cases =
    field name
      (String.concat " or " (List.map (Printf.sprintf "%S") (List.map fst cases)))
      (fun v -> Option.bind (Json.to_string v) (fun s -> List.assoc_opt s cases))
  in
  let* file = required "file" in
  let* source = required "source" in
  let* time_limit = nonneg "time_limit" in
  let* node_limit =
    field "node_limit" "a non-negative integer" (fun v ->
        match Json.to_int v with Some n when n >= 0 -> Some n | _ -> None)
  in
  let* rel_gap = nonneg "rel_gap" in
  let* allocator =
    enum "allocator"
      [ ("ilp", Regalloc.Driver.Ilp_allocator);
        ("baseline", Regalloc.Driver.Baseline_allocator) ]
  in
  let* objective =
    enum "objective"
      [ ("moves", Regalloc.Ilp.Minimize_moves);
        ("spillfeas", Regalloc.Ilp.Spill_feasibility) ]
  in
  let* entry = str "entry" in
  Ok
    {
      job_file = file;
      job_source = source;
      job_time_limit = time_limit;
      job_node_limit = node_limit;
      job_rel_gap = rel_gap;
      job_allocator = allocator;
      job_objective = objective;
      job_entry = entry;
    }

let request_of_json (doc : Json.t) : (request, string) result =
  match Option.bind (Json.member "op" doc) Json.to_string with
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "clear-cache" -> Ok Clear_cache
  | Some "shutdown" -> Ok Shutdown
  | Some "compile" -> Result.map (fun j -> Compile j) (job_of_json doc)
  | Some "batch" -> (
      match Json.member "jobs" doc with
      | Some (Json.Arr jobs) ->
          let rec go acc = function
            | [] -> Ok (Batch (List.rev acc))
            | j :: rest -> (
                match job_of_json j with
                | Ok job -> go (job :: acc) rest
                | Error e -> Error e)
          in
          go [] jobs
      | _ -> Error "batch: missing \"jobs\" array")
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "missing \"op\""

(* Per-job option merge: the daemon's base options with the job's
   overrides applied. *)
let options_of_job (base : Regalloc.Driver.options) (j : job) :
    Regalloc.Driver.options =
  let v default = Option.value ~default in
  {
    base with
    Regalloc.Driver.time_limit = v base.Regalloc.Driver.time_limit j.job_time_limit;
    node_limit = v base.Regalloc.Driver.node_limit j.job_node_limit;
    rel_gap = v base.Regalloc.Driver.rel_gap j.job_rel_gap;
    allocator = v base.Regalloc.Driver.allocator j.job_allocator;
    objective = v base.Regalloc.Driver.objective j.job_objective;
    entry = v base.Regalloc.Driver.entry j.job_entry;
  }

(* ---------------- response builders ---------------- *)

let error_json msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let cache_json (r : Regalloc.Driver.cache_report) =
  Json.Obj
    [
      ("front", Json.Bool r.Regalloc.Driver.front_hit);
      ("model", Json.Bool r.Regalloc.Driver.model_hit);
      ("solve", Json.Bool r.Regalloc.Driver.solve_hit);
      ("full", Json.Bool r.Regalloc.Driver.full_hit);
      ("warm", Json.Bool r.Regalloc.Driver.warm_used);
      ("fingerprint", Json.Str r.Regalloc.Driver.model_fingerprint);
    ]

let compiled_json ~elapsed (c : Regalloc.Driver.compiled)
    (r : Regalloc.Driver.cache_report) =
  let stats = c.Regalloc.Driver.stats in
  let solver =
    match stats.Regalloc.Driver.mip with
    | None -> Json.Null
    | Some m ->
        Json.Obj
          [
            ("nodes", Json.Num (float_of_int m.Lp.Mip.nodes));
            ("total_time", Json.Num m.Lp.Mip.total_time);
            ("warm_start", Json.Bool m.Lp.Mip.warm_start_used);
            ("incumbent_source", Json.Str m.Lp.Mip.incumbent_source);
            ("best_bound", Json.Num m.Lp.Mip.best_bound);
          ]
  in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("asm", Json.Str (Ixp.Asm.program_to_string c.Regalloc.Driver.physical));
      ( "outcome",
        Json.Str
          (Regalloc.Driver.solver_outcome_to_string
             stats.Regalloc.Driver.solver_outcome) );
      ("moves", Json.Num (float_of_int stats.Regalloc.Driver.moves_inserted));
      ("spills", Json.Num (float_of_int stats.Regalloc.Driver.spills_inserted));
      ( "weighted_move_cost",
        Json.Num stats.Regalloc.Driver.weighted_move_cost );
      ("solver", solver);
      ("cache", cache_json r);
      ("elapsed_s", Json.Num elapsed);
    ]
