(* End-to-end compilation driver: Nova source -> physical IXP program.

   Pipeline (paper §4, §5):
     parse -> typecheck -> CPS conversion -> CPS optimization ->
     de-proceduralization -> SSU cloning -> instruction selection ->
     model generation -> ILP (or baseline heuristic) -> solution
     application -> machine-legality check. *)

open Support

type allocator = Ilp_allocator | Baseline_allocator

type options = {
  allocator : allocator;
  objective : Ilp.objective_mode;
  time_limit : float; (* branch&bound wall-clock budget, seconds *)
  node_limit : int; (* branch&bound node budget (deterministic) *)
  rel_gap : float;
  solver_domains : int;
      (* read by nothing: branch and bound runs on one domain, and
         perfbench's suite, the only writer, goes with ROADMAP item 4 *)
  entry : string;
  entry_args : int list;
  validate : bool; (* run Assignment.validate and Checker *)
  verify_each : bool; (* re-verify IR invariants after every CPS pass *)
  rematerialize : bool; (* §12: constants through the virtual bank C *)
}

let default_options =
  {
    allocator = Ilp_allocator;
    objective = Ilp.Minimize_moves;
    time_limit = 300.;
    node_limit = 500_000;
    rel_gap = 1e-4;
    solver_domains = 1;
    entry = "main";
    entry_args = [];
    validate = true;
    verify_each = true;
    rematerialize = false;
  }

(* How the emitted allocation was obtained -- in particular, whether a
   solver budget cut the search short and what was emitted instead of a
   proven-optimal solution. *)
type solver_outcome =
  | Outcome_heuristic (* baseline allocator was requested *)
  | Outcome_optimal (* ILP solved to (gap-)optimality *)
  | Outcome_incumbent (* budget hit; best incumbent emitted *)
  | Outcome_fallback (* budget hit with no incumbent; baseline emitted *)

let solver_outcome_to_string = function
  | Outcome_heuristic -> "heuristic"
  | Outcome_optimal -> "optimal"
  | Outcome_incumbent -> "incumbent (budget hit)"
  | Outcome_fallback -> "baseline fallback (budget hit)"

type stats = {
  source : Nova.Stats.t;
  cps_size_initial : int;
  cps_size_optimized : int;
  virtual_blocks : int;
  virtual_insns : int;
  coloring : Modelgen.coloring_stats;
  mip : Lp.Mip.stats option; (* None for the baseline *)
  solver_outcome : solver_outcome;
  moves_inserted : int; (* register-to-register moves *)
  imms_inserted : int; (* immediate loads of rematerialized constants *)
  spills_inserted : int;
  weighted_move_cost : float;
}

type compiled = {
  options : options;
  tprog : Nova.Tast.tprogram;
  cps_term : Cps.Ir.term; (* after all CPS phases, pre-isel *)
  virtual_graph : Ident.t Ixp.Flowgraph.t;
  mg : Modelgen.t;
  assignment : Assignment.t;
  physical : Ixp.Reg.t Ixp.Flowgraph.t;
  stats : stats;
}

exception Allocation_failed of string

(* Front half: source -> virtual flowgraph.  Shared by all allocators and
   by benchmarks that only need model statistics. *)
type front = {
  f_tprog : Nova.Tast.tprogram;
  f_source : Nova.Stats.t;
  f_term : Cps.Ir.term;
  f_size_initial : int;
  f_graph : Ident.t Ixp.Flowgraph.t;
  f_plain_graph : Ident.t Ixp.Flowgraph.t;
      (* instruction selection's own graph: [f_graph] before
         [rematerialize] shared its constants, the same graph otherwise *)
}

(* Every identifier of a compile is minted here (typecheck, CPS
   conversion and its passes, SSU, isel); modelgen, the ILP, emit and the
   checks mint none.  Resetting the stamp counter first numbers a
   compile's identifiers exactly as a fresh process does, so the ILP's
   variable names, and with them the LP's column order and pivot path,
   are a function of the source and options alone. *)
let front_end ?(entry = "main") ?(entry_args = []) ?(rematerialize = false)
    ?(verify_each = false) ~file source =
  Trace.with_span "front-end" ~args:[ ("file", Trace.Str file) ] @@ fun () ->
  Ident.reset ();
  let prog = Nova.Parser.parse_string ~file source in
  let source_stats = Nova.Stats.of_program ~source prog in
  let tprog = Nova.Typecheck.check_program ~entry prog in
  let term =
    Trace.with_span "cps-convert" (fun () ->
        Cps.Convert.convert_program ~entry_args tprog)
  in
  let size_initial = Cps.Ir.size term in
  (match Cps.Ir.check_ssa term with
  | Ok () -> ()
  | Error e -> Diag.ice "CPS conversion broke SSA: %s" e);
  (* [verify_each]: after every middle-end pass, re-check the structural
     invariants the ILP model assumes and diff the interpreter's verdict
     against the pass's input, attributing any breakage to the pass that
     introduced it. *)
  let verify ~pass ~stage t =
    if verify_each then
      Trace.with_span "verify" ~args:[ ("pass", Trace.Str pass) ] (fun () ->
          Cps.Verify.check_exn ~pass ~stage t)
  in
  let differential ~pass before after =
    if verify_each then
      Trace.with_span "verify-differential"
        ~args:[ ("pass", Trace.Str pass) ]
        (fun () -> Cps.Verify.differential_exn ~pass before after)
  in
  verify ~pass:"cps-convert" ~stage:Cps.Verify.After_convert term;
  let contracted = Trace.with_span "contract" (fun () -> Cps.Contract.simplify term) in
  verify ~pass:"contract" ~stage:Cps.Verify.After_contract contracted;
  differential ~pass:"contract" term contracted;
  let deprocd = Trace.with_span "deproc" (fun () -> Cps.Deproc.run contracted) in
  verify ~pass:"deproc" ~stage:Cps.Verify.After_deproc deprocd;
  differential ~pass:"deproc" contracted deprocd;
  let term = Trace.with_span "ssu" (fun () -> Cps.Ssu.run deprocd) in
  (match Cps.Ir.check_ssa term with
  | Ok () -> ()
  | Error e -> Diag.ice "SSU broke SSA: %s" e);
  verify ~pass:"ssu" ~stage:Cps.Verify.After_ssu term;
  differential ~pass:"ssu" deprocd term;
  let verify_graph pass graph =
    if verify_each then
      Trace.with_span "verify" ~args:[ ("pass", Trace.Str pass) ] (fun () ->
          Ixp.Verify_virtual.check_exn ~pass graph)
  in
  let plain_graph = Trace.with_span "isel" (fun () -> Cps.Isel.run term) in
  verify_graph "isel" plain_graph;
  let graph =
    if rematerialize then begin
      let graph = Cps.Isel.share_constants plain_graph in
      verify_graph "share-constants" graph;
      graph
    end
    else plain_graph
  in
  {
    f_tprog = tprog;
    f_source = source_stats;
    f_term = term;
    f_size_initial = size_initial;
    f_graph = graph;
    f_plain_graph = plain_graph;
  }

(* Map an emitted block label back to the source function it was lowered
   from.  Labels are printed idents, "<base>_<stamp>", whose base is the
   function's source name possibly extended with derivation suffixes
   (SSU clones print as "f.c1", inlined continuations as "k.phi", ...).
   Continuation blocks (loop headers, join points, return continuations)
   have fabricated bases and map to no location -- diagnostics on them
   fall back to the dummy location but still carry the block label. *)
let provenance_of_tprog (tprog : Nova.Tast.tprogram) :
    string -> Srcloc.t option =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (f : Nova.Tast.tfun) ->
      Hashtbl.replace by_name f.Nova.Tast.f_name f.Nova.Tast.f_body.Nova.Tast.loc)
    tprog.Nova.Tast.funs;
  fun label ->
    let base =
      match String.rindex_opt label '_' with
      | Some i -> String.sub label 0 i
      | None -> label
    in
    let root =
      match String.index_opt base '.' with
      | Some i -> String.sub base 0 i
      | None -> base
    in
    Hashtbl.find_opt by_name root

(* The allocator is parameterized over how a model variant is built and
   solved so the incremental driver below can interpose its stage cache;
   [variant] names which model flavor is being requested ("nospill",
   "spill", "remat") and doubles as a cache-key component. *)
type model_solve =
  variant:string ->
  Ident.t Ixp.Flowgraph.t ->
  Modelgen.t * (Ilp.solution, [ `Infeasible | `Limit ]) result

let build_variant ~variant graph =
  match variant with
  | "remat" -> Modelgen.build ~allow_spill:false ~rematerialize:true graph
  | "nospill" -> Modelgen.build ~allow_spill:false graph
  | "spill" -> Modelgen.build ~allow_spill:true graph
  | v -> Diag.ice "unknown model variant %S" v

let direct_model_solve (options : options) : model_solve =
 fun ~variant graph ->
  let mg = build_variant ~variant graph in
  let ilp =
    Trace.with_span "ilp-build" (fun () ->
        Ilp.build ~objective_mode:options.objective mg)
  in
  ( mg,
    Trace.with_span "solve" (fun () ->
        Ilp.solve ~time_limit:options.time_limit ~node_limit:options.node_limit
          ~rel_gap:options.rel_gap ilp) )

let allocate_with ~(model_solve : model_solve) (options : options)
    (front : front) : compiled =
  Trace.with_span "allocate" @@ fun () ->
  (* When branch&bound hits its budget with a feasible incumbent in
     hand, that incumbent is used: it is a valid (machine-checked)
     allocation, merely without the optimality certificate.  The
     [solver_outcome] in the stats records that the budget bit. *)
  let of_solution mg sol =
    let outcome =
      match sol.Ilp.result.Lp.Mip.status with
      | Lp.Mip.Limit -> Outcome_incumbent
      | _ -> Outcome_optimal
    in
    (mg, Assignment.of_ilp sol, Some sol.Ilp.result.Lp.Mip.stats, outcome)
  in
  (* No incumbent within the budget: emit the baseline heuristic
     allocation, recording the fallback. *)
  let limit_fallback graph =
    let mg = Modelgen.build graph in
    (mg, Baseline.build mg, None, Outcome_fallback)
  in
  (* spill-free model first (paper §11): much smaller; fall back to the
     full model with scratch enabled only when infeasible *)
  let plain graph =
    let mg, solved = model_solve ~variant:"nospill" graph in
    match solved with
    | Ok sol -> of_solution mg sol
    | Error `Limit -> limit_fallback graph
    | Error `Infeasible -> (
        let mg, solved = model_solve ~variant:"spill" graph in
        match solved with
        | Ok sol -> of_solution mg sol
        | Error `Infeasible -> raise (Allocation_failed "ILP model is infeasible")
        | Error `Limit -> limit_fallback graph)
  in
  let mg, assignment, mip_stats, outcome =
    match options.allocator with
    | Baseline_allocator ->
        let mg = Modelgen.build front.f_graph in
        (mg, Baseline.build mg, None, Outcome_heuristic)
    | Ilp_allocator when options.rematerialize -> (
        (* constants reach registers only through the moves out of bank
           C, so the remat model can be infeasible where the plain one is
           not: allocate the graph as it was before its constants were
           shared then, as the spill-free model falls back to the spill
           model *)
        let mg, solved = model_solve ~variant:"remat" front.f_graph in
        match solved with
        | Ok sol -> of_solution mg sol
        | Error `Limit -> limit_fallback front.f_graph
        | Error `Infeasible -> plain front.f_plain_graph)
    | Ilp_allocator -> plain front.f_graph
  in
  if options.validate then begin
    match Trace.with_span "validate" (fun () -> Assignment.validate assignment)
    with
    | [] -> ()
    | errs ->
        raise
          (Allocation_failed
             (Fmt.str "assignment invalid:@.%a"
                Fmt.(list ~sep:cut string)
                errs))
  end;
  let emitted =
    Trace.with_span "emit" @@ fun () ->
    match outcome with
    | Outcome_heuristic | Outcome_fallback -> (
        (* the baseline never spills: where a bank's pressure exceeds
           its capacity it has no allocation, which is a diagnostic, not
           an internal error *)
        try Emit.run assignment
        with Emit.Emit_error msg ->
          raise (Allocation_failed ("baseline allocation failed: " ^ msg)))
    | Outcome_optimal | Outcome_incumbent -> Emit.run assignment
  in
  if options.validate then begin
    match
      Trace.with_span "machine-check" (fun () ->
          Ixp.Checker.check
            ~provenance:(provenance_of_tprog front.f_tprog)
            emitted.Emit.physical)
    with
    | [] -> ()
    | vs ->
        raise
          (Allocation_failed
             (Fmt.str "machine check failed:@.%a"
                Fmt.(list ~sep:cut Ixp.Checker.pp_violation)
                vs))
  end;
  {
    options;
    tprog = front.f_tprog;
    cps_term = front.f_term;
    virtual_graph = mg.Modelgen.graph;
    mg;
    assignment;
    physical = emitted.Emit.physical;
    stats =
      {
        source = front.f_source;
        cps_size_initial = front.f_size_initial;
        cps_size_optimized = Cps.Ir.size front.f_term;
        virtual_blocks = Ixp.Flowgraph.num_blocks mg.Modelgen.graph;
        virtual_insns = Ixp.Flowgraph.num_insns mg.Modelgen.graph;
        coloring = Modelgen.coloring_stats mg;
        mip = mip_stats;
        solver_outcome = outcome;
        moves_inserted = emitted.Emit.moves_inserted;
        imms_inserted = emitted.Emit.imms_inserted;
        spills_inserted = emitted.Emit.spills_inserted;
        weighted_move_cost = Assignment.move_cost assignment;
      };
  }

let allocate (options : options) (front : front) : compiled =
  allocate_with ~model_solve:(direct_model_solve options) options front

let compile ?(options = default_options) ~file source =
  Trace.with_span "compile" ~args:[ ("file", Trace.Str file) ] @@ fun () ->
  let front =
    front_end ~entry:options.entry ~entry_args:options.entry_args
      ~rematerialize:options.rematerialize ~verify_each:options.verify_each
      ~file source
  in
  allocate options front

(* ------------------------------------------------------------------ *)
(* Incremental compilation: stage-cached driver                        *)
(* ------------------------------------------------------------------ *)

(* [compile_incremental] runs the same pipeline as [compile] but makes
   every stage boundary cacheable:

     front    source text + front options        -> front IR (memo)
     model    front key + variant + objective    -> Modelgen/ILP (memo)
     solve    model fingerprint + solve options  -> MIP result (disk)
     full     front key + all options            -> compiled (memo)

   The front and model stages hold OCaml IR (ident-stamped graphs,
   hashtables keyed by idents) that has no faithful JSON form, so their
   replay is by in-process memo -- which is exactly the hot path of
   `novac serve` -- and they write nothing to disk.  The solve
   stage is where the time goes, and its artifact *is* fully
   serializable: the MIP solution keyed by the LP's variable names
   ([Modelhash]), so a fresh process that rebuilds the front and model
   cheaply can still skip branch and bound entirely when the model
   fingerprint matches.

   On a solve miss, the previous solve of the same (file, variant,
   objective) -- located through a store head pointer -- seeds a warm
   start: the integer values of its stored solution become the
   incumbent hints ([Lp.Mip.solve ~hints]).  Values map by variable
   name, so hints survive partial model changes wherever the
   identifiers before the edit keep their stamps; unmappable names are
   simply dropped.  Artifacts written before the warm start was hints
   only also carry a "ws" field (hints and a pseudocost table); it is
   ignored.

   Replayed solves are re-validated: the stored solution must be
   feasible on the freshly built instance and reproduce the stored
   objective, otherwise the artifact is ignored and the solve runs
   live.  Downstream validation (assignment + machine check) still runs
   on every path, so a stale artifact can never emit an illegal
   program. *)

type cache_report = {
  front_hit : bool; (* front IR replayed from the in-process memo *)
  model_hit : bool; (* Modelgen/ILP build replayed from the memo *)
  solve_hit : bool; (* MIP solution replayed from an artifact *)
  full_hit : bool; (* whole compile replayed (no stage ran at all) *)
  warm_used : bool; (* live solve seeded its incumbent from a warm start *)
  model_fingerprint : string; (* structural hash of the solved model *)
}

(* Shared with [Cache.Store]'s instruments: the registry dedups by
   name, so memo hits and store hits accumulate into the same lines. *)
let m_hit = Metrics.counter "cache.hit"
let m_miss = Metrics.counter "cache.miss"
let m_evict = Metrics.counter "cache.evict"

let obj_tag = function
  | Ilp.Minimize_moves -> "moves"
  | Ilp.Spill_feasibility -> "spillfeas"

(* Options fingerprints.  [fp_front] covers exactly what [front_end]
   reads; [fp_solve] covers the solver budget and gap; [fp_alloc] covers
   everything else that shapes [compiled]. *)
let fp_front (o : options) =
  Cache.Key.combine
    [
      "front:v1";
      o.entry;
      String.concat "," (List.map string_of_int o.entry_args);
      string_of_bool o.rematerialize;
      string_of_bool o.verify_each;
    ]

let front_key (o : options) source =
  Cache.Key.combine [ Cache.Key.text source; fp_front o ]

(* The solve stage's version, in [fp_solve] and [solve_key].  Bump it
   whenever the search can end differently on the same model and
   budget, so a persisted artifact of the old search is a miss rather
   than replayed as the new search's result.  v2: branch and bound
   branches on the transfer-register colors first. *)
let solve_version = "solve:v2"

let fp_solve (o : options) =
  Cache.Key.combine
    [
      solve_version;
      Printf.sprintf "%.17g" o.time_limit;
      string_of_int o.node_limit;
      Printf.sprintf "%.17g" o.rel_gap;
    ]

let fp_alloc (o : options) =
  Cache.Key.combine
    [
      "alloc:v1";
      (match o.allocator with
      | Ilp_allocator -> "ilp"
      | Baseline_allocator -> "baseline");
      obj_tag o.objective;
      fp_solve o;
      string_of_bool o.validate;
    ]

(* The key a solve artifact of the model with fingerprint
   [fingerprint] is stored under. *)
let solve_key (o : options) ~fingerprint =
  Cache.Key.combine [ solve_version; fingerprint; fp_solve o ]

(* In-process memos.  Small and process-global: the daemon's hot cache.
   Each holds at most [memo_cap] entries; adding one more evicts the
   least recently used entry and bumps the shared cache.evict counter. *)
let memo_cap = 8

type 'a memo_slot = { value : 'a; mutable last_use : int }
type 'a memo = (string, 'a memo_slot) Hashtbl.t

(* Use ticks: every lookup hit and every insertion takes the next one. *)
let memo_clock = ref 0

let memo_tick () =
  incr memo_clock;
  !memo_clock

let memo_find (tbl : 'a memo) key =
  match Hashtbl.find_opt tbl key with
  | Some slot ->
      slot.last_use <- memo_tick ();
      Some slot.value
  | None -> None

let memo_add (tbl : 'a memo) key value =
  Hashtbl.replace tbl key { value; last_use = memo_tick () };
  if Hashtbl.length tbl > memo_cap then begin
    let lru =
      Hashtbl.fold
        (fun k slot acc ->
          match acc with
          | Some (_, used) when used <= slot.last_use -> acc
          | _ -> Some (k, slot.last_use))
        tbl None
    in
    Option.iter
      (fun (k, _) ->
        Hashtbl.remove tbl k;
        Metrics.incr m_evict)
      lru
  end

let memo_front : front memo = Hashtbl.create 8

type model_entry = {
  me_graph : Ident.t Ixp.Flowgraph.t; (* identity guard, see below *)
  me_mg : Modelgen.t;
  me_ilp : Ilp.t;
  me_fp : string;
  me_names : string array; (* variable names *)
  me_index : (string, int) Hashtbl.t; (* variable name -> variable *)
}

let memo_model : model_entry memo = Hashtbl.create 8
let memo_full : (compiled * cache_report) memo = Hashtbl.create 8

(* Reset the in-process memos (tests; `novac serve` cache control). *)
let clear_memos () =
  Hashtbl.reset memo_front;
  Hashtbl.reset memo_model;
  Hashtbl.reset memo_full

(* ---------------- solve artifacts ---------------- *)

let status_to_string = function
  | Lp.Mip.Optimal -> "optimal"
  | Lp.Mip.Limit -> "limit"
  | Lp.Mip.Infeasible -> "infeasible"

let solve_artifact_of_result ~names (sol : Ilp.solution) : Json.t =
  let r = sol.Ilp.result in
  Json.Obj
    [
      ("status", Json.Str (status_to_string r.Lp.Mip.status));
      ("objective", Json.Num r.Lp.Mip.objective);
      ("best_bound", Json.Num r.Lp.Mip.stats.Lp.Mip.best_bound);
      ("nodes", Json.Num (float_of_int r.Lp.Mip.stats.Lp.Mip.nodes));
      ( "iters",
        Json.Num (float_of_int r.Lp.Mip.stats.Lp.Mip.simplex_iterations) );
      ("root_time", Json.Num r.Lp.Mip.stats.Lp.Mip.root_time);
      ("total_time", Json.Num r.Lp.Mip.stats.Lp.Mip.total_time);
      ("root_objective", Json.Num r.Lp.Mip.stats.Lp.Mip.root_objective);
      ("solution", Modelhash.solution_to_json ~names sol.Ilp.assignment);
    ]

let num_field doc name ~default =
  match Json.member name doc with
  | Some v -> Option.value ~default (Json.to_float v)
  | None -> default

(* Rebuild an [Ilp.solution] from a stored artifact, or refuse.  The
   mapped solution must be feasible on this instance and reproduce the
   stored objective -- anything else means the artifact belongs to a
   different model than the fingerprint claimed. *)
let replay_solve (ilp : Ilp.t) ~index (doc : Json.t) :
    (Ilp.solution, [ `Infeasible | `Limit ]) result option =
  let p = ilp.Ilp.problem in
  let status =
    Option.bind (Json.member "status" doc) Json.to_string
    |> Option.value ~default:""
  in
  match status with
  | "infeasible" -> Some (Error `Infeasible)
  | "limit-no-incumbent" -> Some (Error `Limit)
  | "optimal" | "limit" -> (
      match
        Option.bind (Json.member "solution" doc)
          (Modelhash.solution_of_json ~index ~n:(Lp.Problem.num_vars p))
      with
      | None -> None
      | Some x ->
          let stored_obj = num_field doc "objective" ~default:nan in
          let obj = Lp.Problem.objective_value p x in
          if
            (not (Lp.Problem.check_feasible p x))
            || Float.is_nan stored_obj
            || Float.abs (obj -. stored_obj)
               > 1e-6 *. (1. +. Float.abs stored_obj)
          then None
          else begin
            let stats =
              {
                Lp.Mip.default_stats with
                Lp.Mip.nodes = int_of_float (num_field doc "nodes" ~default:0.);
                simplex_iterations =
                  int_of_float (num_field doc "iters" ~default:0.);
                root_time = num_field doc "root_time" ~default:0.;
                total_time = num_field doc "total_time" ~default:0.;
                root_objective = num_field doc "root_objective" ~default:nan;
                best_bound = num_field doc "best_bound" ~default:stored_obj;
                incumbent_source = "cache";
              }
            in
            let result =
              {
                Lp.Mip.status =
                  (if status = "optimal" then Lp.Mip.Optimal else Lp.Mip.Limit);
                objective = stored_obj;
                solution = Some x;
                stats;
              }
            in
            Some (Ok { Ilp.assignment = x; result; ilp })
          end)
  | _ -> None

(* ---------------- the cached model+solve hook ---------------- *)

let cached_model_solve ~(store : Cache.Store.t) ~file ~key_front
    ~(report_model_hit : unit -> unit) ~(report_solve_hit : unit -> unit)
    ~(report_warm : unit -> unit) ~(report_fp : string -> unit)
    (options : options) : model_solve =
 fun ~variant graph ->
  (* model stage: memo keyed by (front key, variant, objective), and
     reused only with the very front object it was built from (a
     physical-identity guard backs the key), so a model and the front it
     allocates always come from one compile *)
  let mk = Cache.Key.combine [ key_front; variant; obj_tag options.objective ] in
  let entry =
    match memo_find memo_model mk with
    | Some e when e.me_graph == graph ->
        report_model_hit ();
        Metrics.incr m_hit;
        e
    | _ ->
        Metrics.incr m_miss;
        let mg = build_variant ~variant graph in
        let ilp =
          Trace.with_span "ilp-build" (fun () ->
              Ilp.build ~objective_mode:options.objective mg)
        in
        let problem = ilp.Ilp.problem in
        let names, fp =
          Trace.with_span "model-fingerprint" (fun () ->
              let names = Modelhash.names problem in
              (names, Modelhash.fingerprint problem))
        in
        let e =
          {
            me_graph = graph;
            me_mg = mg;
            me_ilp = ilp;
            me_fp = fp;
            me_names = names;
            me_index = Modelhash.index_of_names names;
          }
        in
        memo_add memo_model mk e;
        e
  in
  report_fp entry.me_fp;
  let ilp = entry.me_ilp in
  let names = entry.me_names and index = entry.me_index in
  let key_solve = solve_key options ~fingerprint:entry.me_fp in
  let head_name =
    Printf.sprintf "solve-%s-%s-%s" file variant (obj_tag options.objective)
  in
  let live () =
    (* warm start from the previous solve of this target, if any *)
    let hints =
      match Cache.Store.head store ~name:head_name with
      | Some prev_key when prev_key <> key_solve -> (
          match
            Option.bind
              (Cache.Store.lookup store ~stage:"solve" ~key:prev_key)
              (Json.member "solution")
          with
          | Some doc ->
              Modelhash.hints_of_solution ~index ilp.Ilp.problem doc
          | None -> [])
      | _ -> []
    in
    let solved =
      Trace.with_span "solve" (fun () ->
          Ilp.solve ~time_limit:options.time_limit
            ~node_limit:options.node_limit ~rel_gap:options.rel_gap ~hints ilp)
    in
    let artifact =
      match solved with
      | Ok sol ->
          if sol.Ilp.result.Lp.Mip.stats.Lp.Mip.warm_start_used then
            report_warm ();
          Some (solve_artifact_of_result ~names sol)
      | Error `Infeasible ->
          Some (Json.Obj [ ("status", Json.Str "infeasible") ])
      | Error `Limit ->
          (* budget exhausted with no incumbent: cache the outcome so an
             identical budget is not re-burned, but leave no head (there
             is nothing to warm-start from) *)
          Some (Json.Obj [ ("status", Json.Str "limit-no-incumbent") ])
    in
    Option.iter
      (fun doc ->
        Cache.Store.store store ~stage:"solve" ~key:key_solve doc;
        match solved with
        | Ok _ -> Cache.Store.set_head store ~name:head_name ~key:key_solve
        | Error _ -> ())
      artifact;
    (entry.me_mg, solved)
  in
  match Cache.Store.lookup store ~stage:"solve" ~key:key_solve with
  | Some doc -> (
      match replay_solve ilp ~index doc with
      | Some solved ->
          report_solve_hit ();
          (entry.me_mg, solved)
      | None ->
          (* fingerprint collision or corrupt artifact: solve live *)
          live ())
  | None -> live ()

(* ---------------- entry point ---------------- *)

let compile_incremental ?(options = default_options) ?store ~file source :
    compiled * cache_report =
  let store =
    match store with Some s -> s | None -> Cache.Store.create ()
  in
  Trace.with_span "compile-incremental" ~args:[ ("file", Trace.Str file) ]
  @@ fun () ->
  let kf = front_key options source in
  let kfull = Cache.Key.combine [ kf; fp_alloc options ] in
  match memo_find memo_full kfull with
  | Some (c, r) ->
      Metrics.incr m_hit;
      ( c,
        {
          r with
          front_hit = true;
          model_hit = true;
          solve_hit = true;
          full_hit = true;
          warm_used = false;
        } )
  | None ->
      Metrics.incr m_miss;
      let front_hit = ref false
      and model_hit = ref false
      and solve_hit = ref false
      and warm_used = ref false
      and model_fp = ref "" in
      let front =
        match memo_find memo_front kf with
        | Some f ->
            front_hit := true;
            Metrics.incr m_hit;
            f
        | None ->
            Metrics.incr m_miss;
            let f =
              front_end ~entry:options.entry ~entry_args:options.entry_args
                ~rematerialize:options.rematerialize
                ~verify_each:options.verify_each ~file source
            in
            memo_add memo_front kf f;
            f
      in
      let model_solve =
        cached_model_solve ~store ~file ~key_front:kf
          ~report_model_hit:(fun () -> model_hit := true)
          ~report_solve_hit:(fun () -> solve_hit := true)
          ~report_warm:(fun () -> warm_used := true)
          ~report_fp:(fun fp -> model_fp := fp)
          options
      in
      let compiled = allocate_with ~model_solve options front in
      let report =
        {
          front_hit = !front_hit;
          model_hit = !model_hit;
          solve_hit = !solve_hit;
          full_hit = false;
          warm_used = !warm_used;
          model_fingerprint = !model_fp;
        }
      in
      memo_add memo_full kfull (compiled, report);
      (compiled, report)

(* Static-analysis lint over a compiled program: cross-context races,
   machine-level validation, dead stores (see [Analysis.Lint]), plus the
   assignment-level translation validation of [Validate].  The scratch
   result area, which every compiled program's contexts intentionally
   share for their observable outputs, is whitelisted by default. *)
let result_area_region =
  Analysis.Race.region ~name:"result-area" ~space:Ixp.Insn.Scratch
    ~base:(Cps.Isel.result_addr_bytes Ixp.Memory.default_config)
    ~words:Cps.Isel.result_words Analysis.Race.Shared_write

let lint ?(regions = []) (c : compiled) : Analysis.Lint.report =
  Trace.with_span "lint-driver" @@ fun () ->
  let report =
    Analysis.Lint.run
      ~regions:(result_area_region :: regions)
      ~provenance:(provenance_of_tprog c.tprog) ~virtual_graph:c.virtual_graph
      ~physical:c.physical ()
  in
  let vreport = Trace.with_span "lint-assignment" (fun () -> Validate.check c.assignment) in
  let assignment_findings =
    List.map
      (fun e ->
        Analysis.Lint.finding ~severity:Diag.Error ~tag:"assignment"
          ~loc:Srcloc.dummy ~block:"<assignment>" "%s" e)
      vreport.Validate.errors
  in
  { report with Analysis.Lint.findings = report.Analysis.Lint.findings @ assignment_findings }

(* Convenience: run the compiled program on the simulator and return the
   observable results from the scratch result area. *)
let simulate ?(threads = 1) ?(init = fun (_ : Ixp.Simulator.t) -> ())
    (c : compiled) =
  let sim = Ixp.Simulator.create ~threads c.physical in
  init sim;
  let cycles = Ixp.Simulator.run_single sim in
  let mem = Ixp.Simulator.shared_memory sim in
  let base = Cps.Isel.result_addr_bytes Ixp.Memory.default_config / 4 in
  let results =
    Array.init Cps.Isel.result_words (fun i ->
        Ixp.Memory.peek mem Ixp.Insn.Scratch (base + i))
  in
  (cycles, results, sim)

(* Reference semantics via the CPS interpreter, for equivalence tests. *)
let interpret ?(init = fun (_ : Cps.Interp.state) -> ()) (c : compiled) =
  let st = Cps.Interp.create () in
  init st;
  let result = Cps.Interp.run st Ident.Map.empty c.cps_term in
  (result, st)
