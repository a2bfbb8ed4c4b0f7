(* Differential oracle stack for fuzzed Nova programs.

   A candidate program passes only if every stage agrees:

     1. print/reparse -- the pretty-printed source re-parses, prints to
        a fixpoint and still typechecks (printer/parser agreement);
     2. interp-vs-sim -- the CPS interpreter and the chip-level
        simulator (baseline allocation) leave identical memory images
        over the fuzz sandbox;
     3. ilp-vs-baseline -- ILP-allocated code has the same observable
        behaviour as baseline-allocated code, both assignments pass
        [Regalloc.Validate] (enforced inside the driver) and both lint
        clean over the sandbox regions;
     4. warm-vs-cold -- recompiling through a stage-cache store replays
        the stored solve and reproduces the cold compile's observables;
        so does the source with one comment line prepended, compiled
        with the memos kept, which must also replay the model.

   All stages run on the *printed* source, so a counterexample written
   to the corpus replays the exact compiles that failed. *)

module A = Nova.Ast

type failure = { stage : string; detail : string }

let fail stage fmt = Printf.ksprintf (fun detail -> Error { stage; detail }) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* ---------------- sandbox comparison windows (word indices) -------- *)

(* generous supersets of the generator's windows: reads that run a few
   words past a window stay inside these, and so does the result slot *)
let compare_regions =
  [
    (Ixp.Insn.Sram, 0x1000 / 4, 0x21ff / 4);
    (Ixp.Insn.Scratch, 0x100 / 4, 0x2ff / 4);
    (Ixp.Insn.Sdram, 0x400 / 4, 0x9ff / 4);
  ]

(* fixed seed pattern for the read-only windows; a pure function of the
   word index so corpus files replay bit-for-bit with no side channel *)
let pattern w = (w * 2654435761) lxor (w lsl 7) lxor 0x9e3779b9

let ro_regions =
  [
    (Ixp.Insn.Sram, Gen.sram_ro_base / 4, Gen.sram_ro_words);
    (Ixp.Insn.Scratch, Gen.scratch_ro_base / 4, Gen.scratch_ro_words);
    (Ixp.Insn.Sdram, Gen.sdram_ro_base / 4, Gen.sdram_ro_words);
  ]

let seed_memory poke =
  List.iter
    (fun (space, base, words) ->
      for i = 0 to words - 1 do
        poke space (base + i) (pattern (base + i) land 0xffffffff)
      done)
    ro_regions

(* lint whitelist for the sandbox: read-only tables plus write windows *)
let lint_regions =
  let open Analysis.Race in
  [
    region ~name:"fuzz-sram-ro" ~space:Ixp.Insn.Sram ~base:Gen.sram_ro_base
      ~words:128 Read_only;
    region ~name:"fuzz-sram-rw" ~space:Ixp.Insn.Sram ~base:Gen.sram_rw_base
      ~words:128 Shared_write;
    region ~name:"fuzz-scratch-ro" ~space:Ixp.Insn.Scratch
      ~base:Gen.scratch_ro_base ~words:32 Read_only;
    region ~name:"fuzz-scratch-rw" ~space:Ixp.Insn.Scratch
      ~base:Gen.scratch_rw_base ~words:64 Shared_write;
    region ~name:"fuzz-sdram-ro" ~space:Ixp.Insn.Sdram
      ~base:Gen.sdram_ro_base ~words:128 Read_only;
    region ~name:"fuzz-sdram-rw" ~space:Ixp.Insn.Sdram
      ~base:Gen.sdram_rw_base ~words:192 Shared_write;
  ]

(* ---------------- stage 1: print / reparse ---------------- *)

let reparse ~file source =
  let parse ~what src =
    try Ok (Nova.Parser.parse_string ~file src)
    with Support.Diag.Compile_error d ->
      fail "print-reparse" "%s does not parse: %s" what
        (Support.Diag.to_string d)
  in
  let* p1 = parse ~what:"source" source in
  let s1 = Nova.Pp.program_to_string p1 in
  let* p2 = parse ~what:"printed source" s1 in
  let* () =
    if Nova.Pp.equal_program p1 p2 then Ok ()
    else fail "print-reparse" "re-parsed AST differs from the original"
  in
  let* () =
    if String.equal s1 (Nova.Pp.program_to_string p2) then Ok ()
    else fail "print-reparse" "printing is not a fixpoint"
  in
  let* () =
    try
      ignore (Nova.Typecheck.check_program ~entry:"main" p2);
      Ok ()
    with Support.Diag.Compile_error d ->
      fail "print-reparse" "printed source does not typecheck: %s"
        (Support.Diag.to_string d)
  in
  Ok p2

(* ---------------- stage 2/3 execution legs ---------------- *)

let run_interp ~file source =
  try
    let front = Regalloc.Driver.front_end ~file source in
    let st = Cps.Interp.create () in
    let mem = Cps.Interp.memory st in
    seed_memory (fun space w v -> Ixp.Memory.poke mem space w v);
    let result =
      Cps.Interp.run st Support.Ident.Map.empty front.Regalloc.Driver.f_term
    in
    Ok (result, mem)
  with
  | Support.Diag.Compile_error d ->
      fail "interp" "front end rejected program: %s" (Support.Diag.to_string d)
  | e -> fail "interp" "interpreter raised: %s" (Printexc.to_string e)

let run_sim (c : Regalloc.Driver.compiled) =
  let sim = Ixp.Simulator.create c.Regalloc.Driver.physical in
  let shared = Ixp.Simulator.shared_memory sim in
  let sdram = Ixp.Simulator.sdram_of_thread sim ~thread:0 in
  seed_memory (fun space w v ->
      match space with
      | Ixp.Insn.Sdram -> Ixp.Memory.poke sdram space w v
      | _ -> Ixp.Memory.poke shared space w v);
  ignore (Ixp.Simulator.run_single sim);
  (shared, sdram)

let peek_sim (shared, sdram) space w =
  match space with
  | Ixp.Insn.Sdram -> Ixp.Memory.peek sdram space w
  | _ -> Ixp.Memory.peek shared space w

let compare_memories ~stage ~what peek_a peek_b =
  let bad = ref None in
  List.iter
    (fun (space, lo, hi) ->
      for w = lo to hi do
        if !bad = None then begin
          let a = peek_a space w and b = peek_b space w in
          if a <> b then bad := Some (space, w, a, b)
        end
      done)
    compare_regions;
  match !bad with
  | None -> Ok ()
  | Some (space, w, a, b) ->
      fail stage "%s differ at %s[0x%x]: 0x%08x vs 0x%08x" what
        (Ixp.Insn.space_to_string space)
        (w * 4) a b

let compile ~stage ~allocator ~node_limit ~file source =
  let options =
    { Regalloc.Driver.default_options with allocator; node_limit }
  in
  try Ok (Regalloc.Driver.compile ~options ~file source) with
  | Regalloc.Driver.Allocation_failed msg ->
      fail stage "allocation failed: %s" msg
  | Support.Diag.Compile_error d ->
      fail stage "compile error: %s" (Support.Diag.to_string d)
  | e -> fail stage "compiler raised: %s" (Printexc.to_string e)

let lint_clean ~stage (c : Regalloc.Driver.compiled) =
  let report = Regalloc.Driver.lint ~regions:lint_regions c in
  match Analysis.Lint.errors report with
  | [] -> Ok ()
  | first :: _ as errs ->
      fail stage "lint reported %d error(s), first: [%s] %s in %s"
        (List.length errs) first.Analysis.Lint.tag first.Analysis.Lint.message
        first.Analysis.Lint.block

(* ---------------- stage 4: warm vs cold ---------------- *)

let observables (c : Regalloc.Driver.compiled) =
  let s = c.Regalloc.Driver.stats in
  ( Regalloc.Driver.solver_outcome_to_string s.Regalloc.Driver.solver_outcome,
    s.Regalloc.Driver.moves_inserted,
    s.Regalloc.Driver.spills_inserted,
    s.Regalloc.Driver.weighted_move_cost )

let asm (c : Regalloc.Driver.compiled) =
  Ixp.Asm.program_to_string c.Regalloc.Driver.physical

let warm_vs_cold ~options ~file source =
  let store = Cache.Store.create () in
  try
    Regalloc.Driver.clear_memos ();
    let cold, _ =
      Regalloc.Driver.compile_incremental ~options ~store ~file source
    in
    (* keep the memos: a comment shifts every line but leaves the graph
       as it was, so the model memo and the stored solve both replay *)
    let comment, rc =
      Regalloc.Driver.compile_incremental ~options ~store ~file
        ("// fuzz comment leg\n" ^ source)
    in
    let* () =
      if not (rc.Regalloc.Driver.model_hit && rc.Regalloc.Driver.solve_hit)
      then
        fail "warm-vs-cold" "comment leg: model_hit=%b solve_hit=%b"
          rc.Regalloc.Driver.model_hit rc.Regalloc.Driver.solve_hit
      else if observables comment <> observables cold then
        fail "warm-vs-cold" "comment leg: observables differ from cold"
      else if asm comment <> asm cold then
        fail "warm-vs-cold" "comment leg: physical program differs from cold"
      else Ok ()
    in
    (* drop the in-process memos but keep the store: the warm leg must
       reconstruct the compile from persisted artifacts *)
    Regalloc.Driver.clear_memos ();
    let warm, _ =
      Regalloc.Driver.compile_incremental ~options ~store ~file source
    in
    let oc = observables cold and ow = observables warm in
    if oc = ow then Ok cold
    else
      let so, mo, po, wo = oc and ss, ms, ps, ws = ow in
      fail "warm-vs-cold"
        "cold (%s, moves=%d, spills=%d, cost=%.3f) vs warm (%s, moves=%d, \
         spills=%d, cost=%.3f)"
        so mo po wo ss ms ps ws
  with
  | Regalloc.Driver.Allocation_failed msg ->
      fail "warm-vs-cold" "allocation failed: %s" msg
  | e -> fail "warm-vs-cold" "compiler raised: %s" (Printexc.to_string e)

(* ---------------- the full stack ---------------- *)

let default_node_limit = 400

(* [ilp:false] runs only the cheap stages (print/reparse and
   interp-vs-baseline); used for high-count property tests *)
let check_source ?(node_limit = default_node_limit) ?(ilp = true) ~file source
    : (unit, failure) result =
  let dbg = Sys.getenv_opt "FUZZ_DEBUG" <> None in
  let mark what = if dbg then Printf.eprintf "[oracle] %s\n%!" what in
  mark "reparse";
  let* _p2 = reparse ~file source in
  mark "interp";
  let* result, imem = run_interp ~file source in
  ignore result;
  mark "compile-baseline";
  let* cb =
    compile ~stage:"interp-vs-sim" ~node_limit
      ~allocator:Regalloc.Driver.Baseline_allocator ~file source
  in
  mark "run-sim-baseline";
  let bmem = run_sim cb in
  mark "compare-baseline";
  let* () =
    compare_memories ~stage:"interp-vs-sim" ~what:"interpreter and simulator"
      (fun space w -> Ixp.Memory.peek imem space w)
      (peek_sim bmem)
  in
  mark "lint-baseline";
  let* () = lint_clean ~stage:"lint-baseline" cb in
  if not ilp then Ok ()
  else begin
    let options =
      {
        Regalloc.Driver.default_options with
        allocator = Regalloc.Driver.Ilp_allocator;
        node_limit;
      }
    in
    mark "warm-vs-cold";
    let* ci = warm_vs_cold ~options ~file source in
    mark "run-sim-ilp";
    let imem' = run_sim ci in
    mark "compare-ilp";
    let* () =
      compare_memories ~stage:"ilp-vs-baseline" ~what:"ILP and baseline"
        (peek_sim imem') (peek_sim bmem)
    in
    mark "lint-ilp";
    let* () = lint_clean ~stage:"lint-ilp" ci in
    Ok ()
  end

let check ?node_limit ?ilp (p : A.program) : (unit, failure) result =
  let source = Nova.Pp.program_to_string p in
  check_source ?node_limit ?ilp ~file:"<fuzz>" source
