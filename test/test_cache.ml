(* Tests for the incremental-compilation layer: content-hash keys,
   the two-tier artifact store, model fingerprint stability, and the
   stage-invalidation behavior of [Regalloc.Driver.compile_incremental]
   (a source edit must invalidate exactly the downstream stages). *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---------------- keys ---------------- *)

let test_key_determinism () =
  let src = "fun main () : word { 1 + 2 }" in
  checks "identical text, identical key" (Cache.Key.text src)
    (Cache.Key.text src);
  checkb "one-token edit changes the key" false
    (Cache.Key.text src = Cache.Key.text "fun main () : word { 1 + 3 }");
  checks "combine is deterministic"
    (Cache.Key.combine [ "a"; "bc" ])
    (Cache.Key.combine [ "a"; "bc" ]);
  (* length-prefixing: part boundaries matter, not just the concatenation *)
  checkb "combine separates parts" false
    (Cache.Key.combine [ "ab"; "c" ] = Cache.Key.combine [ "a"; "bc" ])

(* ---------------- store ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dirs_made = ref 0

(* [with_dir f] runs [f] on a fresh temporary directory path, which it
   removes afterwards, whatever [f] left there and whether or not it
   failed. *)
let with_dir f =
  incr dirs_made;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "novac-test-cache-%d-%d" (Unix.getpid ()) !dirs_made)
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_store_roundtrip () =
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  let key = Cache.Key.text "some input" in
  checkb "miss before store" true
    (Cache.Store.lookup store ~stage:"solve" ~key = None);
  let doc = Support.Json.Obj [ ("answer", Support.Json.Num 42.) ] in
  Cache.Store.store store ~stage:"solve" ~key doc;
  (match Cache.Store.lookup store ~stage:"solve" ~key with
  | Some d ->
      checkb "roundtrip value" true
        (Option.bind (Support.Json.member "answer" d) Support.Json.to_float
        = Some 42.)
  | None -> Alcotest.fail "stored artifact not found");
  (* stages are namespaced: the same key under another stage misses *)
  checkb "stage namespacing" true
    (Cache.Store.lookup store ~stage:"model" ~key = None);
  (* survives a memory clear (disk tier) *)
  Cache.Store.clear_memory store;
  checkb "disk tier survives memory clear" true
    (Cache.Store.lookup store ~stage:"solve" ~key <> None)

let test_store_eviction () =
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir ~mem_entries:4 ~disk_entries:4 () in
  for i = 1 to 12 do
    Cache.Store.store store ~stage:"s"
      ~key:(Cache.Key.text (string_of_int i))
      (Support.Json.Num (float_of_int i))
  done;
  let present = ref 0 in
  for i = 1 to 12 do
    if
      Cache.Store.lookup store ~stage:"s"
        ~key:(Cache.Key.text (string_of_int i))
      <> None
    then incr present
  done;
  checkb "eviction keeps the store within its cap" true (!present <= 8);
  checkb "the newest entry survives" true
    (Cache.Store.lookup store ~stage:"s" ~key:(Cache.Key.text "12") <> None)

let test_store_head_pointer () =
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  checkb "no head initially" true (Cache.Store.head store ~name:"h" = None);
  Cache.Store.set_head store ~name:"h" ~key:"k1";
  checkb "head set" true (Cache.Store.head store ~name:"h" = Some "k1");
  Cache.Store.set_head store ~name:"h" ~key:"k2";
  checkb "head moves" true (Cache.Store.head store ~name:"h" = Some "k2")

(* A hit refreshes the artifact's mtime, so the disk tier evicts the
   least recently used file rather than the oldest written.  The pauses
   keep the files' timestamps apart. *)
let test_store_disk_lru () =
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir ~disk_entries:2 () in
  let key name = Cache.Key.text name in
  let put name =
    Cache.Store.store store ~stage:"s" ~key:(key name) (Support.Json.Str name)
  in
  let on_disk name =
    Cache.Store.clear_memory store;
    Cache.Store.lookup store ~stage:"s" ~key:(key name) <> None
  in
  let pause () = Unix.sleepf 0.03 in
  put "a";
  pause ();
  put "b";
  pause ();
  checkb "a hits on disk" true (on_disk "a");
  pause ();
  put "c";
  checkb "a, used since b was written, survives" true (on_disk "a");
  checkb "b, least recently used, is evicted" false (on_disk "b")

(* A directory where an artifact should be cannot be read: the lookup
   is a miss, not an exception. *)
let test_store_directory_artifact () =
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  let key = Cache.Key.text "dir" in
  Unix.mkdir (Cache.Store.path store ~stage:"s" ~key) 0o755;
  let misses = Support.Metrics.counter "cache.miss" in
  let misses0 = Support.Metrics.counter_value misses in
  checkb "directory is a miss" true
    (Cache.Store.lookup store ~stage:"s" ~key = None);
  checki "miss counted" 1 (Support.Metrics.counter_value misses - misses0)

(* A directory where an artifact should be written cannot be replaced:
   the store returns, keeps the document in memory and leaves no
   temporary file behind. *)
let test_store_directory_artifact_on_store () =
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  let key = Cache.Key.text "dir on store" in
  Unix.mkdir (Cache.Store.path store ~stage:"s" ~key) 0o755;
  let doc = Support.Json.Obj [ ("answer", Support.Json.Num 7.) ] in
  Cache.Store.store store ~stage:"s" ~key doc;
  checkb "lookup answers from memory" true
    (Cache.Store.lookup store ~stage:"s" ~key = Some doc);
  checkb "no temporary file left" false
    (Array.exists
       (fun f -> Filename.check_suffix f ".tmp")
       (Sys.readdir dir))

(* A truncated artifact is a miss and is removed, so the next lookup
   does not parse it again and a fresh store of the key hits. *)
let test_store_truncated_artifact () =
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  let key = Cache.Key.text "cut" in
  let doc = Support.Json.Obj [ ("answer", Support.Json.Num 42.) ] in
  Cache.Store.store store ~stage:"s" ~key doc;
  Cache.Store.clear_memory store;
  let file = Cache.Store.path store ~stage:"s" ~key in
  let text = In_channel.with_open_bin file In_channel.input_all in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (String.sub text 0 (String.length text / 2)));
  checkb "truncated artifact is a miss" true
    (Cache.Store.lookup store ~stage:"s" ~key = None);
  checkb "truncated artifact removed" false (Sys.file_exists file);
  Cache.Store.store store ~stage:"s" ~key doc;
  Cache.Store.clear_memory store;
  checkb "stored again, it hits" true
    (Cache.Store.lookup store ~stage:"s" ~key = Some doc)

(* ---------------- model fingerprints ---------------- *)

(* A small loop; [small_src] runs it three times. *)
let small_loop bound =
  Printf.sprintf
    {|
fun main () : word {
  let (a, b, c, d) = sram(100);
  var acc = 0;
  var i = 0;
  while (i < %d) {
    acc := acc + a + b - c;
    i := i + 1;
  }
  sram(200) <- (acc, d);
  acc + d
}
|}
    bound

let small_src = small_loop 3

(* [small_src] with one token added to the result expression ("+ a"):
   this stretches [a]'s live range across the stores to the very end of
   the program, so the allocation model itself changes.  (Note that a
   mere opcode flip like "- c" -> "+ c" would NOT change the model: the
   ILP sees operands, liveness and program points, not instruction
   semantics, and the cache is correct to reuse the solve; see
   [small_src_opcode_flip].) *)
let small_src_semantic_edit =
  {|
fun main () : word {
  let (a, b, c, d) = sram(100);
  var acc = 0;
  var i = 0;
  while (i < 3) {
    acc := acc + a + b - c;
    i := i + 1;
  }
  sram(200) <- (acc, d);
  acc + d + a
}
|}

(* [small_src] with the opcode flip "- c" -> "+ c": a different program,
   so a different graph, but the same allocation model. *)
let small_src_opcode_flip =
  {|
fun main () : word {
  let (a, b, c, d) = sram(100);
  var acc = 0;
  var i = 0;
  while (i < 3) {
    acc := acc + a + b + c;
    i := i + 1;
  }
  sram(200) <- (acc, d);
  acc + d
}
|}

let build_problem source =
  let f =
    Regalloc.Driver.front_end ~entry:"main" ~entry_args:[]
      ~rematerialize:false ~verify_each:false ~file:"test.nova" source
  in
  let mg = Regalloc.Modelgen.build f.Regalloc.Driver.f_graph in
  let ilp = Regalloc.Ilp.build mg in
  ilp.Regalloc.Ilp.problem

let test_fingerprint_stability () =
  (* each build numbers its identifiers afresh, so two builds of the same
     source in one process give the same LP, names and order included *)
  let p1 = build_problem small_src in
  let p2 = build_problem small_src in
  checks "same source, same fingerprint" (Regalloc.Modelhash.fingerprint p1)
    (Regalloc.Modelhash.fingerprint p2);
  (* a trailing comment is trivia: same model, same fingerprint *)
  let p3 = build_problem (small_src ^ "\n// trailing comment\n") in
  checks "comment-only edit keeps the fingerprint"
    (Regalloc.Modelhash.fingerprint p1)
    (Regalloc.Modelhash.fingerprint p3);
  (* a semantic edit changes the model *)
  let p4 = build_problem small_src_semantic_edit in
  checkb "semantic edit changes the fingerprint" false
    (Regalloc.Modelhash.fingerprint p1 = Regalloc.Modelhash.fingerprint p4);
  (* the names key stored solutions: equal by index across builds, and
     free of duplicates *)
  let n1 = Regalloc.Modelhash.names p1 in
  let n2 = Regalloc.Modelhash.names p2 in
  checkb "name arrays agree across builds" true (n1 = n2);
  let module S = Set.Make (String) in
  checki "names are unique"
    (Array.length n1)
    (S.cardinal (S.of_list (Array.to_list n1)))

(* ---------------- the model memo's key ---------------- *)

(* The model memo's key of a two-block graph built by hand; each
   argument is one field the key must see.  [share] builds every use of
   an identifier from one record; without it each use gets a copy of its
   own, so an equal graph with other sharing must give the same key. *)
let graph_key ?(share = true) ?(entry = "entry") ?(swap = false)
    ?(op = Ixp.Insn.Add) ?(x_base = "x") ?(x_stamp = 1) ?(lit = 7) ?(disp = 4)
    ?(space = Ixp.Insn.Sram) ?(target = "exit") ?(cond = Ixp.Insn.Lt) () =
  let module I = Ixp.Insn in
  let made = Hashtbl.create 4 in
  let id base stamp =
    let fresh () = { Support.Ident.base; stamp } in
    if not share then fresh ()
    else
      match Hashtbl.find_opt made stamp with
      | Some v -> v
      | None ->
          let v = fresh () in
          Hashtbl.replace made stamp v;
          v
  in
  let x () = id x_base x_stamp and y () = id "y" 2 and z () = id "z" 3 in
  let blocks =
    [
      ( entry,
        [
          I.Imm { dst = y (); value = 1 };
          I.Alu { dst = z (); op; x = x (); y = I.Lit lit };
          I.Read
            {
              space;
              dsts = [| y () |];
              addr = { I.base = I.Reg (z ()); disp };
            };
        ],
        I.Branch
          { cond; x = y (); y = I.Reg (z ()); ifso = target; ifnot = "exit" } );
      ( "exit",
        [
          I.Write
            {
              space = I.Sram;
              srcs = [| y () |];
              addr = { I.base = I.Lit 0; disp = 0 };
            };
        ],
        I.Halt );
    ]
  in
  let g = Ixp.Flowgraph.create () in
  List.iter
    (fun (label, insns, term) ->
      ignore (Ixp.Flowgraph.add_block g ~label ~insns ~term))
    (if swap then List.rev blocks else blocks);
  Regalloc.Modelhash.graph_digest g

let test_graph_key_complete () =
  let key = graph_key () in
  checks "an equal graph built apart: the same key" key (graph_key ());
  checks "an equal graph shared otherwise: the same key" key
    (graph_key ~share:false ());
  List.iter
    (fun (what, other) ->
      checkb (what ^ " changes the key") false (other = key))
    [
      ("a block label", graph_key ~entry:"start" ());
      ("the block order", graph_key ~swap:true ());
      ("an opcode", graph_key ~op:Ixp.Insn.Sub ());
      ("a register's base", graph_key ~x_base:"w" ());
      ("a register's stamp", graph_key ~x_stamp:4 ());
      ("a literal", graph_key ~lit:8 ());
      ("an address displacement", graph_key ~disp:8 ());
      ("a memory space", graph_key ~space:Ixp.Insn.Scratch ());
      ("a terminator's target", graph_key ~target:"entry" ());
      ("a terminator's condition", graph_key ~cond:Ixp.Insn.Ge ());
    ]

(* ---------------- stage invalidation through the driver ---------------- *)

let fast_options =
  { Regalloc.Driver.default_options with time_limit = 60.; node_limit = 4096 }

let compile_inc ?(options = fast_options) store src =
  Regalloc.Driver.compile_incremental ~options ~store ~file:"test.nova" src

let test_stage_invalidation () =
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  (* cold compile: every stage misses *)
  let c0, r0 = compile_inc store small_src in
  checkb "cold: no front hit" false r0.Regalloc.Driver.front_hit;
  checkb "cold: no solve hit" false r0.Regalloc.Driver.solve_hit;
  checkb "cold: no full hit" false r0.Regalloc.Driver.full_hit;
  checkb "cold: fingerprint reported" true
    (r0.Regalloc.Driver.model_fingerprint <> "");
  (* identical source: pure full-compile hit, nothing recomputed *)
  let _, r1 = compile_inc store small_src in
  checkb "no-op: full hit" true r1.Regalloc.Driver.full_hit;
  (* in-process memos dropped (a fresh daemon, say): the front re-runs,
     the model is rebuilt, but the solve replays from disk *)
  Regalloc.Driver.clear_memos ();
  let c2, r2 = compile_inc store small_src in
  checkb "fresh memos: no full hit" false r2.Regalloc.Driver.full_hit;
  checkb "fresh memos: solve replays from disk" true
    r2.Regalloc.Driver.solve_hit;
  checks "fresh memos: same fingerprint" r0.Regalloc.Driver.model_fingerprint
    r2.Regalloc.Driver.model_fingerprint;
  check (Alcotest.float 1e-6) "fresh memos: same move cost"
    c0.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost
    c2.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost;
  (* comment-only edit: front invalidated, model fingerprint unchanged,
     solve replays *)
  let c3, r3 = compile_inc store (small_src ^ "\n// edited\n") in
  checkb "comment edit: no front hit" false r3.Regalloc.Driver.front_hit;
  checkb "comment edit: no full hit" false r3.Regalloc.Driver.full_hit;
  checkb "comment edit: model memo hits (the graph is unchanged)" true
    r3.Regalloc.Driver.model_hit;
  checks "comment edit: the cold fingerprint"
    r0.Regalloc.Driver.model_fingerprint r3.Regalloc.Driver.model_fingerprint;
  checkb "comment edit: solve replays" true r3.Regalloc.Driver.solve_hit;
  check (Alcotest.float 1e-6) "comment edit: same move cost"
    c0.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost
    c3.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost;
  (* solver-option edit (rel_gap): the model is untouched -- the memoized
     front and model are reused -- but the solve key changes *)
  let opt_gap = { fast_options with rel_gap = 0.25 } in
  let _, r4 = compile_inc ~options:opt_gap store (small_src ^ "\n// edited\n") in
  checkb "rel_gap change: front memo survives" true
    r4.Regalloc.Driver.front_hit;
  checkb "rel_gap change: model memo survives" true
    r4.Regalloc.Driver.model_hit;
  checkb "rel_gap change: solve re-runs" false r4.Regalloc.Driver.solve_hit;
  (* two comment lines prepended: every line shifts, the graph does not.
     The model and the solve replay, the code is what a plain compile of
     the edited text emits, and the provenance follows the new lines *)
  let shifted = "// one\n// two\n" ^ small_src in
  let c6, r6 = compile_inc store shifted in
  checkb "shifted lines: no front hit" false r6.Regalloc.Driver.front_hit;
  checkb "shifted lines: model memo hits" true r6.Regalloc.Driver.model_hit;
  checkb "shifted lines: solve replays" true r6.Regalloc.Driver.solve_hit;
  let asm (c : Regalloc.Driver.compiled) =
    Ixp.Asm.program_to_string c.Regalloc.Driver.physical
  in
  let plain =
    Regalloc.Driver.compile ~options:fast_options ~file:"test.nova" shifted
  in
  checks "shifted lines: the code of a plain compile" (asm plain) (asm c6);
  (* a label of the form blocks lowered from [main] print as (this
     program's blocks are all continuations, with fabricated bases) *)
  let main_label = "main_1" in
  let line (c : Regalloc.Driver.compiled) =
    match
      Regalloc.Driver.provenance_of_tprog c.Regalloc.Driver.tprog main_label
    with
    | Some loc -> Support.Srcloc.start_line loc
    | None -> Alcotest.failf "no provenance for %s" main_label
  in
  checki "shifted lines: provenance two lines down" (line c0 + 2) (line c6);
  (* opcode flip "- c" -> "+ c": the graph changes, so the model is
     rebuilt, but the LP does not, so the solve replays *)
  let _, r7 = compile_inc store small_src_opcode_flip in
  checkb "opcode flip: model rebuilt" false r7.Regalloc.Driver.model_hit;
  checkb "opcode flip: solve replays" true r7.Regalloc.Driver.solve_hit;
  checks "opcode flip: the cold fingerprint"
    r0.Regalloc.Driver.model_fingerprint r7.Regalloc.Driver.model_fingerprint;
  (* semantic one-token edit: model fingerprint changes, solve re-runs *)
  let _, r5 = compile_inc store small_src_semantic_edit in
  checkb "semantic edit: no front hit" false r5.Regalloc.Driver.front_hit;
  checkb "semantic edit: model rebuilt" false r5.Regalloc.Driver.model_hit;
  checkb "semantic edit: solve re-runs" false r5.Regalloc.Driver.solve_hit;
  checkb "semantic edit: new fingerprint" false
    (r5.Regalloc.Driver.model_fingerprint
    = r0.Regalloc.Driver.model_fingerprint)

(* Only solve artifacts and heads are ever read back, so they are all a
   cold compile writes to the store: the front and model stages are
   memo-only. *)
let test_store_holds_solves_only () =
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun dir ->
  ignore (compile_inc (Cache.Store.create ~dir ()) small_src);
  let files = Array.to_list (Sys.readdir dir) in
  checkb "a solve artifact is stored" true
    (List.exists (fun f -> String.starts_with ~prefix:"solve-" f) files);
  List.iter
    (fun f ->
      checkb (f ^ " is a solve artifact or a head") true
        ((String.starts_with ~prefix:"solve-" f
         && Filename.check_suffix f ".json")
        || Filename.check_suffix f ".head"))
    files

(* A head file that does not lead to an artifact -- [plant] makes it
   unreadable or garbage -- is no head: the compile solves cold and
   returns the cold compile's move cost.  The head names are the ones a
   cold compile of the same source leaves in a store of its own. *)
let bad_head_solves_cold plant () =
  let cost (c : Regalloc.Driver.compiled) =
    c.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost
  in
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun dir ->
  let cold, _ = compile_inc (Cache.Store.create ~dir ()) small_src in
  let heads =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".head")
  in
  checkb "the cold compile leaves a head" true (heads <> []);
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  List.iter (fun f -> plant (Filename.concat dir f)) heads;
  Regalloc.Driver.clear_memos ();
  let c, r = compile_inc store small_src in
  checkb "solved, not replayed" false r.Regalloc.Driver.solve_hit;
  checkb "no warm start" false r.Regalloc.Driver.warm_used;
  check (Alcotest.float 0.) "the cold move cost" (cost cold) (cost c)

let test_store_directory_head =
  bad_head_solves_cold (fun file -> Unix.mkdir file 0o755)

let test_store_garbage_head =
  bad_head_solves_cold (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc "no-such-key\x00\xff"))

(* A solve artifact stored by an older search is a miss.  The solve key
   of the first version ("solve:v1", before branch and bound branched on
   colors first) is rebuilt here by its old formula; a cold compile's
   own artifact stored under it must not replay, while the same
   artifact under the current key does. *)
let test_old_solve_key_misses () =
  Regalloc.Driver.clear_memos ();
  let o = fast_options in
  let doc, fingerprint =
    with_dir @@ fun dir ->
    let store = Cache.Store.create ~dir () in
    let _, r = compile_inc store small_src in
    let fingerprint = r.Regalloc.Driver.model_fingerprint in
    let key = Regalloc.Driver.solve_key o ~fingerprint in
    (Option.get (Cache.Store.lookup store ~stage:"solve" ~key), fingerprint)
  in
  let v1_key =
    Cache.Key.combine
      [
        "solve:v1";
        fingerprint;
        Cache.Key.combine
          [
            "solve:v1";
            Printf.sprintf "%.17g" o.Regalloc.Driver.time_limit;
            string_of_int o.Regalloc.Driver.node_limit;
            Printf.sprintf "%.17g" o.Regalloc.Driver.rel_gap;
          ];
      ]
  in
  let replays key =
    with_dir @@ fun dir ->
    let store = Cache.Store.create ~dir () in
    Cache.Store.store store ~stage:"solve" ~key doc;
    Regalloc.Driver.clear_memos ();
    (snd (compile_inc store small_src)).Regalloc.Driver.solve_hit
  in
  checkb "the old key differs" false
    (v1_key = Regalloc.Driver.solve_key o ~fingerprint);
  checkb "stored under the old key: a miss" false (replays v1_key);
  checkb "stored under the current key: a hit" true
    (replays (Regalloc.Driver.solve_key o ~fingerprint))

(* AES with one checksum line deleted: an edit that changes the model
   while the previous allocation still fits most of it. *)
let aes_c3_line = "csum := csum + (c3 >> 16) + (c3 & 0xFFFF);"

let aes_edited =
  String.split_on_char '\n' Workloads.Aes.source
  |> List.filter (fun l -> String.trim l <> aes_c3_line)
  |> String.concat "\n"

(* The node budget at which the AES search branches (see
   [test_regalloc.ml]'s pins). *)
let aes_options = { fast_options with node_limit = 128 }

let compile_aes store src =
  Regalloc.Driver.compile_incremental ~options:aes_options ~store
    ~file:"aes.nova" src

let aes_cost (c : Regalloc.Driver.compiled) =
  c.Regalloc.Driver.stats.Regalloc.Driver.weighted_move_cost

let aes_mip (c : Regalloc.Driver.compiled) =
  Option.get c.Regalloc.Driver.stats.Regalloc.Driver.mip

(* A model-changing edit compiled through the store that holds the
   previous solve starts warm: the previous solution seeds the incumbent,
   and the search proves the cold compile's optimum, bit for bit, in
   fewer nodes (11 against 128 when this test was written). *)
let test_warm_start_fires () =
  checkb "the edit deletes one line" true
    (String.length aes_edited < String.length Workloads.Aes.source);
  Regalloc.Driver.clear_memos ();
  let cold =
    with_dir @@ fun dir ->
    fst (compile_aes (Cache.Store.create ~dir ()) aes_edited)
  in
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  ignore (compile_aes store Workloads.Aes.source);
  let warm, r = compile_aes store aes_edited in
  checkb "solved live" false r.Regalloc.Driver.solve_hit;
  checkb "warm start used" true r.Regalloc.Driver.warm_used;
  checks "incumbent source" "seeded" (aes_mip warm).Lp.Mip.incumbent_source;
  checks "outcome" "optimal"
    (Regalloc.Driver.solver_outcome_to_string
       warm.Regalloc.Driver.stats.Regalloc.Driver.solver_outcome);
  check (Alcotest.float 0.) "the cold move cost" (aes_cost cold)
    (aes_cost warm);
  let nodes c = (aes_mip c).Lp.Mip.nodes in
  checkb
    (Printf.sprintf "fewer nodes than cold (%d < %d)" (nodes warm)
       (nodes cold))
    true
    (nodes warm < nodes cold)

(* A solve artifact written while the warm start also carried a
   pseudocost table has a "ws" field ("values": the hints by name, "pc":
   four numbers per variable).  It still replays, and its solution still
   seeds a later model-changing edit. *)
let test_old_artifact_with_ws () =
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  let _, r = compile_aes store Workloads.Aes.source in
  let key =
    Regalloc.Driver.solve_key aes_options
      ~fingerprint:r.Regalloc.Driver.model_fingerprint
  in
  let fields =
    match Cache.Store.lookup store ~stage:"solve" ~key with
    | Some (Support.Json.Obj fields) -> fields
    | _ -> Alcotest.fail "no solve artifact"
  in
  let solution =
    match List.assoc "solution" fields with
    | Support.Json.Obj sol -> sol
    | _ -> Alcotest.fail "no solution in the artifact"
  in
  let num f = Support.Json.Num f in
  let ws =
    Support.Json.Obj
      [
        ( "values",
          Support.Json.Obj
            (List.map
               (fun (name, v) ->
                 let v = Option.get (Support.Json.to_float v) in
                 (name, num (Float.round v)))
               solution) );
        ( "pc",
          Support.Json.Obj
            (List.map
               (fun (name, _) ->
                 (name, Support.Json.Arr [ num 0.5; num 3.; num 2.; num 1. ]))
               solution) );
      ]
  in
  Cache.Store.store store ~stage:"solve" ~key
    (Support.Json.Obj (fields @ [ ("ws", ws) ]));
  Cache.Store.clear_memory store;
  Regalloc.Driver.clear_memos ();
  let _, replay = compile_aes store Workloads.Aes.source in
  checkb "the old artifact replays" true replay.Regalloc.Driver.solve_hit;
  let _, edit = compile_aes store aes_edited in
  checkb "the edit solves live" false edit.Regalloc.Driver.solve_hit;
  checkb "the old artifact seeds the edit" true edit.Regalloc.Driver.warm_used

(* The in-process memos evict their least recently used entry.  After
   eight distinct compiles and a resend of the first, a ninth distinct
   compile evicts one entry from each memo (front, model and full); in
   the full memo that is the second program, while the first, just
   resent, and the ninth, just compiled, still hit in full.  The
   programs differ in code (the loop bound), not only in text, so each
   has a graph and a model entry of its own. *)
let test_memo_lru () =
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  let variant i = small_loop (i + 2) in
  for i = 1 to 8 do
    ignore (compile_inc store (variant i))
  done;
  let _, r1 = compile_inc store (variant 1) in
  checkb "resent first: full hit" true r1.Regalloc.Driver.full_hit;
  let evict = Support.Metrics.counter "cache.evict" in
  let evict0 = Support.Metrics.counter_value evict in
  let _, r9 = compile_inc store (variant 9) in
  checkb "ninth: no full hit" false r9.Regalloc.Driver.full_hit;
  checki "ninth: one eviction per memo" 3
    (Support.Metrics.counter_value evict - evict0);
  let _, r9' = compile_inc store (variant 9) in
  checkb "ninth resent: full hit" true r9'.Regalloc.Driver.full_hit;
  let _, r1' = compile_inc store (variant 1) in
  checkb "recently used first: still a full hit" true
    r1'.Regalloc.Driver.full_hit;
  let _, r2 = compile_inc store (variant 2) in
  checkb "least recently used second: evicted" false
    r2.Regalloc.Driver.full_hit

(* A job that fails inside the artifact store, here because a plain file
   replaced the directory that holds the store's directory, so the store
   cannot recreate it, gets an error response and is counted; the daemon
   then answers the next job on the same store.  (A plain file in place
   of the store's own directory no longer fails a job: the artifacts it
   cannot write stay in memory.) *)
let test_daemon_survives_failing_job () =
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun parent ->
  let dir = Filename.concat parent "cache" in
  let store = Cache.Store.create ~dir () in
  Sys.rmdir dir;
  Sys.rmdir parent;
  close_out (open_out parent);
  let config =
    {
      Service.Daemon.socket_path = "unused.sock";
      cache_dir = Some dir;
      base_options = fast_options;
      verbose = false;
    }
  in
  let compile () =
    fst
      (Service.Daemon.handle_request config store
         (Service.Protocol.Compile
            {
              Service.Protocol.job_file = "test.nova";
              job_source = small_src;
              job_time_limit = None;
              job_node_limit = None;
              job_rel_gap = None;
              job_allocator = None;
              job_objective = None;
              job_entry = None;
            }))
  in
  let ok response =
    Support.Json.member "ok" response = Some (Support.Json.Bool true)
  in
  let errors = Support.Metrics.counter "service.job_errors" in
  let errors0 = Support.Metrics.counter_value errors in
  checkb "failing job: ok is false" false (ok (compile ()));
  checki "failing job counted" 1
    (Support.Metrics.counter_value errors - errors0);
  Sys.remove parent;
  checkb "next job answered" true (ok (compile ()))

(* Malformed requests on one connection: each bad line is answered in
   order with an error that starts with what is wrong, a compile
   override that is mistyped, unknown or out of range included, and the
   connection goes on to answer the ping that follows. *)
let test_daemon_malformed_requests () =
  let module J = Support.Json in
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  let config =
    {
      Service.Daemon.socket_path = "unused.sock";
      cache_dir = Some dir;
      base_options = fast_options;
      verbose = false;
    }
  in
  let job extra =
    ("file", J.Str "test.nova") :: ("source", J.Str small_src) :: extra
  in
  let compile extra = J.encode (J.Obj (("op", J.Str "compile") :: job extra)) in
  let bad =
    [
      ("not JSON", {|{"op":|}, "bad request: ");
      ("not an object", "[1]", {|missing "op"|});
      ("unknown op", {|{"op":"nope"}|}, {|unknown op "nope"|});
      ( "no source", {|{"op":"compile","file":"test.nova"}|},
        {|compile job: missing "source"|} );
      ( "unknown allocator", compile [ ("allocator", J.Str "ilpp") ],
        {|compile job: "allocator" must be|} );
      ( "mistyped node_limit", compile [ ("node_limit", J.Str "ten") ],
        {|compile job: "node_limit" must be|} );
      ( "negative time_limit", compile [ ("time_limit", J.Num (-1.)) ],
        {|compile job: "time_limit" must be|} );
      ( "infinite rel_gap",
        {|{"op":"compile","file":"t.nova","source":"","rel_gap":1e999}|},
        {|compile job: "rel_gap" must be|} );
      ( "mistyped entry", compile [ ("entry", J.Num 3.) ],
        {|compile job: "entry" must be|} );
      ( "batch with one bad job",
        J.encode
          (J.Obj
             [ ("op", J.Str "batch");
               ("jobs",
                 J.Arr
                   [ J.Obj (job []);
                     J.Obj (job [ ("node_limit", J.Num 1e30) ]) ] ) ]),
        {|compile job: "node_limit" must be|} );
    ]
  in
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close ours) @@ fun () ->
  let oc = Unix.out_channel_of_descr ours in
  List.iter (fun (_, line, _) -> output_string oc (line ^ "\n")) bad;
  output_string oc {|{"op":"ping"}|};
  output_char oc '\n';
  flush oc;
  Unix.shutdown ours Unix.SHUTDOWN_SEND;
  checkb "verdict" true
    (Service.Daemon.serve_connection config store theirs = `Continue);
  let ic = Unix.in_channel_of_descr ours in
  let rec responses acc =
    match input_line ic with
    | line -> responses (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = responses [] in
  checki "one response per line" (List.length bad + 1) (List.length responses);
  let parse line =
    match J.parse line with Ok doc -> doc | Error e -> Alcotest.fail e
  in
  let str name doc = Option.bind (J.member name doc) J.to_string in
  List.iter2
    (fun (what, _, expected) line ->
      let doc = parse line in
      checkb (what ^ ": ok is false") true
        (J.member "ok" doc = Some (J.Bool false));
      match str "error" doc with
      | Some e when String.starts_with ~prefix:expected e -> ()
      | e ->
          Alcotest.failf "%s: error %S does not start with %S" what
            (Option.value ~default:"(none)" e) expected)
    bad
    (List.filteri (fun i _ -> i < List.length bad) responses);
  let ping = parse (List.nth responses (List.length bad)) in
  checkb "ping answered" true (J.member "ok" ping = Some (J.Bool true));
  checkb "ping op" true (str "op" ping = Some "ping")

(* [with_daemon f] runs a daemon on a fresh socket in its own domain and
   calls [f] with the socket's path.  Then the daemon must answer a new
   client's ping and shutdown, and it ends; the result is [f]'s. *)
let with_daemon f =
  Regalloc.Driver.clear_memos ();
  with_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  let socket_path = Filename.concat dir "daemon.sock" in
  let config =
    {
      Service.Daemon.socket_path;
      cache_dir = Some (Filename.concat dir "cache");
      base_options = fast_options;
      verbose = false;
    }
  in
  let daemon = Domain.spawn (fun () -> Service.Daemon.run config) in
  let result = f socket_path in
  let t = Service.Client.connect_retry ~socket_path () in
  let ping = Service.Client.ping t in
  let shutdown = Service.Client.shutdown t in
  Service.Client.close t;
  Domain.join daemon;
  checkb "next client's ping answered" true (Result.is_ok ping);
  checkb "shutdown answered" true (Result.is_ok shutdown);
  result

(* A client that sends a compile and disconnects before its response
   costs the daemon that connection only: the failed write is an error
   the connection handler catches, not a SIGPIPE that ends the process,
   so the next client's ping is answered and a shutdown ends the daemon
   cleanly. *)
let test_daemon_survives_disconnect () =
  with_daemon @@ fun socket_path ->
  let quitter = Service.Client.connect_retry ~socket_path () in
  let request =
    Service.Client.compile_request ~node_limit:64 ~file:"test.nova"
      ~source:small_src ()
  in
  output_string quitter.Service.Client.oc
    (Support.Json.encode request ^ "\n");
  flush quitter.Service.Client.oc;
  Service.Client.close quitter

(* A request line longer than the daemon's cap is answered with an error
   and its connection closed: the ping sent after it on the same
   connection gets no answer, while the next client's ping does. *)
let test_daemon_refuses_oversized_request () =
  let responses =
    with_daemon @@ fun socket_path ->
    let c = Service.Client.connect_retry ~socket_path () in
    (* the daemon may close the connection before the ping is written:
       with SIGPIPE ignored by [Daemon.run], that write fails here *)
    (try
       output_string c.Service.Client.oc
         (String.make (Service.Daemon.max_request_bytes + 1) 'x');
       output_string c.Service.Client.oc "\n{\"op\":\"ping\"}\n";
       flush c.Service.Client.oc;
       Unix.shutdown c.Service.Client.fd Unix.SHUTDOWN_SEND
     with Sys_error _ | Unix.Unix_error _ -> ());
    let rec responses acc =
      match input_line c.Service.Client.ic with
      | line -> responses (line :: acc)
      | exception (End_of_file | Sys_error _) -> List.rev acc
    in
    let responses = responses [] in
    Service.Client.close c;
    responses
  in
  checki "one response, then the connection closes" 1 (List.length responses);
  let doc =
    match Support.Json.parse (List.hd responses) with
    | Ok doc -> doc
    | Error e -> Alcotest.fail e
  in
  checkb "ok is false" true
    (Support.Json.member "ok" doc = Some (Support.Json.Bool false));
  checkb "the error names the cap" true
    (Option.bind (Support.Json.member "error" doc) Support.Json.to_string
    = Some
        (Printf.sprintf "bad request: line longer than %d bytes"
           Service.Daemon.max_request_bytes))

(* The same source sent twice is a full hit the second time.  After that
   compile the daemon's answer for QoS is a plain compile's: the same
   code, move cost and nodes.  [clear-cache] then drops the in-memory
   tiers only: the first source sent again re-runs the front end and
   rebuilds the model, replays the solve from disk, and answers with the
   same code and move cost. *)
let test_daemon_clear_cache () =
  let module J = Support.Json in
  let qos =
    Regalloc.Driver.compile ~options:fast_options ~file:"qos.nova"
      Workloads.Qos.source
  in
  let first, second, daemon_qos, cleared, again =
    with_daemon @@ fun socket_path ->
    let t = Service.Client.connect_retry ~socket_path () in
    let compile ?(file = "test.nova") source =
      match Service.Client.compile ~file ~source t with
      | Ok resp -> resp
      | Error e -> Alcotest.fail e
    in
    let first = compile small_src in
    let second = compile small_src in
    let daemon_qos = compile ~file:"qos.nova" Workloads.Qos.source in
    let cleared = Service.Client.clear_cache t in
    let again = compile small_src in
    Service.Client.close t;
    (first, second, daemon_qos, cleared, again)
  in
  let field path doc =
    List.fold_left (fun doc name -> Option.bind doc (J.member name)) (Some doc)
      path
  in
  checkb "second request: full hit" true
    (field [ "cache"; "full" ] second = Some (J.Bool true));
  let stats = qos.Regalloc.Driver.stats in
  checkb "QoS: a plain compile's code" true
    (field [ "asm" ] daemon_qos
    = Some (J.Str (Ixp.Asm.program_to_string qos.Regalloc.Driver.physical)));
  checkb "QoS: a plain compile's move cost" true
    (Option.bind (field [ "weighted_move_cost" ] daemon_qos) J.to_float
    = Some stats.Regalloc.Driver.weighted_move_cost);
  checkb "QoS: a plain compile's nodes" true
    (Option.bind (field [ "solver"; "nodes" ] daemon_qos) J.to_float
    = Some
        (float_of_int (Option.get stats.Regalloc.Driver.mip).Lp.Mip.nodes));
  checkb "clear-cache answered ok" true
    (Result.map (J.member "ok") cleared = Ok (Some (J.Bool true)));
  List.iter
    (fun (tier, hit) ->
      checkb
        (Printf.sprintf "after clear-cache: %s hit is %b" tier hit)
        true
        (field [ "cache"; tier ] again = Some (J.Bool hit)))
    [ ("full", false); ("front", false); ("model", false); ("solve", true) ];
  List.iter
    (fun name ->
      checkb (name ^ " unchanged") true
        (J.member name first <> None
        && J.member name first = J.member name again))
    [ "asm"; "weighted_move_cost" ]

let suites =
  [
    ( "cache.key",
      [
        Alcotest.test_case "content hashing" `Quick test_key_determinism;
      ] );
    ( "cache.store",
      [
        Alcotest.test_case "roundtrip + tiers" `Quick test_store_roundtrip;
        Alcotest.test_case "eviction" `Quick test_store_eviction;
        Alcotest.test_case "head pointers" `Quick test_store_head_pointer;
        Alcotest.test_case "disk tier evicts least recently used" `Quick
          test_store_disk_lru;
        Alcotest.test_case "directory in place of an artifact" `Quick
          test_store_directory_artifact;
        Alcotest.test_case "directory in place of an artifact on store" `Quick
          test_store_directory_artifact_on_store;
        Alcotest.test_case "truncated artifact removed" `Quick
          test_store_truncated_artifact;
        Alcotest.test_case "directory in place of a head" `Quick
          test_store_directory_head;
        Alcotest.test_case "head naming no artifact" `Quick
          test_store_garbage_head;
      ] );
    ( "cache.fingerprint",
      [
        Alcotest.test_case "stability across builds" `Quick
          test_fingerprint_stability;
        Alcotest.test_case "the model memo's key sees the whole graph" `Quick
          test_graph_key_complete;
      ] );
    ( "cache.driver",
      [
        Alcotest.test_case "stage invalidation" `Quick test_stage_invalidation;
        Alcotest.test_case "a cold compile stores solves and heads only"
          `Quick test_store_holds_solves_only;
        Alcotest.test_case "memo evicts least recently used" `Quick
          test_memo_lru;
        Alcotest.test_case "an artifact under the old solve key is a miss"
          `Quick test_old_solve_key_misses;
        Alcotest.test_case "a model-changing edit starts warm" `Quick
          test_warm_start_fires;
        Alcotest.test_case "an artifact with the old ws field" `Quick
          test_old_artifact_with_ws;
      ] );
    ( "service.daemon",
      [
        Alcotest.test_case "a failing job is answered" `Quick
          test_daemon_survives_failing_job;
        Alcotest.test_case "malformed requests on one connection" `Quick
          test_daemon_malformed_requests;
        Alcotest.test_case "a client that disconnects early" `Quick
          test_daemon_survives_disconnect;
        Alcotest.test_case "an oversized request line is refused" `Quick
          test_daemon_refuses_oversized_request;
        Alcotest.test_case "clear-cache keeps the disk tier" `Quick
          test_daemon_clear_cache;
      ] );
  ]
