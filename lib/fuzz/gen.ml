(* Seeded generator of well-typed Nova programs.

   Programs are generated directly as typed ASTs: every production keeps
   track of the type it must deliver (word, bool or unit), so the output
   typechecks by construction.  The oracle then pretty-prints the AST,
   re-parses it and runs the differential stack on the printed source --
   the printed text is the single artifact that replays from the corpus.

   Two disciplines keep generated programs total and comparable:

   - every loop is counted: `var i = 0; while (i <u N) { ...; i := i+1 }`
     with a literal bound and the counter excluded from the assignable
     set, so programs terminate on both the CPS interpreter and the
     chip simulator;
   - every memory effective address is `BASE + (e & MASK)` inside a
     fixed sandbox, with reads and writes in disjoint sub-regions, so
     runs are deterministic and the oracle can diff a bounded window.

   Bank pressure comes from a prologue of simultaneously-live lets that
   are only combined at the very end of `main`, forcing the allocator to
   keep them across the memory traffic in between. *)

module A = Nova.Ast

let dloc = Support.Srcloc.dummy

(* ---------------- sandbox memory map (byte addresses) ---------------- *)

(* Reads come from the read-only windows (pre-seeded with a fixed
   pattern by the oracle); writes land in the read-write windows.  The
   result slot sits just past the SRAM write window.  Everything stays
   far from the workload tables and from the scratch spill area at the
   top of scratch. *)

let sram_ro_base = 0x1000
let sram_ro_words = 64
let sram_rw_base = 0x2000
let result_addr = 0x2100
let scratch_ro_base = 0x100
let scratch_ro_words = 32
let scratch_rw_base = 0x180
let sdram_ro_base = 0x400
let sdram_ro_words = 128
let sdram_rw_base = 0x600

(* masked dynamic offsets keep every access fully inside its window
   (see [gen_addr]); the oracle's comparison regions are supersets *)
let sram_mask = 0xfc
let scratch_mask = 0x7c
let sdram_mask = 0x1f8

(* ---------------- generator state ---------------- *)

type env = {
  rng : Random.State.t;
  mutable fuel : int; (* expression-node budget *)
  mutable words : string list; (* word-typed lets/params in scope *)
  mutable mutables : string list; (* assignable vars (loop counters excluded) *)
  mutable fresh : int;
  mutable helpers : (string * int) list; (* pure helpers: name, arity *)
  mutable consts : string list;
}

let rand env n = Random.State.int env.rng n

(* List.init with a guaranteed left-to-right evaluation order: the
   generator's side effects (fresh names, RNG draws) must be ordered for
   seed-reproducibility *)
let init_ordered n f =
  let rec go i = if i >= n then [] else let x = f i in x :: go (i + 1) in
  go 0
let pick env l = List.nth l (rand env (List.length l))

let fresh env prefix =
  let n = env.fresh in
  env.fresh <- n + 1;
  Printf.sprintf "%s%d" prefix n

let interesting =
  [| 0; 1; 2; 3; 5; 7; 0xff; 0x100; 0xffff; 0x7fffffff; 0x80000000;
     0xffffffff; 0xdeadbeef; 0x12345678 |]

let gen_int env =
  if rand env 3 = 0 then interesting.(rand env (Array.length interesting))
  else rand env 4096

(* ---------------- expressions ---------------- *)

let word_leaf env =
  let vars = env.words @ env.consts in
  if vars <> [] && rand env 4 < 3 then A.Var (pick env vars, dloc)
  else A.Int (gen_int env, dloc)

let arith_ops = [ A.Add; A.Sub; A.Mul; A.And; A.Or; A.Xor ]
let shift_ops = [ A.Shl; A.Shr; A.Asr ]
let cmp_ops = [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge; A.Ult; A.Uge ]

(* effective address: BASE + (e & MASK), or an aligned literal.

   [words] is the width of the access the address feeds: the mask is
   tightened so even the highest offset keeps the whole multi-word
   access inside its window.  Without the clamp an n-word read at the
   top of the read-only window runs into the adjacent read-write
   window, and the race whitelist (which only absorbs accesses fully
   inside a single region) reports it against concurrent writes. *)
let gen_addr env ~base ~mask ~align ?(words = 1) depth gen_word =
  let mask = mask - (align * (words - 1)) in
  if depth <= 0 || rand env 2 = 0 then
    A.Int (base + (rand env ((mask / align) + 1) * align), dloc)
  else
    A.Binop
      ( A.Add,
        A.Int (base, dloc),
        A.Binop (A.And, gen_word env (depth - 1), A.Int (mask, dloc), dloc),
        dloc )

let rec gen_word env depth : A.expr =
  env.fuel <- env.fuel - 1;
  if depth <= 0 || env.fuel <= 0 then word_leaf env
  else
    match rand env 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        A.Binop (pick env arith_ops, gen_word env (depth - 1),
                 gen_word env (depth - 1), dloc)
    | 6 | 7 ->
        (* shift amounts are literal 0..31: interpreter and simulator
           agree on in-range shifts; out-of-range is hardware lore we do
           not want the generator to depend on *)
        A.Binop (pick env shift_ops, gen_word env (depth - 1),
                 A.Int (rand env 32, dloc), dloc)
    | 8 ->
        A.Unop ((if rand env 2 = 0 then A.Not else A.Neg),
                gen_word env (depth - 1), dloc)
    | 9 | 10 ->
        A.If (gen_bool env (depth - 1), gen_word env (depth - 1),
              gen_word env (depth - 1), dloc)
    | 11 -> A.Hash (gen_word env (depth - 1), dloc)
    | 12 | 13 ->
        (* single-word memory read from a read-only window *)
        let space, base, mask =
          match rand env 3 with
          | 0 -> (A.Sram, sram_ro_base, sram_mask)
          | 1 -> (A.Scratch, scratch_ro_base, scratch_mask)
          | _ -> (A.Sram, sram_rw_base, sram_mask)
        in
        A.MemRead (space, gen_addr env ~base ~mask ~align:4 depth gen_word,
                   Some 1, dloc)
    | 14 when env.helpers <> [] ->
        let f, arity = pick env env.helpers in
        let args =
          init_ordered arity (fun _ -> A.Apos (gen_word env (depth - 1)))
        in
        A.Call (f, args, dloc)
    | 15 when depth >= 2 -> gen_try env depth
    | _ -> word_leaf env

and gen_bool env depth : A.expr =
  env.fuel <- env.fuel - 1;
  if depth <= 0 || env.fuel <= 0 then
    A.Binop (pick env cmp_ops, word_leaf env, word_leaf env, dloc)
  else
    match rand env 6 with
    | 0 ->
        A.Binop ((if rand env 2 = 0 then A.LAnd else A.LOr),
                 gen_bool env (depth - 1), gen_bool env (depth - 1), dloc)
    | 1 -> A.Unop (A.LNot, gen_bool env (depth - 1), dloc)
    | 2 -> A.Bool (rand env 2 = 0, dloc)
    | _ ->
        A.Binop (pick env cmp_ops, gen_word env (depth - 1),
                 gen_word env (depth - 1), dloc)

(* try { if (c) { raise Fz [v = e]; } w } handle Fz [v : word] { w' } *)
and gen_try env depth : A.expr =
  let cond = gen_bool env (depth - 1) in
  let payload = gen_word env (depth - 1) in
  let normal = gen_word env (depth - 1) in
  let saved = env.words in
  env.words <- "fzv" :: env.words;
  let hbody = gen_word env (depth - 1) in
  env.words <- saved;
  let body =
    A.Seq
      ( A.If
          ( cond,
            A.Seq
              ( A.Raise ("Fz", [ A.Anamed ("fzv", payload) ], dloc),
                A.Unit dloc, dloc ),
            A.Unit dloc, dloc ),
        normal, dloc )
  in
  A.Try
    ( body,
      [ { A.hexn = "Fz"; hparams = [ ("fzv", Some (A.Tword dloc)) ];
          hbody; hloc = dloc } ],
      dloc )

(* ---------------- statements ---------------- *)

(* A statement block is a parse-shaped expression spine: Let/Vardecl
   nest, everything else is Seq (stmt, rest).  [tail] supplies the final
   expression once the statement budget runs out. *)

let gen_memwrite env depth =
  match rand env 4 with
  | 0 | 1 ->
      let addr =
        gen_addr env ~base:sram_rw_base ~mask:sram_mask ~align:4 depth
          gen_word
      in
      A.MemWrite (A.Sram, addr, gen_word env (depth - 1), dloc)
  | 2 ->
      let addr =
        gen_addr env ~base:scratch_rw_base ~mask:scratch_mask ~align:4 depth
          gen_word
      in
      A.MemWrite (A.Scratch, addr, gen_word env (depth - 1), dloc)
  | _ ->
      (* SDRAM moves quadwords: writes take a (lo, hi) pair *)
      let addr =
        gen_addr env ~base:sdram_rw_base ~mask:sdram_mask ~align:8 depth
          gen_word
      in
      A.MemWrite
        ( A.Sdram, addr,
          A.Tuple ([ gen_word env (depth - 1); gen_word env (depth - 1) ],
                   dloc),
          dloc )

let rec gen_stmts env ~nstmts ~loop_depth ~tail : A.expr =
  if nstmts <= 0 || env.fuel <= 0 then tail env
  else
    let rest env = gen_stmts env ~nstmts:(nstmts - 1) ~loop_depth ~tail in
    match rand env 12 with
    | 0 | 1 | 2 ->
        let x = fresh env "x" in
        let rhs = gen_word env (1 + rand env 3) in
        env.words <- x :: env.words;
        A.Let (A.Pvar (x, dloc), None, rhs, rest env, dloc)
    | 3 ->
        (* let (a, b, ...) = space(addr, n); *)
        let space, base, mask, align, counts =
          match rand env 3 with
          | 0 -> (A.Sram, sram_ro_base, sram_mask, 4, [ 2; 3; 4 ])
          | 1 -> (A.Scratch, scratch_ro_base, scratch_mask, 4, [ 2; 3; 4 ])
          | _ -> (A.Sdram, sdram_ro_base, sdram_mask, 8, [ 2; 4 ])
        in
        let n = pick env counts in
        let names = init_ordered n (fun _ -> fresh env "t") in
        let addr = gen_addr env ~base ~mask ~align ~words:n 2 gen_word in
        env.words <- names @ env.words;
        A.Let
          ( A.Ptuple (names, dloc), None,
            A.MemRead (space, addr, Some n, dloc), rest env, dloc )
    | 4 ->
        let x = fresh env "v" in
        let ty = if rand env 2 = 0 then Some (A.Tword dloc) else None in
        let rhs = gen_word env (1 + rand env 2) in
        env.mutables <- x :: env.mutables;
        A.Vardecl (x, ty, rhs, rest env, dloc)
    | 5 when env.mutables <> [] ->
        (* bind the statement before [rest]: constructor arguments
           evaluate right-to-left, and the statement must only see
           variables bound above it *)
        let x = pick env env.mutables in
        let s = A.Assign (x, gen_word env (1 + rand env 3), dloc) in
        A.Seq (s, rest env, dloc)
    | 6 | 7 ->
        let s = gen_memwrite env 2 in
        A.Seq (s, rest env, dloc)
    | 8 when loop_depth < 2 -> gen_while env ~nstmts ~loop_depth ~tail
    | 9 ->
        (* unit-typed if statement *)
        let cond = gen_bool env 2 in
        let branch env =
          let s =
            if env.mutables <> [] && rand env 2 = 0 then
              A.Assign (pick env env.mutables, gen_word env 2, dloc)
            else gen_memwrite env 2
          in
          A.Seq (s, A.Unit dloc, dloc)
        in
        let then_ = branch env in
        let else_ = if rand env 2 = 0 then branch env else A.Unit dloc in
        let s = A.If (cond, then_, else_, dloc) in
        A.Seq (s, rest env, dloc)
    | _ ->
        let x = fresh env "x" in
        let rhs = gen_word env (2 + rand env 2) in
        env.words <- x :: env.words;
        A.Let (A.Pvar (x, dloc), None, rhs, rest env, dloc)

(* var i = 0; while (i <u N) { body...; i := i + 1; }; rest *)
and gen_while env ~nstmts ~loop_depth ~tail : A.expr =
  let i = fresh env "i" in
  let bound = 1 + rand env 6 in
  let saved_mut = env.mutables in
  (* the counter is NOT in [mutables]: nothing inside may retarget it,
     so the loop provably terminates *)
  let body_stmts = 1 + rand env 3 in
  let inc =
    A.Seq
      ( A.Assign (i, A.Binop (A.Add, A.Var (i, dloc), A.Int (1, dloc), dloc),
                  dloc),
        A.Unit dloc, dloc )
  in
  let saved_words = env.words in
  env.words <- i :: env.words;
  let body =
    gen_stmts env ~nstmts:body_stmts ~loop_depth:(loop_depth + 1)
      ~tail:(fun _ -> inc)
  in
  env.words <- saved_words;
  env.mutables <- saved_mut;
  let while_ =
    A.While
      (A.Binop (A.Ult, A.Var (i, dloc), A.Int (bound, dloc), dloc), body,
       dloc)
  in
  A.Vardecl
    ( i, None, A.Int (0, dloc),
      A.Seq (while_,
             gen_stmts env ~nstmts:(nstmts - 1) ~loop_depth ~tail, dloc),
      dloc )

(* ---------------- top level ---------------- *)

(* prologue of simultaneously-live lets; combined again only in the
   tail.  Right-hand sides are generated in binding order, so each sees
   only the variables already in scope above it. *)
let gen_pressure env k rest_thunk =
  let bindings =
    init_ordered k (fun _ ->
        let x = fresh env "p" in
        let rhs = gen_word env 1 in
        env.words <- x :: env.words;
        (x, rhs))
  in
  let rest = rest_thunk () in
  List.fold_right
    (fun (x, rhs) acc -> A.Let (A.Pvar (x, dloc), None, rhs, acc, dloc))
    bindings rest

let gen_tail env =
  (* xor together a sample of everything live, ending the pressure
     ranges here, then publish through the result slot *)
  let sample =
    List.filteri (fun i _ -> i mod (1 + rand env 2) = 0) env.words
  in
  let acc =
    List.fold_left
      (fun acc x -> A.Binop (A.Xor, acc, A.Var (x, dloc), dloc))
      (gen_word env 2) sample
  in
  A.Let
    ( A.Pvar ("ret", dloc), None, acc,
      A.Seq
        ( A.MemWrite (A.Sram, A.Int (result_addr, dloc), A.Var ("ret", dloc),
                      dloc),
          A.Var ("ret", dloc), dloc ),
      dloc )

let gen_helper env idx =
  let arity = 2 in
  let params = init_ordered arity (fun i -> Printf.sprintf "a%d" i) in
  let saved = (env.words, env.mutables, env.helpers, env.consts) in
  env.words <- params;
  env.mutables <- [];
  env.helpers <- [];
  (* pure: no memory traffic inside helpers *)
  let rec pure depth =
    env.fuel <- env.fuel - 1;
    if depth <= 0 || env.fuel <= 0 then word_leaf env
    else
      match rand env 8 with
      | 0 | 1 | 2 | 3 ->
          A.Binop (pick env arith_ops, pure (depth - 1), pure (depth - 1),
                   dloc)
      | 4 ->
          A.Binop (pick env shift_ops, pure (depth - 1),
                   A.Int (rand env 32, dloc), dloc)
      | 5 -> A.Unop ((if rand env 2 = 0 then A.Not else A.Neg),
                     pure (depth - 1), dloc)
      | 6 ->
          A.If
            ( A.Binop (pick env cmp_ops, pure (depth - 1), pure (depth - 1),
                       dloc),
              pure (depth - 1), pure (depth - 1), dloc )
      | _ -> word_leaf env
  in
  let body = pure 3 in
  let words, mutables, helpers, consts = saved in
  env.words <- words;
  env.mutables <- mutables;
  env.helpers <- helpers;
  env.consts <- consts;
  let name = Printf.sprintf "f%d" idx in
  ( name, arity,
    {
      A.fn_name = name;
      fn_params =
        A.Ppos (List.map (fun p -> (p, Some (A.Tword dloc))) params);
      fn_ret = Some (A.Tword dloc);
      fn_body = body;
      fn_loc = dloc;
    } )

let program ?(max_size = 20) (rng : Random.State.t) : A.program =
  let env =
    { rng; fuel = max_size * 5; words = []; mutables = []; fresh = 0;
      helpers = []; consts = [] }
  in
  let nconsts = rand env 3 in
  let consts =
    init_ordered nconsts (fun i ->
        let name = Printf.sprintf "K%d" i in
        env.consts <- name :: env.consts;
        A.Dconst (name, A.Int (gen_int env, dloc), dloc))
  in
  let nhelpers = rand env 3 in
  let helpers =
    init_ordered nhelpers (fun i ->
        let name, arity, fd = gen_helper env i in
        env.helpers <- (name, arity) :: env.helpers;
        A.Dfun fd)
  in
  let pressure = 3 + rand env 6 in
  let nstmts = 4 + rand env (max 1 max_size) in
  let body =
    gen_pressure env pressure (fun () ->
        gen_stmts env ~nstmts ~loop_depth:0 ~tail:gen_tail)
  in
  let main =
    A.Dfun
      {
        A.fn_name = "main";
        fn_params = A.Ppos [];
        fn_ret = Some (A.Tword dloc);
        fn_body = body;
        fn_loc = dloc;
      }
  in
  { A.decls = consts @ helpers @ [ main ] }
