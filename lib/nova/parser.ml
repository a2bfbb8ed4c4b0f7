(* Recursive-descent parser for Nova.

   The grammar (documented in README.md) follows the paper's examples:
   C-like expression syntax, `let`/`var` bindings inside `{}` blocks,
   layouts with overlays and `##` concatenation, `pack[l] r` /
   `unpack[l](e)`, memory operations `sram(a)` / `sram(a) <- (…)`, and
   `try { … } handle X (…) { … }`. *)

open Support
open Ast

type t = { toks : Lexer.lexeme array; mutable pos : int }

let make toks = { toks; pos = 0 }

let peek p = p.toks.(p.pos).Lexer.tok
let peek_loc p = p.toks.(p.pos).Lexer.loc
let peek2 p =
  if p.pos + 1 < Array.length p.toks then p.toks.(p.pos + 1).Lexer.tok
  else Lexer.EOF

let advance p = if p.pos < Array.length p.toks - 1 then p.pos <- p.pos + 1

let error p fmt =
  Diag.error ~loc:(peek_loc p) ("parse error: " ^^ fmt)

let expect p tok =
  if peek p = tok then advance p
  else
    error p "expected '%s' but found '%s'" (Lexer.token_to_string tok)
      (Lexer.token_to_string (peek p))

let accept p tok =
  if peek p = tok then begin
    advance p;
    true
  end
  else false

let ident p =
  match peek p with
  | Lexer.IDENT s ->
      advance p;
      s
  | t -> error p "expected identifier, found '%s'" (Lexer.token_to_string t)

let int_lit p =
  match peek p with
  | Lexer.INT i ->
      advance p;
      i
  | t -> error p "expected integer, found '%s'" (Lexer.token_to_string t)

(* comma-separated list, terminated by [stop] (not consumed) *)
let rec sep_list p ~stop item =
  if peek p = stop then []
  else begin
    let x = item p in
    if accept p Lexer.COMMA then x :: sep_list p ~stop item else [ x ]
  end

(* ------------------------------------------------------------------ *)
(* Layout expressions                                                  *)
(* ------------------------------------------------------------------ *)

let rec layout_expr p =
  let l = layout_primary p in
  if accept p Lexer.HASHHASH then Lconcat (l, layout_expr p) else l

and layout_primary p =
  let loc = peek_loc p in
  match peek p with
  | Lexer.IDENT name ->
      advance p;
      Lname (name, loc)
  | Lexer.LBRACE -> (
      advance p;
      (* {N} is a gap; otherwise a field list *)
      match (peek p, peek2 p) with
      | Lexer.INT n, Lexer.RBRACE ->
          advance p;
          advance p;
          Lgap (n, loc)
      | _ ->
          let fields = sep_list p ~stop:Lexer.RBRACE field in
          expect p Lexer.RBRACE;
          Lfields (fields, loc))
  | t -> error p "expected layout expression, found '%s'" (Lexer.token_to_string t)

and field p =
  let floc = peek_loc p in
  let fname = ident p in
  expect p Lexer.COLON;
  let fty = field_type p in
  { fname; fty; floc }

and field_type p =
  match peek p with
  | Lexer.INT n ->
      advance p;
      Fbits n
  | Lexer.KW_overlay ->
      advance p;
      expect p Lexer.LBRACE;
      let rec alts () =
        let name = ident p in
        expect p Lexer.COLON;
        let ty = field_type p in
        if accept p Lexer.BAR then (name, ty) :: alts () else [ (name, ty) ]
      in
      let alternatives = alts () in
      expect p Lexer.RBRACE;
      Foverlay alternatives
  | _ -> Fsub (layout_expr p)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_ty p =
  let loc = peek_loc p in
  match peek p with
  | Lexer.KW_word ->
      advance p;
      Tword loc
  | Lexer.KW_bool ->
      advance p;
      Tbool loc
  | Lexer.KW_unit ->
      advance p;
      Tunit loc
  | Lexer.KW_packed ->
      advance p;
      expect p Lexer.LPAREN;
      let l = layout_expr p in
      expect p Lexer.RPAREN;
      Tpacked (l, loc)
  | Lexer.KW_unpacked ->
      advance p;
      expect p Lexer.LPAREN;
      let l = layout_expr p in
      expect p Lexer.RPAREN;
      Tunpacked (l, loc)
  | Lexer.KW_exn ->
      advance p;
      expect p Lexer.LPAREN;
      let t = if peek p = Lexer.RPAREN then Tunit loc else parse_ty p in
      expect p Lexer.RPAREN;
      Texn (t, loc)
  | Lexer.KW_fun ->
      advance p;
      expect p Lexer.LPAREN;
      let args = sep_list p ~stop:Lexer.RPAREN parse_ty in
      expect p Lexer.RPAREN;
      expect p Lexer.COLON;
      let ret = parse_ty p in
      Tfun (args, ret, loc)
  | Lexer.LPAREN ->
      advance p;
      let ts = sep_list p ~stop:Lexer.RPAREN parse_ty in
      expect p Lexer.RPAREN;
      (match ts with [ t ] -> t | _ -> Ttuple (ts, loc))
  | Lexer.LBRACKET ->
      advance p;
      let fields =
        sep_list p ~stop:Lexer.RBRACKET (fun p ->
            let n = ident p in
            expect p Lexer.COLON;
            let t = parse_ty p in
            (n, t))
      in
      expect p Lexer.RBRACKET;
      Trecord (fields, loc)
  | t -> error p "expected type, found '%s'" (Lexer.token_to_string t)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* precedence (low to high):
   ||  &&  |  ^  &  ==/!=  </<=/>/>=/ult/uge  <</>>/>>>  +/-  *
   unary  postfix(.field)  primary *)

let binop_of_token = function
  | Lexer.OROR -> Some (LOr, 0)
  | Lexer.ANDAND -> Some (LAnd, 1)
  | Lexer.BAR -> Some (Or, 2)
  | Lexer.CARET -> Some (Xor, 3)
  | Lexer.AMP -> Some (And, 4)
  | Lexer.EQEQ -> Some (Eq, 5)
  | Lexer.NEQ -> Some (Ne, 5)
  | Lexer.LT -> Some (Lt, 6)
  | Lexer.LE -> Some (Le, 6)
  | Lexer.GT -> Some (Gt, 6)
  | Lexer.GE -> Some (Ge, 6)
  | Lexer.ULT -> Some (Ult, 6)
  | Lexer.UGE -> Some (Uge, 6)
  | Lexer.SHL -> Some (Shl, 7)
  | Lexer.SHR -> Some (Shr, 7)
  | Lexer.ASR_OP -> Some (Asr, 7)
  | Lexer.PLUS -> Some (Add, 8)
  | Lexer.MINUS -> Some (Sub, 8)
  | Lexer.STAR -> Some (Mul, 9)
  | _ -> None

let rec expr p = binary p 0

and binary p min_prec =
  let lhs = ref (unary p) in
  let continue = ref true in
  while !continue do
    match binop_of_token (peek p) with
    | Some (op, prec) when prec >= min_prec ->
        let loc = peek_loc p in
        advance p;
        let rhs = binary p (prec + 1) in
        lhs := Binop (op, !lhs, rhs, loc)
    | _ -> continue := false
  done;
  !lhs

and unary p =
  let loc = peek_loc p in
  match peek p with
  | Lexer.BANG ->
      advance p;
      Unop (LNot, unary p, loc)
  | Lexer.TILDE ->
      advance p;
      Unop (Not, unary p, loc)
  | Lexer.MINUS ->
      advance p;
      Unop (Neg, unary p, loc)
  | _ -> postfix p

and postfix p =
  let e = ref (primary p) in
  let continue = ref true in
  while !continue do
    if peek p = Lexer.DOT then begin
      let loc = peek_loc p in
      advance p;
      match peek p with
      | Lexer.INT i ->
          advance p;
          e := Proj (!e, i, loc)
      | _ ->
          let f = ident p in
          e := Select (!e, f, loc)
    end
    else continue := false
  done;
  !e

and call_args p =
  (* positional: (e, …); named: [x = e, …] *)
  if peek p = Lexer.LPAREN then begin
    advance p;
    let args = sep_list p ~stop:Lexer.RPAREN (fun p -> Apos (expr p)) in
    expect p Lexer.RPAREN;
    args
  end
  else begin
    expect p Lexer.LBRACKET;
    let args =
      sep_list p ~stop:Lexer.RBRACKET (fun p ->
          let n = ident p in
          expect p Lexer.EQUALS;
          Anamed (n, expr p))
    in
    expect p Lexer.RBRACKET;
    args
  end

and primary p =
  let loc = peek_loc p in
  match peek p with
  | Lexer.INT i ->
      advance p;
      Int (i, loc)
  | Lexer.KW_true ->
      advance p;
      Bool (true, loc)
  | Lexer.KW_false ->
      advance p;
      Bool (false, loc)
  | Lexer.IDENT name -> (
      advance p;
      match peek p with
      | Lexer.LPAREN | Lexer.LBRACKET ->
          (* f(args) or f[named args]; bare idents followed by a record
             literal are always calls in this grammar *)
          Call (name, call_args p, loc)
      | _ -> Var (name, loc))
  | Lexer.LPAREN ->
      advance p;
      if accept p Lexer.RPAREN then Unit loc
      else begin
        let es = sep_list p ~stop:Lexer.RPAREN expr in
        expect p Lexer.RPAREN;
        match es with [ e ] -> e | _ -> Tuple (es, loc)
      end
  | Lexer.LBRACKET ->
      advance p;
      let fields =
        sep_list p ~stop:Lexer.RBRACKET (fun p ->
            let n = ident p in
            expect p Lexer.EQUALS;
            (n, expr p))
      in
      expect p Lexer.RBRACKET;
      Record (fields, loc)
  | Lexer.KW_if ->
      advance p;
      expect p Lexer.LPAREN;
      let c = expr p in
      expect p Lexer.RPAREN;
      let then_ = block_or_expr p in
      if accept p Lexer.KW_else then
        let else_ = block_or_expr p in
        If (c, then_, else_, loc)
      else If (c, then_, Unit loc, loc)
  | Lexer.KW_unpack ->
      advance p;
      expect p Lexer.LBRACKET;
      let l = layout_expr p in
      expect p Lexer.RBRACKET;
      expect p Lexer.LPAREN;
      let e = expr p in
      expect p Lexer.RPAREN;
      Unpack (l, e, loc)
  | Lexer.KW_pack ->
      advance p;
      expect p Lexer.LBRACKET;
      let l = layout_expr p in
      expect p Lexer.RBRACKET;
      let r = primary p in
      Pack (l, r, loc)
  | Lexer.KW_sram | Lexer.KW_sdram | Lexer.KW_scratch ->
      let space =
        match peek p with
        | Lexer.KW_sram -> Sram
        | Lexer.KW_sdram -> Sdram
        | _ -> Scratch
      in
      advance p;
      expect p Lexer.LPAREN;
      let addr = expr p in
      let count = if accept p Lexer.COMMA then Some (int_lit p) else None in
      expect p Lexer.RPAREN;
      MemRead (space, addr, count, loc)
  | Lexer.KW_hash ->
      advance p;
      expect p Lexer.LPAREN;
      let e = expr p in
      expect p Lexer.RPAREN;
      Hash (e, loc)
  | Lexer.KW_bit_test_set ->
      advance p;
      expect p Lexer.LPAREN;
      let a = expr p in
      expect p Lexer.COMMA;
      let v = expr p in
      expect p Lexer.RPAREN;
      BitTestSet (a, v, loc)
  | Lexer.KW_csr ->
      advance p;
      expect p Lexer.LPAREN;
      let name =
        match peek p with
        | Lexer.STRING s ->
            advance p;
            s
        | _ -> ident p
      in
      expect p Lexer.RPAREN;
      CsrRead (name, loc)
  | Lexer.KW_rfifo ->
      advance p;
      expect p Lexer.LPAREN;
      let a = expr p in
      expect p Lexer.COMMA;
      let n = int_lit p in
      expect p Lexer.RPAREN;
      RfifoRead (a, n, loc)
  | Lexer.KW_ctx_arb ->
      advance p;
      expect p Lexer.LPAREN;
      expect p Lexer.RPAREN;
      CtxArb loc
  | Lexer.KW_raise ->
      advance p;
      let name = ident p in
      let args =
        match peek p with
        | Lexer.LPAREN | Lexer.LBRACKET -> call_args p
        | _ -> []
      in
      Raise (name, args, loc)
  | Lexer.KW_try ->
      advance p;
      let body = block p in
      let rec handlers () =
        if peek p = Lexer.KW_handle then begin
          let hloc = peek_loc p in
          advance p;
          let hexn = ident p in
          let hparams = handler_params p in
          let hbody = block p in
          { hexn; hparams; hbody; hloc } :: handlers ()
        end
        else []
      in
      let hs = handlers () in
      if hs = [] then error p "try block needs at least one handler";
      Try (body, hs, loc)
  | Lexer.LBRACE -> block p
  | t -> error p "expected expression, found '%s'" (Lexer.token_to_string t)

and handler_params p =
  (* handle X (…)  or  handle X [b, c]  — names with optional types *)
  let item p =
    let n = ident p in
    let t = if accept p Lexer.COLON then Some (parse_ty p) else None in
    (n, t)
  in
  if accept p Lexer.LPAREN then begin
    let ps = sep_list p ~stop:Lexer.RPAREN item in
    expect p Lexer.RPAREN;
    ps
  end
  else begin
    expect p Lexer.LBRACKET;
    let ps = sep_list p ~stop:Lexer.RBRACKET item in
    expect p Lexer.RBRACKET;
    ps
  end

and block_or_expr p = if peek p = Lexer.LBRACE then block p else expr p

(* A `{}` block: a sequence of statements with an optional trailing
   expression as its value. *)
and block p =
  let loc = peek_loc p in
  expect p Lexer.LBRACE;
  let body = block_items p in
  expect p Lexer.RBRACE;
  ignore loc;
  body

and block_items p =
  let loc = peek_loc p in
  if peek p = Lexer.RBRACE then Unit loc
  else if peek p = Lexer.KW_let then begin
    advance p;
    let pat =
      if accept p Lexer.LPAREN then begin
        let names = sep_list p ~stop:Lexer.RPAREN ident in
        expect p Lexer.RPAREN;
        Ptuple (names, loc)
      end
      else Pvar (ident p, loc)
    in
    let ty = if accept p Lexer.COLON then Some (parse_ty p) else None in
    expect p Lexer.EQUALS;
    let rhs = expr p in
    expect p Lexer.SEMI;
    let body = block_items p in
    Let (pat, ty, rhs, body, loc)
  end
  else if peek p = Lexer.KW_var then begin
    advance p;
    let name = ident p in
    let ty = if accept p Lexer.COLON then Some (parse_ty p) else None in
    expect p Lexer.EQUALS;
    let rhs = expr p in
    expect p Lexer.SEMI;
    let body = block_items p in
    Vardecl (name, ty, rhs, body, loc)
  end
  else if peek p = Lexer.KW_while then begin
    advance p;
    expect p Lexer.LPAREN;
    let c = expr p in
    expect p Lexer.RPAREN;
    let body = block p in
    ignore (accept p Lexer.SEMI);
    let rest = block_items p in
    Seq (While (c, body, loc), rest, loc)
  end
  else begin
    (* assignment, memory/CSR/FIFO write, or expression *)
    match (peek p, peek2 p) with
    | Lexer.IDENT x, Lexer.ASSIGN ->
        advance p;
        advance p;
        let rhs = expr p in
        expect p Lexer.SEMI;
        let rest = block_items p in
        Seq (Assign (x, rhs, loc), rest, loc)
    | Lexer.KW_tfifo, _ ->
        advance p;
        expect p Lexer.LPAREN;
        let addr = expr p in
        expect p Lexer.RPAREN;
        expect p Lexer.LARROW;
        let v = expr p in
        expect p Lexer.SEMI;
        let rest = block_items p in
        Seq (TfifoWrite (addr, v, loc), rest, loc)
    | (Lexer.KW_sram | Lexer.KW_sdram | Lexer.KW_scratch | Lexer.KW_csr), _
      -> (
        (* could be a read (expression) or a write (`… <- e`) *)
        let e = expr p in
        match (e, peek p) with
        | MemRead (space, addr, None, l), Lexer.LARROW ->
            advance p;
            let v = expr p in
            expect p Lexer.SEMI;
            let rest = block_items p in
            Seq (MemWrite (space, addr, v, l), rest, loc)
        | CsrRead (name, l), Lexer.LARROW ->
            advance p;
            let v = expr p in
            expect p Lexer.SEMI;
            let rest = block_items p in
            Seq (CsrWrite (name, v, l), rest, loc)
        | _ -> finish_expr_item p e loc)
    | _ ->
        let e = expr p in
        if peek p = Lexer.LARROW then
          error p "left-hand side cannot be assigned with <-"
        else finish_expr_item p e loc
  end

and finish_expr_item p e loc =
  if accept p Lexer.SEMI then
    let rest = block_items p in
    Seq (e, rest, loc)
  else if peek p = Lexer.RBRACE then e
  else
    match e with
    | If _ | Try _ ->
        (* block-shaped statements may omit the semicolon *)
        let rest = block_items p in
        Seq (e, rest, loc)
    | _ ->
        error p "expected ';' or '}' after expression, found '%s'"
          (Lexer.token_to_string (peek p))

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_param p =
  if accept p Lexer.LPAREN then begin
    let items =
      sep_list p ~stop:Lexer.RPAREN (fun p ->
          let n = ident p in
          let t = if accept p Lexer.COLON then Some (parse_ty p) else None in
          (n, t))
    in
    expect p Lexer.RPAREN;
    Ppos items
  end
  else begin
    expect p Lexer.LBRACKET;
    let items =
      sep_list p ~stop:Lexer.RBRACKET (fun p ->
          let n = ident p in
          let t = if accept p Lexer.COLON then Some (parse_ty p) else None in
          (n, t))
    in
    expect p Lexer.RBRACKET;
    Pnamed items
  end

let topdecl p =
  let loc = peek_loc p in
  match peek p with
  | Lexer.KW_layout ->
      advance p;
      let name = ident p in
      expect p Lexer.EQUALS;
      let l = layout_expr p in
      expect p Lexer.SEMI;
      Dlayout (name, l, loc)
  | Lexer.KW_const ->
      advance p;
      let name = ident p in
      expect p Lexer.EQUALS;
      let e = expr p in
      expect p Lexer.SEMI;
      Dconst (name, e, loc)
  | Lexer.KW_fun ->
      advance p;
      let fn_name = ident p in
      let fn_params = parse_param p in
      let fn_ret = if accept p Lexer.COLON then Some (parse_ty p) else None in
      let fn_body = block p in
      Dfun { fn_name; fn_params; fn_ret; fn_body; fn_loc = loc }
  | t ->
      error p "expected 'layout', 'const' or 'fun', found '%s'"
        (Lexer.token_to_string t)

let program p =
  let rec go acc =
    if peek p = Lexer.EOF then List.rev acc else go (topdecl p :: acc)
  in
  { decls = go [] }

let parse_string ~file src =
  Support.Trace.with_span "parse"
    ~args:[ ("file", Support.Trace.Str file) ]
    (fun () ->
      let toks = Lexer.tokenize ~file src in
      let p = make toks in
      program p)
