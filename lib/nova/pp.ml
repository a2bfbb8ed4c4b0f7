(* Pretty-printer for Nova surface syntax.

   The output is guaranteed to re-parse: [parse_string (program_to_string p)]
   yields a program structurally equal to [p] (up to source locations, see
   [equal_program]) for every program the parser or the fuzzer's generator
   can produce.  This is the foundation of the fuzzer's round-trip oracle
   (generate typed AST -> print -> re-parse -> re-typecheck) and of the
   replayable counterexample corpus: a shrunk AST is written back out as
   ordinary Nova source.

   Printing subtleties pinned down by the grammar in [Parser]:
     - binary operators are printed with the parser's precedence table;
       right operands at [prec + 1] because the grammar is left-associative;
     - [pack[l] e] takes a *primary* operand, so anything with a postfix or
       operator spine is parenthesized;
     - statements ([let]/[var]/[while]/[:=]/[<-]) exist only inside `{}`
       blocks; the [Seq]/[Let]/[Vardecl] spine of a block is printed as a
       statement list with a trailing expression, and a trailing [Unit] is
       printed as nothing (the parser returns [Unit] for an empty tail);
     - [if]/[try] branches are always printed as blocks, which keeps the
       dangling-else and statement-vs-expression ambiguities away. *)

open Support
open Ast

(* ------------------------------------------------------------------ *)
(* Buffers and indentation                                             *)
(* ------------------------------------------------------------------ *)

type ctx = { buf : Buffer.t; mutable ind : int }

let adds ctx s = Buffer.add_string ctx.buf s
let addf ctx fmt = Printf.ksprintf (adds ctx) fmt
let newline ctx =
  Buffer.add_char ctx.buf '\n';
  Buffer.add_string ctx.buf (String.make (2 * ctx.ind) ' ')

let is_plain_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s
  && not (List.mem_assoc s Lexer.keyword_table)

let int_literal i =
  let i = if i < 0 then i land 0xFFFFFFFF else i in
  if i < 256 then string_of_int i else Printf.sprintf "0x%x" i

(* ------------------------------------------------------------------ *)
(* Layouts and types                                                   *)
(* ------------------------------------------------------------------ *)

let rec pp_layout ctx = function
  | Lname (n, _) -> adds ctx n
  | Lgap (n, _) -> addf ctx "{%d}" n
  | Lfields (fs, _) ->
      adds ctx "{";
      List.iteri
        (fun i f ->
          if i > 0 then adds ctx ", ";
          adds ctx f.fname;
          adds ctx " : ";
          pp_field_type ctx f.fty)
        fs;
      adds ctx "}"
  | Lconcat (a, b) ->
      pp_layout ctx a;
      adds ctx " ## ";
      pp_layout ctx b

and pp_field_type ctx = function
  | Fbits n -> addf ctx "%d" n
  | Fsub l -> pp_layout ctx l
  | Foverlay alts ->
      adds ctx "overlay {";
      List.iteri
        (fun i (n, ft) ->
          if i > 0 then adds ctx " | ";
          adds ctx n;
          adds ctx " : ";
          pp_field_type ctx ft)
        alts;
      adds ctx "}"

let rec pp_ty ctx = function
  | Tword _ -> adds ctx "word"
  | Tbool _ -> adds ctx "bool"
  | Tunit _ -> adds ctx "unit"
  | Ttuple (ts, _) ->
      adds ctx "(";
      List.iteri
        (fun i t ->
          if i > 0 then adds ctx ", ";
          pp_ty ctx t)
        ts;
      adds ctx ")"
  | Trecord (fs, _) ->
      adds ctx "[";
      List.iteri
        (fun i (n, t) ->
          if i > 0 then adds ctx ", ";
          adds ctx n;
          adds ctx " : ";
          pp_ty ctx t)
        fs;
      adds ctx "]"
  | Tpacked (l, _) ->
      adds ctx "packed(";
      pp_layout ctx l;
      adds ctx ")"
  | Tunpacked (l, _) ->
      adds ctx "unpacked(";
      pp_layout ctx l;
      adds ctx ")"
  | Tfun (args, ret, _) ->
      adds ctx "fun(";
      List.iteri
        (fun i t ->
          if i > 0 then adds ctx ", ";
          pp_ty ctx t)
        args;
      adds ctx ") : ";
      pp_ty ctx ret
  | Texn (t, _) ->
      adds ctx "exn(";
      pp_ty ctx t;
      adds ctx ")"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Precedence levels, matching [Parser.binop_of_token]; unary binds at 10,
   postfix selection at 11, self-delimiting primaries at 12. *)
let binop_prec = function
  | LOr -> 0
  | LAnd -> 1
  | Or -> 2
  | Xor -> 3
  | And -> 4
  | Eq | Ne -> 5
  | Lt | Le | Gt | Ge | Ult | Uge -> 6
  | Shl | Shr | Asr -> 7
  | Add | Sub -> 8
  | Mul -> 9

let expr_prec = function
  | Binop (op, _, _, _) -> binop_prec op
  | Unop _ -> 10
  | Select _ | Proj _ -> 11
  (* statement-shaped nodes are printed as `{ stmt }` blocks when forced
     into expression position, which is self-delimiting *)
  | _ -> 12

let rec pp_expr ctx ~prec e =
  let self = expr_prec e in
  let wrap = self < prec in
  if wrap then adds ctx "(";
  (match e with
  | Int (i, _) -> adds ctx (int_literal i)
  | Bool (b, _) -> adds ctx (if b then "true" else "false")
  | Var (x, _) -> adds ctx x
  | Binop (op, a, b, _) ->
      pp_expr ctx ~prec:self a;
      addf ctx " %s " (binop_to_string op);
      pp_expr ctx ~prec:(self + 1) b
  | Unop (op, a, _) ->
      adds ctx (match op with Not -> "~" | Neg -> "-" | LNot -> "!");
      pp_expr ctx ~prec:10 a
  | Tuple (es, _) ->
      adds ctx "(";
      List.iteri
        (fun i e ->
          if i > 0 then adds ctx ", ";
          pp_expr ctx ~prec:0 e)
        es;
      adds ctx ")"
  | Record (fs, _) ->
      adds ctx "[";
      List.iteri
        (fun i (n, e) ->
          if i > 0 then adds ctx ", ";
          addf ctx "%s = " n;
          pp_expr ctx ~prec:0 e)
        fs;
      adds ctx "]"
  | Select (e, f, _) ->
      pp_expr ctx ~prec:11 e;
      addf ctx ".%s" f
  | Proj (e, i, _) ->
      pp_expr ctx ~prec:11 e;
      addf ctx ".%d" i
  | If (c, t, f, _) ->
      adds ctx "if (";
      pp_expr ctx ~prec:0 c;
      adds ctx ") ";
      pp_block ctx t;
      (match f with
      | Unit _ -> ()
      | _ ->
          adds ctx " else ";
          pp_block ctx f)
  | Call (name, args, _) ->
      adds ctx name;
      pp_args ctx args
  | Let _ | Vardecl _ | Seq _ | While _ | Assign _ | MemWrite _ | CsrWrite _
  | TfifoWrite _ ->
      (* statement spines forced into expression position print as a block *)
      pp_block ctx e
  | Unpack (l, e, _) ->
      adds ctx "unpack[";
      pp_layout ctx l;
      adds ctx "](";
      pp_expr ctx ~prec:0 e;
      adds ctx ")"
  | Pack (l, e, _) ->
      adds ctx "pack[";
      pp_layout ctx l;
      adds ctx "] ";
      (* operand must be a primary: parenthesize postfix/operator spines *)
      (match e with
      | Record _ | Var _ | Int _ | Bool _ | Tuple _ | Unit _ ->
          pp_expr ctx ~prec:12 e
      | _ ->
          adds ctx "(";
          pp_expr ctx ~prec:0 e;
          adds ctx ")")
  | MemRead (space, addr, count, _) ->
      addf ctx "%s(" (mem_space_to_string space);
      pp_expr ctx ~prec:0 addr;
      (match count with None -> () | Some n -> addf ctx ", %d" n);
      adds ctx ")"
  | Hash (e, _) ->
      adds ctx "hash(";
      pp_expr ctx ~prec:0 e;
      adds ctx ")"
  | BitTestSet (a, v, _) ->
      adds ctx "bit_test_set(";
      pp_expr ctx ~prec:0 a;
      adds ctx ", ";
      pp_expr ctx ~prec:0 v;
      adds ctx ")"
  | CsrRead (name, _) ->
      if is_plain_ident name then addf ctx "csr(%s)" name
      else addf ctx "csr(%S)" name
  | RfifoRead (a, n, _) ->
      adds ctx "rfifo(";
      pp_expr ctx ~prec:0 a;
      addf ctx ", %d)" n
  | CtxArb _ -> adds ctx "ctx_arb()"
  | Raise (name, args, _) ->
      addf ctx "raise %s" name;
      if args <> [] then pp_args ctx args
  | Try (body, handlers, _) ->
      adds ctx "try ";
      pp_block ctx body;
      List.iter
        (fun h ->
          addf ctx " handle %s (" h.hexn;
          List.iteri
            (fun i (n, t) ->
              if i > 0 then adds ctx ", ";
              adds ctx n;
              match t with
              | None -> ()
              | Some t ->
                  adds ctx " : ";
                  pp_ty ctx t)
            h.hparams;
          adds ctx ") ";
          pp_block ctx h.hbody)
        handlers
  | Unit _ -> adds ctx "()");
  if wrap then adds ctx ")"

and pp_args ctx args =
  let named = List.exists (function Anamed _ -> true | Apos _ -> false) args in
  if named then begin
    adds ctx "[";
    List.iteri
      (fun i a ->
        if i > 0 then adds ctx ", ";
        match a with
        | Anamed (n, e) ->
            addf ctx "%s = " n;
            pp_expr ctx ~prec:0 e
        | Apos e -> pp_expr ctx ~prec:0 e)
      args;
    adds ctx "]"
  end
  else begin
    adds ctx "(";
    List.iteri
      (fun i a ->
        if i > 0 then adds ctx ", ";
        match a with
        | Apos e -> pp_expr ctx ~prec:0 e
        | Anamed _ -> assert false)
      args;
    adds ctx ")"
  end

(* A `{}` block: print the statement spine, then the trailing expression.
   The parser returns [Unit] for an empty tail, so a trailing [Unit] prints
   as nothing. *)
and pp_block ctx e =
  adds ctx "{";
  ctx.ind <- ctx.ind + 1;
  let printed = pp_stmts ctx e in
  ctx.ind <- ctx.ind - 1;
  if printed then newline ctx;
  adds ctx "}"

(* Returns true if anything was printed (controls the closing newline). *)
and pp_stmts ctx e =
  match e with
  | Unit _ -> false
  | Let (pat, ty, rhs, body, _) ->
      newline ctx;
      adds ctx "let ";
      (match pat with
      | Pvar (x, _) -> adds ctx x
      | Ptuple (xs, _) -> addf ctx "(%s)" (String.concat ", " xs));
      (match ty with
      | None -> ()
      | Some t ->
          adds ctx " : ";
          pp_ty ctx t);
      adds ctx " = ";
      pp_expr ctx ~prec:0 rhs;
      adds ctx ";";
      ignore (pp_stmts ctx body);
      true
  | Vardecl (x, ty, rhs, body, _) ->
      newline ctx;
      addf ctx "var %s" x;
      (match ty with
      | None -> ()
      | Some t ->
          adds ctx " : ";
          pp_ty ctx t);
      adds ctx " = ";
      pp_expr ctx ~prec:0 rhs;
      adds ctx ";";
      ignore (pp_stmts ctx body);
      true
  | Seq (s, rest, _) ->
      pp_stmt_one ctx s;
      ignore (pp_stmts ctx rest);
      true
  | e ->
      (* trailing value expression; no ';' needed before '}' *)
      newline ctx;
      pp_expr ctx ~prec:0 e;
      true

and pp_stmt_one ctx s =
  newline ctx;
  match s with
  | While (c, body, _) ->
      adds ctx "while (";
      pp_expr ctx ~prec:0 c;
      adds ctx ") ";
      pp_block ctx body
  | Assign (x, e, _) ->
      addf ctx "%s := " x;
      pp_expr ctx ~prec:0 e;
      adds ctx ";"
  | MemWrite (space, addr, v, _) ->
      addf ctx "%s(" (mem_space_to_string space);
      pp_expr ctx ~prec:0 addr;
      adds ctx ") <- ";
      pp_expr ctx ~prec:0 v;
      adds ctx ";"
  | CsrWrite (name, v, _) ->
      if is_plain_ident name then addf ctx "csr(%s) <- " name
      else addf ctx "csr(%S) <- " name;
      pp_expr ctx ~prec:0 v;
      adds ctx ";"
  | TfifoWrite (addr, v, _) ->
      adds ctx "tfifo(";
      pp_expr ctx ~prec:0 addr;
      adds ctx ") <- ";
      pp_expr ctx ~prec:0 v;
      adds ctx ";"
  | (If _ | Try _) as e ->
      (* The grammar lets block-shaped statements omit the ';', but we
         always print one: without it, a following expression that
         starts with a binop-continuation token (`- e`) would be
         swallowed into the statement as a binary operand on re-parse.
         Found by `novac fuzz` (print/re-parse stage). *)
      pp_expr ctx ~prec:0 e;
      adds ctx ";"
  | e ->
      pp_expr ctx ~prec:0 e;
      adds ctx ";"

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let pp_param ctx = function
  | Ppos items ->
      adds ctx "(";
      List.iteri
        (fun i (n, t) ->
          if i > 0 then adds ctx ", ";
          adds ctx n;
          match t with
          | None -> ()
          | Some t ->
              adds ctx " : ";
              pp_ty ctx t)
        items;
      adds ctx ")"
  | Pnamed items ->
      adds ctx "[";
      List.iteri
        (fun i (n, t) ->
          if i > 0 then adds ctx ", ";
          adds ctx n;
          match t with
          | None -> ()
          | Some t ->
              adds ctx " : ";
              pp_ty ctx t)
        items;
      adds ctx "]"

let pp_topdecl ctx = function
  | Dlayout (name, l, _) ->
      addf ctx "layout %s = " name;
      pp_layout ctx l;
      adds ctx ";"
  | Dconst (name, e, _) ->
      addf ctx "const %s = " name;
      pp_expr ctx ~prec:0 e;
      adds ctx ";"
  | Dfun f ->
      addf ctx "fun %s " f.fn_name;
      pp_param ctx f.fn_params;
      (match f.fn_ret with
      | None -> ()
      | Some t ->
          adds ctx " : ";
          pp_ty ctx t);
      adds ctx " ";
      pp_block ctx f.fn_body

let program_to_string (p : program) =
  let ctx = { buf = Buffer.create 1024; ind = 0 } in
  List.iteri
    (fun i d ->
      if i > 0 then adds ctx "\n\n";
      pp_topdecl ctx d)
    p.decls;
  adds ctx "\n";
  Buffer.contents ctx.buf

(* ------------------------------------------------------------------ *)
(* Structural equality modulo source locations                         *)
(* ------------------------------------------------------------------ *)

let dummy = Srcloc.dummy

let rec strip_layout = function
  | Lname (n, _) -> Lname (n, dummy)
  | Lgap (n, _) -> Lgap (n, dummy)
  | Lfields (fs, _) ->
      Lfields
        ( List.map
            (fun f -> { f with fty = strip_field_type f.fty; floc = dummy })
            fs,
          dummy )
  | Lconcat (a, b) -> Lconcat (strip_layout a, strip_layout b)

and strip_field_type = function
  | Fbits n -> Fbits n
  | Fsub l -> Fsub (strip_layout l)
  | Foverlay alts ->
      Foverlay (List.map (fun (n, ft) -> (n, strip_field_type ft)) alts)

let rec strip_ty = function
  | Tword _ -> Tword dummy
  | Tbool _ -> Tbool dummy
  | Tunit _ -> Tunit dummy
  | Ttuple (ts, _) -> Ttuple (List.map strip_ty ts, dummy)
  | Trecord (fs, _) ->
      Trecord (List.map (fun (n, t) -> (n, strip_ty t)) fs, dummy)
  | Tpacked (l, _) -> Tpacked (strip_layout l, dummy)
  | Tunpacked (l, _) -> Tunpacked (strip_layout l, dummy)
  | Tfun (args, ret, _) -> Tfun (List.map strip_ty args, strip_ty ret, dummy)
  | Texn (t, _) -> Texn (strip_ty t, dummy)

let strip_pat = function
  | Pvar (x, _) -> Pvar (x, dummy)
  | Ptuple (xs, _) -> Ptuple (xs, dummy)

let rec strip_expr = function
  | Int (i, _) -> Int (i, dummy)
  | Bool (b, _) -> Bool (b, dummy)
  | Var (x, _) -> Var (x, dummy)
  | Binop (op, a, b, _) -> Binop (op, strip_expr a, strip_expr b, dummy)
  | Unop (op, a, _) -> Unop (op, strip_expr a, dummy)
  | Tuple (es, _) -> Tuple (List.map strip_expr es, dummy)
  | Record (fs, _) ->
      Record (List.map (fun (n, e) -> (n, strip_expr e)) fs, dummy)
  | Select (e, f, _) -> Select (strip_expr e, f, dummy)
  | Proj (e, i, _) -> Proj (strip_expr e, i, dummy)
  | If (c, t, f, _) -> If (strip_expr c, strip_expr t, strip_expr f, dummy)
  | Call (name, args, _) -> Call (name, List.map strip_arg args, dummy)
  | Let (p, ty, rhs, body, _) ->
      Let (strip_pat p, Option.map strip_ty ty, strip_expr rhs, strip_expr body,
           dummy)
  | Vardecl (x, ty, rhs, body, _) ->
      Vardecl (x, Option.map strip_ty ty, strip_expr rhs, strip_expr body,
               dummy)
  | Assign (x, e, _) -> Assign (x, strip_expr e, dummy)
  | Seq (a, b, _) -> Seq (strip_expr a, strip_expr b, dummy)
  | While (c, b, _) -> While (strip_expr c, strip_expr b, dummy)
  | Unpack (l, e, _) -> Unpack (strip_layout l, strip_expr e, dummy)
  | Pack (l, e, _) -> Pack (strip_layout l, strip_expr e, dummy)
  | MemRead (s, a, n, _) -> MemRead (s, strip_expr a, n, dummy)
  | MemWrite (s, a, v, _) -> MemWrite (s, strip_expr a, strip_expr v, dummy)
  | Hash (e, _) -> Hash (strip_expr e, dummy)
  | BitTestSet (a, v, _) -> BitTestSet (strip_expr a, strip_expr v, dummy)
  | CsrRead (n, _) -> CsrRead (n, dummy)
  | CsrWrite (n, v, _) -> CsrWrite (n, strip_expr v, dummy)
  | RfifoRead (a, n, _) -> RfifoRead (strip_expr a, n, dummy)
  | TfifoWrite (a, v, _) -> TfifoWrite (strip_expr a, strip_expr v, dummy)
  | CtxArb _ -> CtxArb dummy
  | Raise (n, args, _) -> Raise (n, List.map strip_arg args, dummy)
  | Try (body, hs, _) ->
      Try
        ( strip_expr body,
          List.map
            (fun h ->
              {
                h with
                hparams =
                  List.map (fun (n, t) -> (n, Option.map strip_ty t)) h.hparams;
                hbody = strip_expr h.hbody;
                hloc = dummy;
              })
            hs,
          dummy )
  | Unit _ -> Unit dummy

and strip_arg = function
  | Apos e -> Apos (strip_expr e)
  | Anamed (n, e) -> Anamed (n, strip_expr e)

let strip_param = function
  | Ppos items ->
      Ppos (List.map (fun (n, t) -> (n, Option.map strip_ty t)) items)
  | Pnamed items ->
      Pnamed (List.map (fun (n, t) -> (n, Option.map strip_ty t)) items)

let strip_topdecl = function
  | Dlayout (n, l, _) -> Dlayout (n, strip_layout l, dummy)
  | Dconst (n, e, _) -> Dconst (n, strip_expr e, dummy)
  | Dfun f ->
      Dfun
        {
          f with
          fn_params = strip_param f.fn_params;
          fn_ret = Option.map strip_ty f.fn_ret;
          fn_body = strip_expr f.fn_body;
          fn_loc = dummy;
        }

let strip_program (p : program) = { decls = List.map strip_topdecl p.decls }

let equal_program a b = strip_program a = strip_program b
