(* Abstract syntax of Nova (paper §3).

   Nova is a lexically-scoped, strict, statically-typed, call-by-value
   language for IXP micro-engine code.  Relative to the paper we commit to
   a concrete grammar (the paper shows examples only); the README
   documents it.  Design constraints from the paper:

     - no recursive types, no heap, no stack: recursion only through tail
       calls; functions and exceptions may be passed as arguments but
       never returned or stored;
     - records/tuples are compile-time aggregates, flattened before CPS;
     - layouts/overlays describe packed byte streams; [pack]/[unpack]
       mediate between packed words and unpacked records;
     - direct syntax for the memory system and special hardware. *)

open Support

type loc = Srcloc.t

(* ------------------------------------------------------------------ *)
(* Layouts                                                             *)
(* ------------------------------------------------------------------ *)

(* Surface layout expressions; resolution and offset computation live in
   [Layout]. *)
type layout_expr =
  | Lname of string * loc (* reference to a named layout *)
  | Lgap of int * loc (* {n}: unnamed n-bit gap *)
  | Lfields of field list * loc (* {a : 8, b : lyt, c : overlay {...}} *)
  | Lconcat of layout_expr * layout_expr (* l1 ## l2 *)

and field = { fname : string; fty : field_type; floc : loc }

and field_type =
  | Fbits of int (* bit-field of the given width *)
  | Fsub of layout_expr (* nested layout *)
  | Foverlay of (string * field_type) list (* alternatives over one range *)

(* ------------------------------------------------------------------ *)
(* Types (surface syntax)                                              *)
(* ------------------------------------------------------------------ *)

type ty =
  | Tword of loc
  | Tbool of loc
  | Ttuple of ty list * loc
  | Trecord of (string * ty) list * loc
  | Tpacked of layout_expr * loc
  | Tunpacked of layout_expr * loc
  | Tfun of ty list * ty * loc (* fun(t1, ..., tn) : t *)
  | Texn of ty * loc (* exception carrying a payload of type t *)
  | Tunit of loc

(* ------------------------------------------------------------------ *)
(* Expressions and statements                                          *)
(* ------------------------------------------------------------------ *)

type binop =
  | Add | Sub | Mul
  | And | Or | Xor
  | Shl | Shr | Asr
  | Eq | Ne | Lt | Le | Gt | Ge | Ult | Uge
  | LAnd | LOr (* lazy boolean connectives *)

type unop = Not (* bitwise *) | Neg | LNot (* boolean *)

type mem_space = Sram | Sdram | Scratch

type expr =
  | Int of int * loc
  | Bool of bool * loc
  | Var of string * loc
  | Binop of binop * expr * expr * loc
  | Unop of unop * expr * loc
  | Tuple of expr list * loc
  | Record of (string * expr) list * loc
  | Select of expr * string * loc (* e.x *)
  | Proj of expr * int * loc (* e.#0, tuple projection *)
  | If of expr * expr * expr * loc
  | Call of string * arg list * loc
  | Let of pat * ty option * expr * expr * loc (* let p = e1; e2 *)
  | Vardecl of string * ty option * expr * expr * loc (* var x = e1; e2 *)
  | Assign of string * expr * loc (* x := e, of type unit *)
  | Seq of expr * expr * loc (* e1; e2 *)
  | While of expr * expr * loc (* while (c) body, of type unit *)
  | Unpack of layout_expr * expr * loc
  | Pack of layout_expr * expr * loc (* argument is a record expr *)
  | MemRead of mem_space * expr * int option * loc (* sram(addr [, n]) *)
  | MemWrite of mem_space * expr * expr * loc (* space(a) <- e, unit *)
  | Hash of expr * loc
  | BitTestSet of expr * expr * loc (* bit_test_set(addr, v) *)
  | CsrRead of string * loc
  | CsrWrite of string * expr * loc (* csr(name) <- e, unit *)
  | RfifoRead of expr * int * loc (* rfifo(addr, n) *)
  | TfifoWrite of expr * expr * loc (* tfifo(addr) <- e, unit *)
  | CtxArb of loc (* ctx_arb(), unit *)
  | Raise of string * arg list * loc
  | Try of expr * handler list * loc
  | Unit of loc

and arg = Apos of expr | Anamed of string * expr

and pat =
  | Pvar of string * loc
  | Ptuple of string list * loc (* let (a, b, c) = ... *)

and handler = {
  hexn : string; (* exception name introduced by this try *)
  hparams : (string * ty option) list;
  hbody : expr;
  hloc : loc;
}

let expr_loc = function
  | Int (_, l) | Bool (_, l) | Var (_, l) | Binop (_, _, _, l)
  | Unop (_, _, l) | Tuple (_, l) | Record (_, l) | Select (_, _, l)
  | Proj (_, _, l) | If (_, _, _, l) | Call (_, _, l) | Let (_, _, _, _, l)
  | Vardecl (_, _, _, _, l) | Assign (_, _, l) | Seq (_, _, l)
  | While (_, _, l) | Unpack (_, _, l) | Pack (_, _, l)
  | MemRead (_, _, _, l) | MemWrite (_, _, _, l) | Hash (_, l)
  | BitTestSet (_, _, l) | CsrRead (_, l) | CsrWrite (_, _, l)
  | RfifoRead (_, _, l) | TfifoWrite (_, _, l) | CtxArb l
  | Raise (_, _, l) | Try (_, _, l) | Unit l ->
      l

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

type param =
  | Ppos of (string * ty option) list (* fun f (x : t, y) *)
  | Pnamed of (string * ty option) list (* fun g [x1, x2] *)

type fundef = {
  fn_name : string;
  fn_params : param;
  fn_ret : ty option;
  fn_body : expr;
  fn_loc : loc;
}

type topdecl =
  | Dlayout of string * layout_expr * loc
  | Dconst of string * expr * loc
  | Dfun of fundef

type program = { decls : topdecl list }

(* ------------------------------------------------------------------ *)
(* Utility                                                             *)
(* ------------------------------------------------------------------ *)

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*"
  | And -> "&" | Or -> "|" | Xor -> "^"
  | Shl -> "<<" | Shr -> ">>" | Asr -> ">>>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Ult -> "<u" | Uge -> ">=u"
  | LAnd -> "&&" | LOr -> "||"

let mem_space_to_string = function
  | Sram -> "sram"
  | Sdram -> "sdram"
  | Scratch -> "scratch"
