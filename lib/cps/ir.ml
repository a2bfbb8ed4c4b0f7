(* Continuation-passing-style intermediate representation (paper §4).

   Properties the back end relies on:
     - every variable corresponds to a single machine register (aggregates
       were flattened during conversion);
     - static single assignment holds by construction (all binders are
       fresh), which §9 of the paper needs for consistent colorings of
       memory-read targets;
     - after the static-single-use pass, every memory-write operand has a
       single use in the whole program;
     - control is expressed with [Fix]-bound functions and tail
       applications only; source functions ([Func]) are eliminated by
       de-proceduralization, leaving continuations ([Cont]) that map 1-1
       to basic blocks. *)

open Support

type var = Ident.t

type value = Var of var | Int of int

type prim =
  | Add | Sub | Mul | And | Or | Xor | Shl | Shr | Asr
  | Not | Neg | Mov

type cmp = Eq | Ne | Lt | Le | Gt | Ge | Ult | Uge

type space = Nova.Ast.mem_space

type kind =
  | Func (* source-level function: gets a return continuation parameter *)
  | Cont (* continuation introduced by conversion: join, loop, handler *)

type term =
  | Prim of var * prim * value list * term
  | MemRead of space * value * var array * term (* addr, destinations *)
  | MemWrite of space * value * value array * term
  | Hash of var * value * term
  | BitTestSet of var * value * value * term (* dst, addr, operand *)
  | CsrRead of var * string * term
  | CsrWrite of string * value * term
  | RfifoRead of value * var array * term
  | TfifoWrite of value * value array * term
  | CtxArb of term
  | Clone of var array * var * term (* SSU pseudo-op *)
  | Branch of cmp * value * value * term * term
  | App of value * value list (* tail application / jump *)
  | Fix of fundef list * term
  | Halt of value list (* program end; values are the observable result *)

and fundef = { name : var; params : var list; kind : kind; body : term }

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let rec iter_terms f (t : term) =
  f t;
  match t with
  | Prim (_, _, _, k)
  | MemRead (_, _, _, k)
  | MemWrite (_, _, _, k)
  | Hash (_, _, k)
  | BitTestSet (_, _, _, k)
  | CsrRead (_, _, k)
  | CsrWrite (_, _, k)
  | RfifoRead (_, _, k)
  | TfifoWrite (_, _, k)
  | CtxArb k
  | Clone (_, _, k) ->
      iter_terms f k
  | Branch (_, _, _, a, b) ->
      iter_terms f a;
      iter_terms f b
  | Fix (defs, k) ->
      List.iter (fun d -> iter_terms f d.body) defs;
      iter_terms f k
  | App _ | Halt _ -> ()

(* Free variables of a term (function names bound by Fix are variables
   too). *)
let free_vars (t : term) : Ident.Set.t =
  let module S = Ident.Set in
  let rec go bound t acc =
    let value acc v = match v with Var x when not (S.mem x bound) -> S.add x acc | _ -> acc in
    let values acc vs = List.fold_left value acc vs in
    match t with
    | Prim (x, _, vs, k) -> go (S.add x bound) k (values acc vs)
    | MemRead (_, a, dsts, k) ->
        go (Array.fold_left (fun b d -> S.add d b) bound dsts) k (value acc a)
    | MemWrite (_, a, vs, k) ->
        go bound k (values (value acc a) (Array.to_list vs))
    | Hash (x, v, k) -> go (S.add x bound) k (value acc v)
    | BitTestSet (x, a, v, k) -> go (S.add x bound) k (value (value acc a) v)
    | CsrRead (x, _, k) -> go (S.add x bound) k acc
    | CsrWrite (_, v, k) -> go bound k (value acc v)
    | RfifoRead (a, dsts, k) ->
        go (Array.fold_left (fun b d -> S.add d b) bound dsts) k (value acc a)
    | TfifoWrite (a, vs, k) ->
        go bound k (values (value acc a) (Array.to_list vs))
    | CtxArb k -> go bound k acc
    | Clone (dsts, src, k) ->
        let acc = if S.mem src bound then acc else S.add src acc in
        go (Array.fold_left (fun b d -> S.add d b) bound dsts) k acc
    | Branch (_, a, b, t1, t2) ->
        let acc = value (value acc a) b in
        go bound t2 (go bound t1 acc)
    | App (f, vs) -> values (value acc f) vs
    | Halt vs -> values acc vs
    | Fix (defs, k) ->
        let bound' =
          List.fold_left (fun b d -> S.add d.name b) bound defs
        in
        let acc =
          List.fold_left
            (fun acc d ->
              go
                (List.fold_left (fun b p -> S.add p b) bound' d.params)
                d.body acc)
            acc defs
        in
        go bound' k acc
  in
  go S.empty t S.empty

(* ------------------------------------------------------------------ *)
(* Substitution and renaming                                           *)
(* ------------------------------------------------------------------ *)

(* Capture-avoiding value substitution: replaces *uses* of variables
   according to [subst]; binders are untouched (SSA guarantees no binder
   is ever in [subst]'s domain when used correctly). *)
let rec substitute (subst : value Ident.Map.t) (t : term) : term =
  let sv v =
    match v with
    | Var x -> ( match Ident.Map.find_opt x subst with Some v' -> v' | None -> v)
    | Int _ -> v
  in
  let svs = List.map sv in
  let sva = Array.map sv in
  match t with
  | Prim (x, p, vs, k) -> Prim (x, p, svs vs, substitute subst k)
  | MemRead (sp, a, dsts, k) -> MemRead (sp, sv a, dsts, substitute subst k)
  | MemWrite (sp, a, vs, k) -> MemWrite (sp, sv a, sva vs, substitute subst k)
  | Hash (x, v, k) -> Hash (x, sv v, substitute subst k)
  | BitTestSet (x, a, v, k) -> BitTestSet (x, sv a, sv v, substitute subst k)
  | CsrRead (x, c, k) -> CsrRead (x, c, substitute subst k)
  | CsrWrite (c, v, k) -> CsrWrite (c, sv v, substitute subst k)
  | RfifoRead (a, dsts, k) -> RfifoRead (sv a, dsts, substitute subst k)
  | TfifoWrite (a, vs, k) -> TfifoWrite (sv a, sva vs, substitute subst k)
  | CtxArb k -> CtxArb (substitute subst k)
  | Clone (dsts, src, k) ->
      let src' =
        match sv (Var src) with
        | Var s -> s
        | Int _ ->
            (* cloning a constant: keep the original variable; constant
               propagation will have replaced the uses anyway *)
            src
      in
      Clone (dsts, src', substitute subst k)
  | Branch (c, a, b, t1, t2) ->
      Branch (c, sv a, sv b, substitute subst t1, substitute subst t2)
  | App (f, vs) -> App (sv f, svs vs)
  | Halt vs -> Halt (svs vs)
  | Fix (defs, k) ->
      Fix
        ( List.map (fun d -> { d with body = substitute subst d.body }) defs,
          substitute subst k )

(* Alpha-rename every binder in a term (used when inlining duplicates a
   function body). *)
let rec alpha_rename (ren : var Ident.Map.t) (t : term) : term =
  let rv x = match Ident.Map.find_opt x ren with Some y -> y | None -> x in
  let sv = function Var x -> Var (rv x) | Int i -> Int i in
  let svs = List.map sv in
  let sva = Array.map sv in
  let fresh_var ren x =
    let y = Ident.clone x in
    (Ident.Map.add x y ren, y)
  in
  let fresh_vars ren xs =
    List.fold_left_map (fun ren x -> fresh_var ren x) ren xs
  in
  match t with
  | Prim (x, p, vs, k) ->
      let vs = svs vs in
      let ren, x' = fresh_var ren x in
      Prim (x', p, vs, alpha_rename ren k)
  | MemRead (sp, a, dsts, k) ->
      let a = sv a in
      let ren, dsts' = fresh_vars ren (Array.to_list dsts) in
      MemRead (sp, a, Array.of_list dsts', alpha_rename ren k)
  | MemWrite (sp, a, vs, k) -> MemWrite (sp, sv a, sva vs, alpha_rename ren k)
  | Hash (x, v, k) ->
      let v = sv v in
      let ren, x' = fresh_var ren x in
      Hash (x', v, alpha_rename ren k)
  | BitTestSet (x, a, v, k) ->
      let a = sv a and v = sv v in
      let ren, x' = fresh_var ren x in
      BitTestSet (x', a, v, alpha_rename ren k)
  | CsrRead (x, c, k) ->
      let ren, x' = fresh_var ren x in
      CsrRead (x', c, alpha_rename ren k)
  | CsrWrite (c, v, k) -> CsrWrite (c, sv v, alpha_rename ren k)
  | RfifoRead (a, dsts, k) ->
      let a = sv a in
      let ren, dsts' = fresh_vars ren (Array.to_list dsts) in
      RfifoRead (a, Array.of_list dsts', alpha_rename ren k)
  | TfifoWrite (a, vs, k) -> TfifoWrite (sv a, sva vs, alpha_rename ren k)
  | CtxArb k -> CtxArb (alpha_rename ren k)
  | Clone (dsts, src, k) ->
      let src = rv src in
      let ren, dsts' = fresh_vars ren (Array.to_list dsts) in
      Clone (Array.of_list dsts', src, alpha_rename ren k)
  | Branch (c, a, b, t1, t2) ->
      Branch (c, sv a, sv b, alpha_rename ren t1, alpha_rename ren t2)
  | App (f, vs) -> App (sv f, svs vs)
  | Halt vs -> Halt (svs vs)
  | Fix (defs, k) ->
      let ren, _ = fresh_vars ren (List.map (fun d -> d.name) defs) in
      let defs' =
        List.map
          (fun d ->
            let ren, params' = fresh_vars ren d.params in
            { name = rv' ren d.name; params = params'; kind = d.kind;
              body = alpha_rename ren d.body })
          defs
      in
      Fix (defs', alpha_rename ren k)

and rv' ren x = match Ident.Map.find_opt x ren with Some y -> y | None -> x

(* ------------------------------------------------------------------ *)
(* Size and printing                                                   *)
(* ------------------------------------------------------------------ *)

let rec size = function
  | Prim (_, _, _, k) | Hash (_, _, k) | BitTestSet (_, _, _, k)
  | CsrRead (_, _, k) | CsrWrite (_, _, k) | CtxArb k | Clone (_, _, k)
  | MemRead (_, _, _, k) | MemWrite (_, _, _, k) | RfifoRead (_, _, k)
  | TfifoWrite (_, _, k) ->
      1 + size k
  | Branch (_, _, _, a, b) -> 1 + size a + size b
  | App _ | Halt _ -> 1
  | Fix (defs, k) ->
      List.fold_left (fun acc d -> acc + size d.body) (size k) defs

let prim_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | And -> "and" | Or -> "or"
  | Xor -> "xor" | Shl -> "shl" | Shr -> "shr" | Asr -> "asr"
  | Not -> "not" | Neg -> "neg" | Mov -> "mov"

let cmp_to_string = function
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Ult -> "<u" | Uge -> ">=u"

let pp_value ppf = function
  | Var v -> Ident.pp ppf v
  | Int i -> Fmt.int ppf i

let rec pp ppf (t : term) =
  let pv = pp_value in
  match t with
  | Prim (x, p, vs, k) ->
      Fmt.pf ppf "@[<h>%a = %s(%a)@]@.%a" Ident.pp x (prim_to_string p)
        Fmt.(list ~sep:comma pv) vs pp k
  | MemRead (sp, a, dsts, k) ->
      Fmt.pf ppf "@[<h>(%a) = %s[%a]@]@.%a"
        Fmt.(array ~sep:comma Ident.pp) dsts
        (Nova.Ast.mem_space_to_string sp) pv a pp k
  | MemWrite (sp, a, vs, k) ->
      Fmt.pf ppf "@[<h>%s[%a] <- (%a)@]@.%a"
        (Nova.Ast.mem_space_to_string sp) pv a
        Fmt.(array ~sep:comma pv) vs pp k
  | Hash (x, v, k) -> Fmt.pf ppf "@[<h>%a = hash(%a)@]@.%a" Ident.pp x pv v pp k
  | BitTestSet (x, a, v, k) ->
      Fmt.pf ppf "@[<h>%a = bit_test_set(%a, %a)@]@.%a" Ident.pp x pv a pv v pp k
  | CsrRead (x, c, k) -> Fmt.pf ppf "@[<h>%a = csr[%s]@]@.%a" Ident.pp x c pp k
  | CsrWrite (c, v, k) -> Fmt.pf ppf "@[<h>csr[%s] <- %a@]@.%a" c pv v pp k
  | RfifoRead (a, dsts, k) ->
      Fmt.pf ppf "@[<h>(%a) = rfifo[%a]@]@.%a"
        Fmt.(array ~sep:comma Ident.pp) dsts pv a pp k
  | TfifoWrite (a, vs, k) ->
      Fmt.pf ppf "@[<h>tfifo[%a] <- (%a)@]@.%a" pv a
        Fmt.(array ~sep:comma pv) vs pp k
  | CtxArb k -> Fmt.pf ppf "ctx_arb@.%a" pp k
  | Clone (dsts, src, k) ->
      Fmt.pf ppf "@[<h>(%a) = clone(%a)@]@.%a"
        Fmt.(array ~sep:comma Ident.pp) dsts Ident.pp src pp k
  | Branch (c, a, b, t1, t2) ->
      Fmt.pf ppf "@[<v>if %a %s %a then {@;<0 2>@[<v>%a@]@,} else {@;<0 2>@[<v>%a@]@,}@]"
        pv a (cmp_to_string c) pv b pp t1 pp t2
  | App (f, vs) -> Fmt.pf ppf "@[<h>%a(%a)@]" pv f Fmt.(list ~sep:comma pv) vs
  | Halt vs -> Fmt.pf ppf "@[<h>halt(%a)@]" Fmt.(list ~sep:comma pv) vs
  | Fix (defs, k) ->
      List.iter
        (fun d ->
          Fmt.pf ppf "@[<v>%s %a(%a) {@;<0 2>@[<v>%a@]@,}@]@."
            (match d.kind with Func -> "fun" | Cont -> "cont")
            Ident.pp d.name
            Fmt.(list ~sep:comma Ident.pp)
            d.params pp d.body)
        defs;
      pp ppf k

let to_string t = Fmt.str "%a" pp t

(* ------------------------------------------------------------------ *)
(* SSA validation                                                      *)
(* ------------------------------------------------------------------ *)

(* Every binder must be distinct program-wide. *)
let check_ssa (t : term) : (unit, string) result =
  let seen = Ident.Tbl.create 256 in
  let dup = ref None in
  let bind x =
    if Ident.Tbl.mem seen x then dup := Some x else Ident.Tbl.add seen x ()
  in
  let rec go t =
    match t with
    | Prim (x, _, _, k) | Hash (x, _, k) | BitTestSet (x, _, _, k)
    | CsrRead (x, _, k) ->
        bind x;
        go k
    | MemRead (_, _, dsts, k) | RfifoRead (_, dsts, k) ->
        Array.iter bind dsts;
        go k
    | Clone (dsts, _, k) ->
        Array.iter bind dsts;
        go k
    | MemWrite (_, _, _, k) | TfifoWrite (_, _, k) | CsrWrite (_, _, k)
    | CtxArb k ->
        go k
    | Branch (_, _, _, a, b) ->
        go a;
        go b
    | App _ | Halt _ -> ()
    | Fix (defs, k) ->
        List.iter
          (fun d ->
            bind d.name;
            List.iter bind d.params;
            go d.body)
          defs;
        go k
  in
  go t;
  match !dup with
  | None -> Ok ()
  | Some x -> Error (Fmt.str "duplicate binder %a" Ident.pp x)
