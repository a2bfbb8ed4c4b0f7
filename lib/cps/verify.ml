(* Pass-by-pass CPS IR verifier.

   The ILP bank-allocation model is feasible by construction only while
   the CPS invariants of [Ir] actually hold (paper §4.5, §9, §10): every
   binder is unique (SSA), every use is lexically scoped, aggregates have
   machine-legal widths, control is tail-call-only after
   de-proceduralization, and write-side operands are single-use after the
   SSU pass.  A buggy contraction or cloning pass that breaks one of
   these surfaces far downstream as an opaque infeasible model or a
   [Checker] violation; this module re-checks the invariants right after
   the pass that is supposed to establish or preserve them.

   [check ~stage] is cumulative: a later stage enforces everything an
   earlier one does plus the invariants its pass introduces.

   [differential] is the semantic counterpart: the CPS passes must
   preserve the interpreter's observable verdict (the [Halt] values and
   the transmit-FIFO trace), so we re-run [Interp] before and after a
   pass and diff the results. *)

open Support
open Ir

type stage =
  | After_convert (* scoping, SSA, arity, aggregate widths *)
  | After_contract (* same set: contraction must preserve them *)
  | After_deproc (* + no Func defs, all applications target known blocks *)
  | After_ssu (* + write-side single use, clone placement *)

let deproc_done = function After_deproc | After_ssu -> true | _ -> false
let ssu_done = function After_ssu -> true | _ -> false

let prim_arity = function
  | Add | Sub | Mul | And | Or | Xor | Shl | Shr | Asr -> 2
  | Not | Neg | Mov -> 1

(* Mirror of the typechecker's transfer-size rules (and of
   [Ixp.Insn.legal_aggregate]): contraction may shrink a read but must
   keep it machine-legal. *)
let legal_width (sp : space) n =
  match sp with
  | Nova.Ast.Sram | Nova.Ast.Scratch -> n >= 1 && n <= 8
  | Nova.Ast.Sdram -> n >= 2 && n <= 8 && n mod 2 = 0

(* ------------------------------------------------------------------ *)
(* Structural checks                                                   *)
(* ------------------------------------------------------------------ *)

(* Write-side use counting, as in [Ssu] but for validation: after SSU
   every variable stored to memory (or fed to hash / bit_test_set) must
   have that store as its only use in the whole program. *)
let check_single_use (add : string -> unit) (t : term) =
  let err fmt = Fmt.kstr add fmt in
  let writes = Ident.Tbl.create 64 in
  let others = Ident.Tbl.create 256 in
  let bump tbl x =
    Ident.Tbl.replace tbl x
      (1 + Option.value ~default:0 (Ident.Tbl.find_opt tbl x))
  in
  let wv = function Var x -> bump writes x | Int _ -> () in
  let ov = function Var x -> bump others x | Int _ -> () in
  iter_terms
    (fun t ->
      match t with
      | MemWrite (_, a, vs, _) | TfifoWrite (a, vs, _) ->
          ov a;
          Array.iter wv vs
      | Hash (_, v, _) -> wv v
      | BitTestSet (_, a, v, _) ->
          ov a;
          wv v
      | Prim (_, _, vs, _) -> List.iter ov vs
      | MemRead (_, a, _, _) | RfifoRead (a, _, _) -> ov a
      | CsrWrite (_, v, _) -> ov v
      | Branch (_, a, b, _, _) ->
          ov a;
          ov b
      | App (f, vs) ->
          ov f;
          List.iter ov vs
      | Halt vs -> List.iter ov vs
      | Clone _ (* the defining copy is not a use *)
      | CsrRead _ | CtxArb _ | Fix _ ->
          ())
    t;
  Ident.Tbl.iter
    (fun x w ->
      let o = Option.value ~default:0 (Ident.Tbl.find_opt others x) in
      if w > 1 then
        err "variable %a has %d write-side uses (SSU requires exactly one)"
          Ident.pp x w
      else if o > 0 then
        err
          "write-side variable %a has %d other use(s) (SSU requires the \
           store to be its only use)"
          Ident.pp x o)
    writes

let check ~stage (t : term) : string list =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let module S = Ident.Set in
  (* SSA: binders unique program-wide *)
  let bound = Ident.Tbl.create 256 in
  let bind x =
    if Ident.Tbl.mem bound x then
      err "duplicate binder %a (SSA unique-binding violated)" Ident.pp x
    else Ident.Tbl.add bound x ()
  in
  (* names and parameter lists of every Fix definition, for arity and
     tail-call checks *)
  let defs_tbl = Ident.Tbl.create 64 in
  iter_terms
    (fun t ->
      match t with
      | Fix (defs, _) ->
          List.iter (fun d -> Ident.Tbl.replace defs_tbl d.name d) defs
      | _ -> ())
    t;
  let use scope x =
    if not (S.mem x scope) then
      err "use of %a is not in scope (use before definition?)" Ident.pp x
  in
  let uval scope = function Var x -> use scope x | Int _ -> () in
  let uvals scope vs = List.iter (uval scope) vs in
  (* [recent] is the set of variables bound by the immediately preceding
     binding instruction (or the enclosing function's parameters): SSU
     places clones directly after their source's definition, so a
     post-SSU [Clone] whose source is not in [recent] is misplaced. *)
  let rec go scope ~recent t =
    match t with
    | Prim (x, p, vs, k) ->
        if List.length vs <> prim_arity p then
          err "primitive %s applied to %d operands (arity %d)"
            (prim_to_string p) (List.length vs) (prim_arity p);
        uvals scope vs;
        bind x;
        go (S.add x scope) ~recent:(S.singleton x) k
    | MemRead (sp, a, dsts, k) ->
        if not (legal_width sp (Array.length dsts)) then
          err "%s read of %d words is not machine-legal"
            (Nova.Ast.mem_space_to_string sp)
            (Array.length dsts);
        uval scope a;
        Array.iter bind dsts;
        let scope = Array.fold_left (fun s d -> S.add d s) scope dsts in
        go scope ~recent:(S.of_list (Array.to_list dsts)) k
    | MemWrite (sp, a, vs, k) ->
        if not (legal_width sp (Array.length vs)) then
          err "%s write of %d words is not machine-legal"
            (Nova.Ast.mem_space_to_string sp)
            (Array.length vs);
        uval scope a;
        Array.iter (uval scope) vs;
        go scope ~recent:S.empty k
    | Hash (x, v, k) ->
        uval scope v;
        bind x;
        go (S.add x scope) ~recent:(S.singleton x) k
    | BitTestSet (x, a, v, k) ->
        uval scope a;
        uval scope v;
        bind x;
        go (S.add x scope) ~recent:(S.singleton x) k
    | CsrRead (x, _, k) ->
        bind x;
        go (S.add x scope) ~recent:(S.singleton x) k
    | CsrWrite (_, v, k) ->
        uval scope v;
        go scope ~recent:S.empty k
    | RfifoRead (a, dsts, k) ->
        uval scope a;
        Array.iter bind dsts;
        let scope = Array.fold_left (fun s d -> S.add d s) scope dsts in
        go scope ~recent:(S.of_list (Array.to_list dsts)) k
    | TfifoWrite (a, vs, k) ->
        uval scope a;
        Array.iter (uval scope) vs;
        go scope ~recent:S.empty k
    | CtxArb k -> go scope ~recent:S.empty k
    | Clone (dsts, src, k) ->
        if not (ssu_done stage) then
          err "clone of %a before the SSU pass" Ident.pp src;
        if Array.length dsts = 0 then
          err "clone of %a with no destinations" Ident.pp src;
        use scope src;
        if ssu_done stage && not (S.mem src recent) then
          err
            "clone of %a is not placed directly after its source's \
             definition"
            Ident.pp src;
        Array.iter bind dsts;
        let scope = Array.fold_left (fun s d -> S.add d s) scope dsts in
        go scope ~recent:(S.union recent (S.of_list (Array.to_list dsts))) k
    | Branch (_, a, b, t1, t2) ->
        uval scope a;
        uval scope b;
        go scope ~recent:S.empty t1;
        go scope ~recent:S.empty t2
    | App (f, vs) -> (
        uval scope f;
        uvals scope vs;
        match f with
        | Var fn -> (
            match Ident.Tbl.find_opt defs_tbl fn with
            | Some d ->
                if List.length d.params <> List.length vs then
                  err "application of %a with %d arguments (%d parameters)"
                    Ident.pp fn (List.length vs) (List.length d.params)
            | None ->
                (* Before de-proceduralization, applications of
                   continuation-valued parameters are legitimate; after
                   it, every jump must target a Fix-bound block. *)
                if deproc_done stage then
                  err "application head %a is not a Fix-bound block"
                    Ident.pp fn)
        | Int _ -> err "application of a constant")
    | Halt vs -> uvals scope vs
    | Fix (defs, k) ->
        let scope' =
          List.fold_left (fun s d -> S.add d.name s) scope defs
        in
        List.iter
          (fun d ->
            bind d.name;
            if deproc_done stage && d.kind = Func then
              err "Func-kind definition %a survived de-proceduralization"
                Ident.pp d.name;
            List.iter bind d.params;
            let body_scope =
              List.fold_left (fun s p -> S.add p s) scope' d.params
            in
            go body_scope ~recent:(S.of_list d.params) d.body)
          defs;
        go scope' ~recent:S.empty k
  in
  go S.empty ~recent:S.empty t;
  if ssu_done stage then check_single_use (fun s -> errs := s :: !errs) t;
  List.rev !errs

(* Raise a pass-attributed diagnostic if [check] finds anything. *)
let check_exn ~pass ~stage (t : term) =
  match check ~stage t with
  | [] -> ()
  | errs ->
      Diag.verify_failed ~pass "%a"
        Fmt.(list ~sep:cut string)
        errs

(* ------------------------------------------------------------------ *)
(* Differential semantics                                              *)
(* ------------------------------------------------------------------ *)

type observation = {
  result : int list;
  tfifo : int array;
}

let observe ~max_steps (t : term) :
    (observation, [ `Limit | `Error of string ]) result =
  match Interp.run_term ~max_steps t with
  | result, st -> Ok { result; tfifo = Interp.tfifo_contents st }
  | exception Interp.Interp_error msg ->
      if msg = "step limit exceeded" then Error `Limit else Error (`Error msg)

(* Compare the observable behaviour (Halt values and the transmit-FIFO
   trace, both starting from pristine memory) of a term before and after
   a transformation.  A step-limit blowout on either side is
   inconclusive and reported as success; a genuine interpreter error
   introduced by the pass, or a diverging observation, is a failure. *)
let differential ?(max_steps = 5_000_000) ~pass (before : term) (after : term)
    : (unit, string) result =
  match observe ~max_steps before with
  | Error `Limit -> Ok ()
  | Error (`Error msg) ->
      (* the input of the pass was already broken; don't blame the pass,
         but don't silently accept either *)
      Result.Error
        (Fmt.str "interpreter failed on the input of pass '%s': %s" pass msg)
  | Ok obs_before -> (
      match observe ~max_steps after with
      | Error `Limit -> Ok ()
      | Error (`Error msg) ->
          Result.Error
            (Fmt.str "pass '%s' broke the program: interpreter error: %s" pass
               msg)
      | Ok obs_after ->
          if obs_before.result <> obs_after.result then
            Result.Error
              (Fmt.str
                 "pass '%s' changed the observable result: (%a) before, (%a) \
                  after"
                 pass
                 Fmt.(list ~sep:comma int)
                 obs_before.result
                 Fmt.(list ~sep:comma int)
                 obs_after.result)
          else if obs_before.tfifo <> obs_after.tfifo then
            Result.Error
              (Fmt.str
                 "pass '%s' changed the transmit-FIFO trace: (%a) before, \
                  (%a) after"
                 pass
                 Fmt.(array ~sep:comma int)
                 obs_before.tfifo
                 Fmt.(array ~sep:comma int)
                 obs_after.tfifo)
          else Ok ())

let differential_exn ?max_steps ~pass before after =
  match differential ?max_steps ~pass before after with
  | Ok () -> ()
  | Result.Error msg -> Diag.verify_failed ~pass "%s" msg
