(* AMPL-style modeling layer over the LP substrate.

   The "model" half of the paper's AMPL setup (Figure 2): indexed families
   of 0-1 variables (e.g.  [var Move {Exists, Banks, Banks} binary]),
   linear expressions summed over datasets, and named constraint
   templates.  Instantiation produces an [Lp.Problem.t]; solutions are
   read back through the same family handles and index tuples.

   Referencing a family at an index outside its declared index set is an
   error: this strictness catches model-generation bugs early, exactly the
   discipline AMPL enforces.

   Cost model.  Declaring a family binds it to a handle and fills its
   tuple -> member table from the index set; that table is also the
   membership check.  A reference costs one lookup in that table, and the
   term keeps the member it found, so instantiation looks nothing up: it
   creates a member's LP variable (and formats its name) on the member's
   first reference and reuses it afterwards. *)

open Support

module Tuple_tbl = Hashtbl.Make (struct
  type t = Dataset.tuple

  let equal = Dataset.tuple_equal
  let hash = Dataset.tuple_hash
end)

type family = {
  fam_name : string;
  owner : unit ref; (* the declaring model's identity *)
  binary : bool;
  lo : float;
  hi : float;
  members : member Tuple_tbl.t; (* one per index tuple *)
}

and member = {
  fam : family;
  index : Dataset.tuple;
  mutable var : int; (* LP variable; [unused] or [outside] before that *)
}

let unused = -1 (* in the index set, not yet instantiated *)
let outside = -2 (* a reference outside the index set *)

type term = { coef : float; mem : member }

let pp_member ppf m =
  Fmt.pf ppf "%s[%a]" m.fam.fam_name
    Fmt.(list ~sep:(any ",") Dataset.pp_atom)
    m.index

(* Linear expressions: constant + weighted variable references. *)
type linexpr = { const : float; terms : term list }

let zero = { const = 0.; terms = [] }
let const c = { const = c; terms = [] }

(* An out-of-set reference is reported when the model is instantiated,
   as AMPL reports it when the model meets its data. *)
let member fam index =
  match Tuple_tbl.find fam.members index with
  | m -> m
  | exception Not_found -> { fam; index; var = outside }

let v ?(coef = 1.0) fam index =
  { const = 0.; terms = [ { coef; mem = member fam index } ] }

let add a b = { const = a.const +. b.const; terms = a.terms @ b.terms }
let negate tm = { tm with coef = -.tm.coef }

let sub a b =
  { const = a.const -. b.const; terms = a.terms @ List.map negate b.terms }

let scale k e =
  {
    const = k *. e.const;
    terms = List.map (fun tm -> { tm with coef = k *. tm.coef }) e.terms;
  }

let sum exprs =
  {
    const = List.fold_left (fun c e -> c +. e.const) 0. exprs;
    terms = List.concat_map (fun e -> e.terms) exprs;
  }

let sum_over ds f = Dataset.fold (fun tup acc -> add (f tup) acc) ds zero

(* A stated constraint keeps its terms in two flat arrays, so the model
   awaiting instantiation holds two words per term. *)
type constr = {
  con_name : string;
  sense : Lp.Problem.sense;
  rhs : float; (* the expression's constant already moved over *)
  mems : member array;
  coefs : Float.Array.t;
}

type t = {
  id : unit ref;
  mutable families : family list; (* newest first *)
  mutable constraints : constr list; (* newest first *)
  mutable objective : term list; (* newest first *)
  mutable n_constraints : int;
  mutable instantiated : bool;
}

let create () =
  {
    id = ref ();
    families = [];
    constraints = [];
    objective = [];
    n_constraints = 0;
    instantiated = false;
  }

let declare t name ~index ~binary ~lo ~hi =
  if List.exists (fun f -> f.fam_name = name) t.families then
    Diag.ice "Ampl: duplicate variable family %s" name;
  let members = Tuple_tbl.create (max 16 (Dataset.size index)) in
  let fam = { fam_name = name; owner = t.id; binary; lo; hi; members } in
  Dataset.iter
    (fun tup ->
      Tuple_tbl.add members tup { fam; index = tup; var = unused })
    index;
  t.families <- fam :: t.families;
  fam

let declare_binary_family t name ~index =
  declare t name ~index ~binary:true ~lo:0. ~hi:1.

let declare_continuous_family t name ~index ~lo ~hi =
  declare t name ~index ~binary:false ~lo ~hi

(* Record [pos - neg  sense  rhs]: the terms of [pos] as they are, then
   those of [neg] negated, with no intermediate expression. *)
let state t ~name sense rhs pos neg =
  let n = List.length pos + List.length neg in
  let mems =
    match (pos, neg) with
    | tm :: _, _ | [], tm :: _ -> Array.make n tm.mem
    | [], [] -> [||]
  in
  let coefs = Float.Array.create n in
  let i = ref 0 in
  let put tm c =
    mems.(!i) <- tm.mem;
    Float.Array.set coefs !i c;
    incr i
  in
  List.iter (fun tm -> put tm tm.coef) pos;
  List.iter (fun tm -> put tm (-.tm.coef)) neg;
  t.constraints <-
    { con_name = name; sense; rhs; mems; coefs } :: t.constraints;
  t.n_constraints <- t.n_constraints + 1

let add_constraint t ~name expr sense rhs =
  state t ~name sense (rhs -. expr.const) expr.terms []

(* Convenience: e1 <= e2 etc., folding constants onto the rhs. *)
let add_rel sense t ~name e1 e2 =
  state t ~name sense (-.(e1.const -. e2.const)) e1.terms e2.terms

let add_le t ~name e1 e2 = add_rel Lp.Problem.Le t ~name e1 e2
let add_ge t ~name e1 e2 = add_rel Lp.Problem.Ge t ~name e1 e2
let add_eq t ~name e1 e2 = add_rel Lp.Problem.Eq t ~name e1 e2

(* The objective's constant is dropped: it does not move the optimum. *)
let add_to_objective t expr =
  t.objective <- List.rev_append expr.terms t.objective

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

type instance = { problem : Lp.Problem.t; model : t }

(* [string_of_int] goes through the printf machinery; variable names
   print a point or register number per member *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* The LP variable of a term's member, created with its name
   "Family[a1,a2,...]" on the first reference. *)
let resolve t problem name m =
  let fam = m.fam in
  if fam.owner != t.id then
    Diag.ice "Ampl: family %s belongs to another model" fam.fam_name;
  if m.var >= 0 then m.var
  else if m.var = outside then
    Diag.ice "Ampl: %a is outside the index set of %s" pp_member m
      fam.fam_name
  else begin
    Buffer.clear name;
    Buffer.add_string name fam.fam_name;
    Buffer.add_char name '[';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char name ',';
        match a with
        | Dataset.S s -> Buffer.add_string name s
        | Dataset.I n when n >= 0 -> add_nat name n
        | Dataset.I n -> Buffer.add_string name (string_of_int n))
      m.index;
    Buffer.add_char name ']';
    let name = Buffer.contents name in
    m.var <-
      (if fam.binary then Lp.Problem.add_binary problem name
       else Lp.Problem.add_var problem ~lo:fam.lo ~hi:fam.hi name);
    m.var
  end

(* Variables are numbered by first reference: objective terms first, so
   that objective variables get low indices, then constraint terms in
   the order the constraints were added. *)
let instantiate t =
  if t.instantiated then Diag.ice "Ampl: model instantiated twice";
  t.instantiated <- true;
  let problem = Lp.Problem.create () in
  let name = Buffer.create 64 in
  List.iter
    (fun tm ->
      let var = resolve t problem name tm.mem in
      Lp.Problem.set_obj problem var
        (tm.coef +. Lp.Problem.var_obj problem var))
    (List.rev t.objective);
  let vars = ref [||] in
  List.iter
    (fun con ->
      let n = Array.length con.mems in
      if Array.length !vars < n then vars := Array.make (2 * n) 0;
      let vars = !vars in
      for i = 0 to n - 1 do
        vars.(i) <- resolve t problem name con.mems.(i)
      done;
      let terms = ref [] in
      for i = n - 1 downto 0 do
        terms := (vars.(i), Float.Array.get con.coefs i) :: !terms
      done;
      Lp.Problem.add_row problem ~name:con.con_name con.sense con.rhs !terms)
    (List.rev t.constraints);
  (* the instance holds what the model stated; the member tables stay
     for reading solutions back *)
  t.constraints <- [];
  t.objective <- [];
  { problem; model = t }

(* Read back the value of a family member from a solution vector.
   Members that were never referenced by any constraint or objective have
   no LP variable; they are reported as 0 (they were unconstrained and
   cost nothing, so 0 is a valid completion for our 0-1 models). *)
let value inst solution fam index =
  if fam.owner != inst.model.id then
    Diag.ice "Ampl: family %s belongs to another model" fam.fam_name;
  match Tuple_tbl.find_opt fam.members index with
  | Some m when m.var >= 0 -> solution.(m.var)
  | _ -> 0.

let is_one inst solution fam index = value inst solution fam index > 0.5

(* AMPL .mod-style summary rendering for documentation and debugging. *)
let pp_summary ppf t =
  Fmt.pf ppf "model with %d families, %d constraints@."
    (List.length t.families) t.n_constraints;
  List.iter
    (fun fam ->
      Fmt.pf ppf "  var %s {%d tuples}%s;@." fam.fam_name
        (Tuple_tbl.length fam.members)
        (if fam.binary then " binary" else ""))
    (List.rev t.families)
