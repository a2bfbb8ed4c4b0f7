(* AMPL-style modeling layer over the LP substrate.

   The "model" half of the paper's AMPL setup (Figure 2): indexed families
   of 0-1 variables (e.g.  [var Move {Exists, Banks, Banks} binary])
   and named linear rows over their members.  Instantiation produces an [Lp.Problem.t]; solutions are
   read back through the same family handles and index tuples.

   Referencing a family at an index outside its declared index set is an
   error: this strictness catches model-generation bugs early, exactly the
   discipline AMPL enforces.

   Cost model.  Declaring a family binds it to a handle and lists its
   members, one per index tuple, in declaration order.  The tuple ->
   member table, which is also the membership check, is built on the
   first lookup by tuple.  A reference by tuple ([member]) costs one
   lookup in that table; a generator that keeps the listed members
   ([members]) looks nothing up at all.  Rows and the objective are
   stated term by term on members ([term], [row], [objective_term]), so
   instantiation looks nothing up:
   it creates a member's LP variable (and formats its name) on the
   member's first reference and reuses it afterwards. *)

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
  mutable listed : member array; (* one per index tuple, as declared *)
  mutable table : member Tuple_tbl.t option; (* built on first lookup *)
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

let table fam =
  match fam.table with
  | Some tbl -> tbl
  | None ->
      let tbl = Tuple_tbl.create (max 16 (Array.length fam.listed)) in
      Array.iter
        (fun m ->
          if Tuple_tbl.mem tbl m.index then
            Diag.ice "Ampl: %a is declared twice" pp_member m;
          Tuple_tbl.add tbl m.index m)
        fam.listed;
      fam.table <- Some tbl;
      tbl

(* The members of a family, in declaration order. *)
let members fam = fam.listed

(* An out-of-set reference is reported when the model is instantiated,
   as AMPL reports it when the model meets its data. *)
let member fam index =
  match Tuple_tbl.find (table fam) index with
  | m -> m
  | exception Not_found -> { fam; index; var = outside }

(* A stated constraint keeps its terms in two flat arrays, so the model
   awaiting instantiation holds two words per term. *)
type constr = {
  con_name : string;
  sense : Lp.Problem.sense;
  rhs : float;
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
  (* the row under construction by [term] *)
  mutable row_mems : member array;
  mutable row_coefs : Float.Array.t;
  mutable row_len : int;
}

let create () =
  {
    id = ref ();
    families = [];
    constraints = [];
    objective = [];
    n_constraints = 0;
    instantiated = false;
    row_mems = [||];
    row_coefs = Float.Array.create 0;
    row_len = 0;
  }

(* A family over [tuples], listed without duplicates (a duplicate is an
   internal error once the family is looked up by tuple). *)
let declare_listed t name ~binary ~lo ~hi (tuples : Dataset.tuple array) =
  if List.exists (fun f -> f.fam_name = name) t.families then
    Diag.ice "Ampl: duplicate variable family %s" name;
  let fam =
    { fam_name = name; owner = t.id; binary; lo; hi; listed = [||]; table = None }
  in
  fam.listed <- Array.map (fun tup -> { fam; index = tup; var = unused }) tuples;
  t.families <- fam :: t.families;
  fam

let declare t name ~index ~binary ~lo ~hi =
  declare_listed t name ~binary ~lo ~hi (Array.of_list (Dataset.elements index))

let declare_binary_family t name ~index =
  declare t name ~index ~binary:true ~lo:0. ~hi:1.

(* A binary family whose members are listed in the order of [tuples]:
   see [members]. *)
let declare_binary_listed t name tuples =
  declare_listed t name ~binary:true ~lo:0. ~hi:1. tuples

let declare_continuous_family t name ~index ~lo ~hi =
  declare t name ~index ~binary:false ~lo ~hi

(* Rows are stated term by term: [term t c m] appends [c * m] to the row
   under construction and [row t ~name sense rhs] states it.  The terms
   keep their order until instantiation. *)
let term t coef mem =
  let n = t.row_len in
  if n = Array.length t.row_mems then begin
    let cap = max 16 (2 * n) in
    let mems = Array.make cap mem and coefs = Float.Array.create cap in
    Array.blit t.row_mems 0 mems 0 n;
    Float.Array.blit t.row_coefs 0 coefs 0 n;
    t.row_mems <- mems;
    t.row_coefs <- coefs
  end;
  t.row_mems.(n) <- mem;
  Float.Array.set t.row_coefs n coef;
  t.row_len <- n + 1

let row t ~name sense rhs =
  let n = t.row_len in
  t.constraints <-
    {
      con_name = name;
      sense;
      rhs;
      mems = Array.sub t.row_mems 0 n;
      coefs = Float.Array.sub t.row_coefs 0 n;
    }
    :: t.constraints;
  t.n_constraints <- t.n_constraints + 1;
  t.row_len <- 0

(* One objective term [c * m]; a member's terms are summed in the order
   they were added. *)
let objective_term t coef mem =
  t.objective <- { coef; mem } :: t.objective

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
  let vars = ref [||] and order = ref [||] in
  List.iter
    (fun con ->
      let n = Array.length con.mems in
      if Array.length !vars < n then begin
        vars := Array.make (2 * n) 0;
        order := Array.make (2 * n) 0
      end;
      let vars = !vars and order = !order in
      for i = 0 to n - 1 do
        vars.(i) <- resolve t problem name con.mems.(i);
        order.(i) <- i
      done;
      (* The row as [Lp.Problem] keeps it: terms sorted by variable, a
         variable's coefficients summed left to right, zero sums dropped.
         A stable insertion sort of the positions (rows are short), then
         a merge from the back, builds that list directly. *)
      for i = 1 to n - 1 do
        let x = order.(i) in
        let j = ref i in
        while !j > 0 && vars.(order.(!j - 1)) > vars.(x) do
          order.(!j) <- order.(!j - 1);
          decr j
        done;
        order.(!j) <- x
      done;
      let terms = ref [] in
      let hi = ref (n - 1) in
      while !hi >= 0 do
        let v = vars.(order.(!hi)) in
        let lo = ref !hi in
        while !lo > 0 && vars.(order.(!lo - 1)) = v do
          decr lo
        done;
        let c = ref (Float.Array.get con.coefs order.(!lo)) in
        for k = !lo + 1 to !hi do
          c := !c +. Float.Array.get con.coefs order.(k)
        done;
        if !c <> 0. then terms := (v, !c) :: !terms;
        hi := !lo - 1
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
  match Tuple_tbl.find_opt (table fam) index with
  | Some m when m.var >= 0 -> solution.(m.var)
  | _ -> 0.

let is_one inst solution fam index = value inst solution fam index > 0.5

(* [is_one] of a member the caller holds, with no lookup. *)
let member_is_one inst solution m =
  if m.fam.owner != inst.model.id then
    Diag.ice "Ampl: family %s belongs to another model" m.fam.fam_name;
  m.var >= 0 && solution.(m.var) > 0.5

(* AMPL .mod-style summary rendering for documentation and debugging. *)
let pp_summary ppf t =
  Fmt.pf ppf "model with %d families, %d constraints@."
    (List.length t.families) t.n_constraints;
  List.iter
    (fun fam ->
      Fmt.pf ppf "  var %s {%d tuples}%s;@." fam.fam_name
        (Array.length fam.listed)
        (if fam.binary then " binary" else ""))
    (List.rev t.families)
