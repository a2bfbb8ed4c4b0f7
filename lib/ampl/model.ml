(* AMPL-style modeling layer over the LP substrate.

   The "model" half of the paper's AMPL setup (Figure 2): indexed families
   of 0-1 variables (e.g.  [var Move {Exists, Banks, Banks} binary])
   and named linear rows over their members.  Instantiation produces an
   [Lp.Problem.t]; solutions are read back through the same members.

   A family has members 0 .. n-1 and a printer for a member's index
   ("12,x_34,A"), which names its LP variable "Move[12,x_34,A]".  A
   generator that numbers its own index sets declares families that way
   ([declare_binary]) and states rows on the members it holds ([members]):
   it builds no tuple and looks nothing up.  A family over an AMPL data
   set ([declare_binary_family]) prints its tuples.

   A reference by tuple ([member]) looks the printed index up in a table
   built on the family's first such lookup, which is also the membership
   check.  Referencing a family outside its index set is an error,
   reported when the model is instantiated, as AMPL reports it when the
   model meets its data: this strictness catches model-generation bugs
   early.

   Cost model.  Rows and the objective are stated term by term on
   members ([term], [row], [objective_term]) and go straight into the
   problem's own arrays: a member's LP variable is created (and its name
   formatted) on the member's first reference, and a stated row is
   normalized on scratch arrays and copied in.  The model keeps no copy
   of what it stated; [instantiate] hands the problem over. *)

open Support

type family = {
  fam_name : string;
  owner : unit ref; (* the declaring model's identity *)
  print_index : Buffer.t -> int -> unit;
  mutable listed : member array;
  mutable by_index : (string, member) Hashtbl.t option;
      (* printed index -> member, built on the first lookup by tuple *)
}

and member = {
  fam : family;
  j : int; (* index in the family; -1 for an [outside] reference *)
  mutable var : int; (* LP variable; [unused] or [outside] before that *)
  outside_index : string; (* the printed tuple of an [outside] reference *)
}

let unused = -1 (* in the index set, not yet instantiated *)
let outside = -2 (* a reference outside the index set *)

let pp_member ppf m =
  let index =
    if m.j < 0 then m.outside_index
    else begin
      let b = Buffer.create 16 in
      m.fam.print_index b m.j;
      Buffer.contents b
    end
  in
  Fmt.pf ppf "%s[%s]" m.fam.fam_name index

(* The members of a family, in index order. *)
let members fam = fam.listed

(* [string_of_int] goes through the printf machinery; variable names
   print a point or register number per member *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_nat buf n else Buffer.add_string buf (string_of_int n)

let print_tuple buf (tup : Dataset.tuple) =
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      match a with
      | Dataset.S s -> Buffer.add_string buf s
      | Dataset.I n -> add_int buf n)
    tup

let table fam =
  match fam.by_index with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create (max 16 (Array.length fam.listed)) in
      let b = Buffer.create 32 in
      Array.iteri
        (fun j m ->
          Buffer.clear b;
          fam.print_index b j;
          let key = Buffer.contents b in
          if Hashtbl.mem tbl key then
            Diag.ice "Ampl: %s[%s] is declared twice" fam.fam_name key;
          Hashtbl.add tbl key m)
        fam.listed;
      fam.by_index <- Some tbl;
      tbl

let tuple_key tup =
  let b = Buffer.create 32 in
  print_tuple b tup;
  Buffer.contents b

(* An out-of-set reference is reported when the model is instantiated. *)
let member fam tup =
  let key = tuple_key tup in
  match Hashtbl.find (table fam) key with
  | m -> m
  | exception Not_found -> { fam; j = -1; var = outside; outside_index = key }

type t = {
  id : unit ref;
  mutable families : family list; (* newest first *)
  mutable instantiated : bool;
  problem : Lp.Problem.t; (* written as the model is stated *)
  name : Buffer.t;
  mutable error : string option;
      (* the first bad reference, reported at instantiation *)
  (* the row under construction, as stated, and scratch to normalize it *)
  mutable row_vars : int array;
  mutable row_coefs : Float.Array.t;
  mutable row_len : int;
  mutable order : int array;
  mutable out_vars : int array;
  mutable out_coefs : Float.Array.t;
}

let create () =
  {
    id = ref ();
    families = [];
    instantiated = false;
    problem = Lp.Problem.create ();
    name = Buffer.create 64;
    error = None;
    row_vars = Array.make 64 0;
    row_coefs = Float.Array.make 64 0.;
    row_len = 0;
    order = Array.make 64 0;
    out_vars = Array.make 64 0;
    out_coefs = Float.Array.make 64 0.;
  }

(* A binary family of [n] members, member j's index printed by
   [index buf j]. *)
let declare_binary t name n ~index =
  if List.exists (fun f -> f.fam_name = name) t.families then
    Diag.ice "Ampl: duplicate variable family %s" name;
  let fam =
    { fam_name = name; owner = t.id; print_index = index; listed = [||];
      by_index = None }
  in
  fam.listed <-
    Array.init n (fun j -> { fam; j; var = unused; outside_index = "" });
  t.families <- fam :: t.families;
  fam

(* A binary family over the tuples of an AMPL data set, in the set's
   order. *)
let declare_binary_family t name ~index =
  let tuples = Array.of_list (Dataset.elements index) in
  declare_binary t name (Array.length tuples) ~index:(fun b j ->
      print_tuple b tuples.(j))

(* The LP variable of a member, created with its name "Family[a1,...]"
   on the first reference; -1 for a bad reference, which is recorded. *)
let resolve t m =
  if m.var >= 0 && m.fam.owner == t.id then m.var
  else begin
    let fam = m.fam in
    let bad msg =
      if t.error = None then t.error <- Some msg;
      -1
    in
    if fam.owner != t.id then
      bad (Fmt.str "Ampl: family %s belongs to another model" fam.fam_name)
    else if m.var = outside then
      bad
        (Fmt.str "Ampl: %a is outside the index set of %s" pp_member m
           fam.fam_name)
    else begin
      let name = t.name in
      Buffer.clear name;
      Buffer.add_string name fam.fam_name;
      Buffer.add_char name '[';
      fam.print_index name m.j;
      Buffer.add_char name ']';
      m.var <- Lp.Problem.add_binary t.problem (Buffer.contents name);
      m.var
    end
  end

(* Rows are stated term by term: [term t c m] appends [c * m] to the row
   under construction and [row t ~name sense rhs] states it. *)
let term t coef m =
  let v = resolve t m in
  if v >= 0 then begin
    let n = t.row_len in
    if n = Array.length t.row_vars then begin
      let vars = Array.make (2 * n) 0 and coefs = Float.Array.make (2 * n) 0. in
      Array.blit t.row_vars 0 vars 0 n;
      Float.Array.blit t.row_coefs 0 coefs 0 n;
      t.row_vars <- vars;
      t.row_coefs <- coefs;
      t.order <- Array.make (2 * n) 0;
      t.out_vars <- Array.make (2 * n) 0;
      t.out_coefs <- Float.Array.make (2 * n) 0.
    end;
    t.row_vars.(n) <- v;
    Float.Array.set t.row_coefs n coef;
    t.row_len <- n + 1
  end

(* The row goes into the problem's arrays as [Lp.Problem] keeps it: terms
   sorted by variable, a variable's coefficients summed left to right,
   zero sums dropped. *)
let row t ~name sense rhs =
  let n = t.row_len and vars = t.row_vars and order = t.order in
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
  (* a stable insertion sort of the positions (rows are short) *)
  for i = 1 to n - 1 do
    let x = order.(i) in
    let j = ref i in
    while !j > 0 && vars.(order.(!j - 1)) > vars.(x) do
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    order.(!j) <- x
  done;
  let len = ref 0 and i = ref 0 in
  while !i < n do
    let v = vars.(order.(!i)) in
    let c = ref (Float.Array.get t.row_coefs order.(!i)) in
    incr i;
    while !i < n && vars.(order.(!i)) = v do
      c := !c +. Float.Array.get t.row_coefs order.(!i);
      incr i
    done;
    if !c <> 0. then begin
      t.out_vars.(!len) <- v;
      Float.Array.set t.out_coefs !len !c;
      incr len
    end
  done;
  Lp.Problem.add_row_array t.problem ~name sense rhs t.out_vars t.out_coefs
    !len;
  t.row_len <- 0

(* One objective term [c * m]; a member's terms are summed in the order
   they were added. *)
let objective_term t coef m =
  let v = resolve t m in
  if v >= 0 then
    Lp.Problem.set_obj t.problem v (coef +. Lp.Problem.var_obj t.problem v)

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

type instance = { problem : Lp.Problem.t; model : t }

(* The LP the model stated: variables numbered by first reference, in
   the order the objective terms and rows were stated (a generator that
   states its objective first gives the objective's variables the low
   indices), rows in statement order.  A bad reference anywhere is an
   internal error here. *)
let instantiate t =
  if t.instantiated then Diag.ice "Ampl: model instantiated twice";
  t.instantiated <- true;
  Option.iter (fun msg -> Diag.ice "%s" msg) t.error;
  { problem = t.problem; model = t }

(* [is_one] of a member the caller holds, with no lookup. *)
let member_is_one inst solution m =
  if m.fam.owner != inst.model.id then
    Diag.ice "Ampl: family %s belongs to another model" m.fam.fam_name;
  m.var >= 0 && solution.(m.var) > 0.5

(* Read back the value of a family member from a solution vector.
   Members that were never referenced by any constraint or objective have
   no LP variable; they are reported as 0 (they were unconstrained and
   cost nothing, so 0 is a valid completion for our 0-1 models). *)
let value inst solution fam tup =
  if fam.owner != inst.model.id then
    Diag.ice "Ampl: family %s belongs to another model" fam.fam_name;
  match Hashtbl.find_opt (table fam) (tuple_key tup) with
  | Some m when m.var >= 0 -> solution.(m.var)
  | _ -> 0.

let is_one inst solution fam tup = value inst solution fam tup > 0.5

(* AMPL .mod-style summary rendering for documentation and debugging. *)
let pp_summary ppf t =
  Fmt.pf ppf "model with %d families, %d constraints@."
    (List.length t.families) (Lp.Problem.num_rows t.problem);
  List.iter
    (fun fam ->
      Fmt.pf ppf "  var %s {%d tuples} binary;@." fam.fam_name
        (Array.length fam.listed))
    (List.rev t.families)
