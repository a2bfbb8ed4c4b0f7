(* AMPL-style modeling layer over the LP substrate.

   The "model" half of the paper's AMPL setup (Figure 2): indexed families
   of 0-1 variables (e.g.  [var Move {Exists, Banks, Banks} binary])
   and named linear rows over their members, written into an
   [Lp.Problem.t]; solutions are read back through the same members.

   A family has members 0 .. n-1 and a printer for a member's index
   ("12,x_34,A"), which names its LP variable "Move[12,x_34,A]".  The
   generator numbers its own index sets, declares each family by its
   count ([declare_binary]) and states rows on the members it holds
   ([members]): it builds no tuple and looks nothing up.  Stating a
   member of another model's family is an internal error.

   Cost model.  Rows and the objective are stated term by term on
   members ([term], [row], [objective_term]) and go straight into the
   problem's own arrays: a member's LP variable is created (and its name
   formatted) on the member's first reference, and a stated row is
   normalized on scratch arrays and copied in.  The model keeps no copy
   of what it stated; [problem] is the LP as stated so far. *)

open Support

type family = {
  fam_name : string;
  owner : unit ref; (* the declaring model's identity *)
  print_index : Buffer.t -> int -> unit;
  mutable listed : member array;
}

and member = {
  fam : family;
  j : int; (* index in the family *)
  mutable var : int; (* LP variable; -1 before the first reference *)
}

(* The members of a family, in index order. *)
let members fam = fam.listed

(* [string_of_int] goes through the printf machinery; variable names
   print a point or register number per member *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

type t = {
  id : unit ref;
  mutable families : family list; (* newest first *)
  problem : Lp.Problem.t; (* written as the model is stated *)
  name : Buffer.t;
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
    problem = Lp.Problem.create ();
    name = Buffer.create 64;
    row_vars = Array.make 64 0;
    row_coefs = Float.Array.make 64 0.;
    row_len = 0;
    order = Array.make 64 0;
    out_vars = Array.make 64 0;
    out_coefs = Float.Array.make 64 0.;
  }

(* The LP the model stated: variables numbered by first reference, in
   the order the objective terms and rows were stated (a generator that
   states its objective first gives the objective's variables the low
   indices), rows in statement order. *)
let problem t = t.problem

(* A binary family of [n] members, member j's index printed by
   [index buf j]. *)
let declare_binary t name n ~index =
  if List.exists (fun f -> f.fam_name = name) t.families then
    Diag.ice "Ampl: duplicate variable family %s" name;
  let fam =
    { fam_name = name; owner = t.id; print_index = index; listed = [||] }
  in
  fam.listed <- Array.init n (fun j -> { fam; j; var = -1 });
  t.families <- fam :: t.families;
  fam

let check_owner t m =
  if m.fam.owner != t.id then
    Diag.ice "Ampl: family %s belongs to another model" m.fam.fam_name

(* The LP variable of a member, created with its name "Family[a1,...]"
   on the first reference. *)
let resolve t m =
  if m.var >= 0 && m.fam.owner == t.id then m.var
  else begin
    check_owner t m;
    let name = t.name in
    Buffer.clear name;
    Buffer.add_string name m.fam.fam_name;
    Buffer.add_char name '[';
    m.fam.print_index name m.j;
    Buffer.add_char name ']';
    m.var <- Lp.Problem.add_binary t.problem (Buffer.contents name);
    m.var
  end

(* Rows are stated term by term: [term t c m] appends [c * m] to the row
   under construction and [row t ~name sense rhs] states it. *)
let term t coef m =
  let v = resolve t m in
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
  Lp.Problem.set_obj t.problem v (coef +. Lp.Problem.var_obj t.problem v)

(* Whether a member is set in a solution of [problem t].  A member that
   no row or objective term referenced has no LP variable: it was
   unconstrained and cost nothing, so it reads as 0, a valid completion
   for 0-1 models. *)
let member_is_one t solution m =
  check_owner t m;
  m.var >= 0 && solution.(m.var) > 0.5

(* AMPL .mod-style summary rendering for documentation and debugging. *)
let pp_summary ppf t =
  Fmt.pf ppf "model with %d families, %d constraints@."
    (List.length t.families) (Lp.Problem.num_rows t.problem);
  List.iter
    (fun fam ->
      Fmt.pf ppf "  var %s {%d tuples} binary;@." fam.fam_name
        (Array.length fam.listed))
    (List.rev t.families)
