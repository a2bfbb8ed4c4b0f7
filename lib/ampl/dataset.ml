(* AMPL-style data sets: finite sets of tuples of atoms.

   The paper expresses its ILP model as an AMPL model instantiated with
   per-program data (sets like Exists, Copy, DefL4, UseS4 -- see Figure 3).
   This module is the "data" half: ordered, deduplicated tuple sets with
   the constructive operations needed to write the model's quantifiers. *)

type atom = S of string | I of int

let atom_compare a b =
  match (a, b) with
  | S x, S y -> String.compare x y
  | I x, I y -> Int.compare x y
  | S _, I _ -> -1
  | I _, S _ -> 1

let pp_atom ppf = function
  | S s -> Fmt.string ppf s
  | I i -> Fmt.int ppf i

type tuple = atom list

let tuple_compare = List.compare atom_compare

let atom_equal a b =
  match (a, b) with
  | S x, S y -> String.equal x y
  | I x, I y -> Int.equal x y
  | _ -> false

let tuple_equal = List.equal atom_equal

let tuple_hash tup =
  List.fold_left
    (fun h a -> (h * 31) + match a with S s -> Hashtbl.hash s | I i -> i)
    0 tup

let pp_tuple ppf t =
  Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ",") pp_atom) t

module TSet = Set.Make (struct
  type t = tuple

  let compare = tuple_compare
end)

type t = { arity : int; elems : TSet.t }

let arity t = t.arity
let size t = TSet.cardinal t.elems
let is_empty t = TSet.is_empty t.elems

let empty arity = { arity; elems = TSet.empty }

let check_arity t tup =
  if List.length tup <> t.arity then
    invalid_arg
      (Fmt.str "Dataset: tuple %a has arity %d, set expects %d" pp_tuple tup
         (List.length tup) t.arity)

let add t tup =
  check_arity t tup;
  { t with elems = TSet.add tup t.elems }

let of_list arity tuples =
  let t = empty arity in
  List.iter (check_arity t) tuples;
  { t with elems = TSet.of_list tuples }

(* Convenience constructors for atom kinds commonly used. *)
let of_strings ss = of_list 1 (List.map (fun s -> [ S s ]) ss)
let of_ints is = of_list 1 (List.map (fun i -> [ I i ]) is)

let mem t tup = TSet.mem tup t.elems
let iter f t = TSet.iter f t.elems
let fold f t acc = TSet.fold f t.elems acc
let elements t = TSet.elements t.elems
let filter p t = { t with elems = TSet.filter p t.elems }

let union a b =
  if a.arity <> b.arity then invalid_arg "Dataset.union: arity mismatch";
  { a with elems = TSet.union a.elems b.elems }

let diff a b =
  if a.arity <> b.arity then invalid_arg "Dataset.diff: arity mismatch";
  { a with elems = TSet.diff a.elems b.elems }

let inter a b =
  if a.arity <> b.arity then invalid_arg "Dataset.inter: arity mismatch";
  { a with elems = TSet.inter a.elems b.elems }

(* Cartesian product. *)
let product a b =
  let elems =
    TSet.fold
      (fun ta acc ->
        TSet.fold (fun tb acc -> TSet.add (ta @ tb) acc) b.elems acc)
      a.elems TSet.empty
  in
  { arity = a.arity + b.arity; elems }

(* Keep the listed 0-based columns, in the given order. *)
let project cols t =
  let arity' = List.length cols in
  let elems =
    TSet.fold
      (fun tup acc ->
        let arr = Array.of_list tup in
        TSet.add (List.map (fun c -> arr.(c)) cols) acc)
      t.elems TSet.empty
  in
  { arity = arity'; elems }

let map ~arity f t =
  let elems =
    TSet.fold (fun tup acc -> TSet.add (f tup) acc) t.elems TSet.empty
  in
  TSet.iter
    (fun tup ->
      if List.length tup <> arity then
        invalid_arg "Dataset.map: function produced wrong arity")
    elems;
  { arity; elems }

let exists p t = TSet.exists p t.elems

let pp ppf t =
  Fmt.pf ppf "{@[%a@]}" Fmt.(list ~sep:sp pp_tuple) (elements t)

(* AMPL .dat-style rendering, as in the paper's Figure 3. *)
let pp_dat ~name ppf t =
  Fmt.pf ppf "set %s := %a;" name Fmt.(list ~sep:sp pp_tuple) (elements t)
