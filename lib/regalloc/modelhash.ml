(* Naming and fingerprinting of ILP instances, for the
   incremental-compilation cache.

   [Driver.front_end] numbers every compile's identifiers from a reset
   stamp counter, so a source and its options build the same LP, with the
   same variable names ("Before[12,x_345,A]") in the same order, whatever
   the process compiled before.  The LP's own names and order are
   therefore canonical, and this module uses them as they are:

     - [names] lists the variable names by index, and [index_of_names]
       maps them back.

     - [fingerprint] is the in-order digest of the whole instance: every
       variable's name, bounds, cost and integrality and every row's
       name, sense, rhs and terms, by index, read in place from the
       problem's flat arrays into a self-delimiting binary encoding
       (integers in LEB128, floats by their bits, names length-prefixed;
       see [fingerprint]).  Equal fingerprints mean the same LP bit for
       bit, names and order included.

     - [solution_to_json]/[solution_of_json] persist a solution keyed
       by variable name, and [hints_of_solution] reads a stored one back
       as warm-start hints, so a value saved by one compile maps onto the
       instance of the next even when an edit has added or removed
       variables. *)

open Support
module P = Lp.Problem

let names (p : P.t) : string array = Array.init (P.num_vars p) (P.var_name p)

let index_of_names (names : string array) : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create (Array.length names) in
  Array.iteri (fun j name -> Hashtbl.replace tbl name j) names;
  tbl

(* The digest of a binary encoding of the instance, read in place from
   its flat arrays:

     n_vars, n_rows
     per variable:  name, lo, hi, cost, integer
     per row:       name, sense, rhs, n_terms, then (v, coef) per term

   Integers are unsigned LEB128 (7 bits a byte, low first, high bit set
   on all but the last byte).  A float is one tag byte for the values
   the models are made of, 0., 1., -1. and infinity (by their bits, so
   -0. is not 0.), and otherwise the tag 4 and its 64 IEEE bits.  A name
   is its length, then its bytes; integrality and sense are one byte
   each.  Every field is self-delimiting, so the bytes decode to exactly
   one instance: equal fingerprints mean the same LP bit for bit, names
   and order included. *)
let bits_one = Int64.bits_of_float 1.
let bits_minus_one = Int64.bits_of_float (-1.)
let bits_infinity = Int64.bits_of_float infinity

(* Writers: each puts one field at [pos] and returns the position after
   it. *)
let[@inline] put_byte b pos x =
  Bytes.unsafe_set b pos (Char.unsafe_chr x);
  pos + 1

let rec put_int b pos x =
  if x < 0x80 then put_byte b pos x
  else put_int b (put_byte b pos (0x80 lor (x land 0x7f))) (x lsr 7)

let[@inline] put_float b pos x =
  let bits = Int64.bits_of_float x in
  if Int64.equal bits 0L then put_byte b pos 0
  else if Int64.equal bits bits_one then put_byte b pos 1
  else if Int64.equal bits bits_minus_one then put_byte b pos 2
  else if Int64.equal bits bits_infinity then put_byte b pos 3
  else begin
    Bytes.set_int64_le b (pos + 1) bits;
    put_byte b pos 4 + 8
  end

let put_name b pos s =
  let pos = put_int b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* The encoding buffer, kept per domain between calls: a fingerprint
   runs on every model the daemon builds, and a fresh megabyte each time
   would be major-heap work. *)
let scratch = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let fingerprint (p : P.t) : Cache.Key.t =
  let n = P.num_vars p and m = P.num_rows p in
  (* an upper bound: 5 bytes per integer, 9 per float *)
  let size = ref (10 + (38 * n) + (24 * m) + (14 * P.num_nonzeros p)) in
  for j = 0 to n - 1 do
    size := !size + String.length (P.var_name p j)
  done;
  for i = 0 to m - 1 do
    size := !size + String.length (P.row_name p i)
  done;
  let buf = Domain.DLS.get scratch in
  if Bytes.length !buf < !size then
    buf := Bytes.create (max !size (2 * Bytes.length !buf));
  let b = !buf in
  let pos = put_int b (put_int b 0 n) m in
  let pos = ref pos in
  for j = 0 to n - 1 do
    let q = put_name b !pos (P.var_name p j) in
    let q = put_float b q (P.var_lo p j) in
    let q = put_float b q (P.var_hi p j) in
    let q = put_float b q (P.var_obj p j) in
    pos := put_byte b q (Bool.to_int (P.var_integer p j))
  done;
  let term_var = p.P.term_var and term_coef = p.P.term_coef in
  for i = 0 to m - 1 do
    let q = put_name b !pos (P.row_name p i) in
    let q =
      put_byte b q (match P.row_sense p i with P.Le -> 0 | P.Ge -> 1 | P.Eq -> 2)
    in
    let q = put_float b q (P.row_rhs p i) in
    let first = P.row_begin p i and last = P.row_end p i in
    let q = ref (put_int b q (last - first)) in
    for k = first to last - 1 do
      q := put_float b (put_int b !q term_var.(k)) (Float.Array.get term_coef k)
    done;
    pos := !q
  done;
  Digest.to_hex (Digest.subbytes b 0 !pos)

(* ---------------- solution serialization and hints ---------------- *)

(* A solution is stored sparsely: variable name -> value, nonzeros
   only.  Reconstruction fills unmentioned variables with 0. *)
let solution_to_json ~(names : string array) (x : float array) : Json.t =
  let fields = ref [] in
  for j = Array.length x - 1 downto 0 do
    if Float.abs x.(j) > 1e-9 then
      fields := (names.(j), Json.Num x.(j)) :: !fields
  done;
  Json.Obj !fields

let solution_of_json ~(index : (string, int) Hashtbl.t) ~(n : int)
    (doc : Json.t) : float array option =
  match doc with
  | Json.Obj fields ->
      let x = Array.make n 0. in
      let ok = ref true in
      List.iter
        (fun (name, v) ->
          match (Hashtbl.find_opt index name, Json.to_float v) with
          | Some j, Some f -> x.(j) <- f
          | _ ->
              (* a stored name absent from this instance means the model
                 is not actually identical: refuse rather than replay *)
              ok := false)
        fields;
      if !ok then Some x else None
  | _ -> None

(* Warm-start hints from a stored solution: its integer variables with
   a nonzero value, rounded, on this instance's indices.  Unlike a
   replay, this tolerates partial mapping by design (the model has
   changed; that is why it is a warm start and not a replay): names
   this instance lacks are skipped. *)
let hints_of_solution ~(index : (string, int) Hashtbl.t) (p : P.t)
    (doc : Json.t) : (int * float) list =
  match doc with
  | Json.Obj fields ->
      List.filter_map
        (fun (name, v) ->
          match (Hashtbl.find_opt index name, Json.to_float v) with
          | Some j, Some f when P.var_integer p j && Float.abs f > 1e-6 ->
              Some (j, Float.round f)
          | _ -> None)
        fields
  | _ -> []
