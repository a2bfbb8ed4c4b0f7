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
       name, sense, rhs and terms, by index, floats in hex.  Equal
       fingerprints mean the same LP bit for bit, order included.

     - [solution_to_json]/[solution_of_json] and
       [ws_to_json]/[ws_of_json] persist solutions and warm-start data
       keyed by variable name, so a value saved by one compile maps onto
       the instance of the next even when an edit has added or removed
       variables. *)

open Support
module P = Lp.Problem

let names (p : P.t) : string array = Array.init (P.num_vars p) (P.var_name p)

let index_of_names (names : string array) : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create (Array.length names) in
  Array.iteri (fun j name -> Hashtbl.replace tbl name j) names;
  tbl

(* Floats keyed by their bits: -0. and 0. print differently. *)
module Float_tbl = Hashtbl.Make (struct
  type t = float

  let equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  let hash = Hashtbl.hash
end)

(* The digest of the text

     v<j>|<name>|<lo>|<hi>|<cost>|<integer>        one line per variable
     r<i>|<name>|<sense>|<rhs>|<v>*<coef>|...       one line per row

   with floats in "%h".  The text runs to megabytes on the larger
   workloads, so each distinct float is printed once per call, each
   index once, and the buffer is sized for the whole text up front. *)
let fingerprint (p : P.t) : Cache.Key.t =
  let st = P.stats p in
  let n = st.P.n_vars in
  let index = Array.init (max n st.P.n_rows) string_of_int in
  let fnums = Float_tbl.create 64 in
  let hex f =
    match Float_tbl.find_opt fnums f with
    | Some s -> s
    | None ->
        let s = Printf.sprintf "%h" f in
        Float_tbl.replace fnums f s;
        s
  in
  let name_bytes = ref 0 in
  for j = 0 to n - 1 do
    name_bytes := !name_bytes + String.length (P.var_name p j)
  done;
  let b =
    Buffer.create
      (!name_bytes + (40 * n) + (48 * st.P.n_rows) + (16 * st.P.n_nonzeros))
  in
  let field s =
    Buffer.add_char b '|';
    Buffer.add_string b s
  in
  for j = 0 to n - 1 do
    Buffer.add_char b 'v';
    Buffer.add_string b index.(j);
    field (P.var_name p j);
    field (hex (P.var_lo p j));
    field (hex (P.var_hi p j));
    field (hex (P.var_obj p j));
    field (string_of_bool (P.var_integer p j));
    Buffer.add_char b '\n'
  done;
  let i = ref 0 in
  P.iter_rows
    (fun r ->
      Buffer.add_char b 'r';
      Buffer.add_string b index.(!i);
      field r.P.row_name;
      field (match r.P.sense with P.Le -> "<=" | P.Ge -> ">=" | P.Eq -> "=");
      field (hex r.P.rhs);
      List.iter
        (fun (v, c) ->
          field index.(v);
          Buffer.add_char b '*';
          Buffer.add_string b (hex c))
        r.P.terms;
      Buffer.add_char b '\n';
      incr i)
    p;
  Cache.Key.text (Buffer.contents b)

(* ---------------- solution / warm-start serialization ---------------- *)

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

(* Warm-start data tolerates partial mapping by design (the model has
   changed; that is why it is a warm start and not a replay): unknown
   names are skipped, known ones become hints on this instance's
   indices. *)
let ws_to_json ~(names : string array) (ws : Lp.Mip.warm_start) : Json.t =
  let name_of j =
    if j >= 0 && j < Array.length names then Some names.(j) else None
  in
  Json.Obj
    [
      ( "values",
        Json.Obj
          (List.filter_map
             (fun (j, v) ->
               Option.map (fun nm -> (nm, Json.Num v)) (name_of j))
             ws.Lp.Mip.ws_values) );
      ( "pc",
        Json.Obj
          (List.filter_map
             (fun (j, (sd, cd, su, cu)) ->
               Option.map
                 (fun nm ->
                   ( nm,
                     Json.Arr
                       [
                         Json.Num sd;
                         Json.Num (float_of_int cd);
                         Json.Num su;
                         Json.Num (float_of_int cu);
                       ] ))
                 (name_of j))
             ws.Lp.Mip.ws_pseudocosts) );
    ]

let ws_of_json ~(index : (string, int) Hashtbl.t) (doc : Json.t) :
    Lp.Mip.warm_start =
  let values =
    match Json.member "values" doc with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match (Hashtbl.find_opt index name, Json.to_float v) with
            | Some j, Some f -> Some (j, f)
            | _ -> None)
          fields
    | _ -> []
  in
  let pc =
    match Json.member "pc" doc with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match (Hashtbl.find_opt index name, v) with
            | Some j, Json.Arr [ a; b; c; d ] -> (
                match
                  ( Json.to_float a,
                    Json.to_float b,
                    Json.to_float c,
                    Json.to_float d )
                with
                | Some sd, Some cd, Some su, Some cu ->
                    Some (j, (sd, int_of_float cd, su, int_of_float cu))
                | _ -> None)
            | _ -> None)
          fields
    | _ -> []
  in
  { Lp.Mip.ws_values = values; ws_pseudocosts = pc }
