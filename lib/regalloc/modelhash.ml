(* Canonical naming and structural fingerprinting of ILP instances, for
   the incremental-compilation cache.

   Two compiles of the *same* source in one process build the same model
   up to renaming: [Ident] stamps come from a global counter, so the
   variable names ("Before[12,x_345,A]") embed process-lifetime stamps,
   and because the AMPL [Dataset] orders tuples by string compare of
   those names, the *index order* of variables and rows drifts with the
   stamps too.  Cache artifacts therefore cannot be keyed by raw names
   or indices.

   This module restores a canonical view:

     - [canonical_names] rank-normalizes the stamps: every `_<digits>`
       run that ends an ident atom inside a variable name is replaced by
       `_s<rank>`, where ranks are assigned by ascending stamp value
       across the whole problem.  Equal models (up to stamp renaming)
       get equal canonical names for corresponding variables.

     - [fingerprint] hashes the model *structurally* and
       order-insensitively ([Cache.Key.fold_*]): one digest per variable
       (canonical name, bounds, objective coefficient, integrality) and
       one per row (sense, rhs, terms sorted by canonical name), summed.
       Equal models hash equal no matter the instantiation order.

     - [solution_to_json]/[solution_of_json] and
       [ws_to_json]/[ws_of_json] persist solutions and warm-start data
       keyed by canonical name, so a value saved by one compile can be
       mapped onto the (differently indexed) instance of the next. *)

open Support
module P = Lp.Problem

(* A stamp run is `_<digits>` (underscore + digits immediately followed
   by an atom delimiter: ',', ']', or end of string).  [iter_stamps name
   f] calls [f start stop stamp] for each run, where [start] is the
   underscore's offset and [stop] the offset just past the digits. *)
let iter_stamps name f =
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if name.[!i] = '_' then begin
      (* measure the digit run after the underscore *)
      let j = ref (!i + 1) and v = ref 0 in
      while !j < n && name.[!j] >= '0' && name.[!j] <= '9' do
        v := (!v * 10) + (Char.code name.[!j] - Char.code '0');
        incr j
      done;
      let delimited = !j = n || name.[!j] = ',' || name.[!j] = ']' in
      if !j > !i + 1 && delimited then begin
        f !i !j !v;
        i := !j
      end
      else incr i
    end
    else incr i
  done

(* Pass 1 ranks every stamp value in the problem; pass 2 replaces each
   run with `_s<rank>`. *)
let canonical_names (p : P.t) : string array =
  let n = P.num_vars p in
  let seen = Hashtbl.create 256 in
  for j = 0 to n - 1 do
    iter_stamps (P.var_name p j) (fun _ _ s -> Hashtbl.replace seen s "")
  done;
  let sorted =
    Hashtbl.fold (fun s _ acc -> s :: acc) seen [] |> List.sort Int.compare
  in
  List.iteri
    (fun i s -> Hashtbl.replace seen s ("_s" ^ string_of_int i))
    sorted;
  let buf = Buffer.create 64 in
  Array.init n (fun j ->
      let name = P.var_name p j in
      Buffer.clear buf;
      let last = ref 0 in
      iter_stamps name (fun start stop s ->
          Buffer.add_substring buf name !last (start - !last);
          Buffer.add_string buf (Hashtbl.find seen s);
          last := stop);
      if !last = 0 then name
      else begin
        Buffer.add_substring buf name !last (String.length name - !last);
        Buffer.contents buf
      end)

let index_of_canonical (names : string array) : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create (Array.length names) in
  Array.iteri (fun j name -> Hashtbl.replace tbl name j) names;
  tbl

(* Floats keyed by their bits: -0. and 0. print differently. *)
module Float_tbl = Hashtbl.Make (struct
  type t = float

  let equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  let hash = Hashtbl.hash
end)

(* Order-insensitive structural hash of the whole instance.  Each item
   string is exactly what it always was (artifact keys depend on it):
   floats print as "%.17g", memoized per call, and a row's terms are
   sorted by canonical name, through each variable's rank in that
   order. *)
let fingerprint ?names (p : P.t) : Cache.Key.t =
  let names =
    match names with Some names -> names | None -> canonical_names p
  in
  let n = P.num_vars p in
  let fnums = Float_tbl.create 64 in
  let add_fnum buf f =
    Buffer.add_string buf
      (match Float_tbl.find_opt fnums f with
      | Some s -> s
      | None ->
          let s = Printf.sprintf "%.17g" f in
          Float_tbl.replace fnums f s;
          s)
  in
  (* equal names share a rank, so the stable sort below orders terms
     exactly as a stable sort by name would *)
  let rank = Array.make n 0 in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) order;
  Array.iteri
    (fun k j ->
      rank.(j) <-
        (if k > 0 && String.equal names.(order.(k - 1)) names.(j) then
           rank.(order.(k - 1))
         else k))
    order;
  let acc = Cache.Key.fold_create () in
  let buf = Buffer.create 128 in
  for j = 0 to n - 1 do
    Buffer.clear buf;
    Buffer.add_string buf "v|";
    Buffer.add_string buf names.(j);
    Buffer.add_char buf '|';
    add_fnum buf (P.var_lo p j);
    Buffer.add_char buf '|';
    add_fnum buf (P.var_hi p j);
    Buffer.add_char buf '|';
    add_fnum buf (P.var_obj p j);
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_bool (P.var_integer p j));
    Cache.Key.fold_add acc (Buffer.contents buf)
  done;
  P.iter_rows
    (fun r ->
      Buffer.clear buf;
      Buffer.add_string buf "r|";
      Buffer.add_string buf
        (match r.P.sense with P.Le -> "<=" | P.Ge -> ">=" | P.Eq -> "=");
      Buffer.add_char buf '|';
      add_fnum buf r.P.rhs;
      List.iter
        (fun (v, c) ->
          Buffer.add_char buf '|';
          Buffer.add_string buf names.(v);
          Buffer.add_char buf '*';
          add_fnum buf c)
        (List.stable_sort
           (fun (a, _) (b, _) -> Int.compare rank.(a) rank.(b))
           r.P.terms);
      Cache.Key.fold_add acc (Buffer.contents buf))
    p;
  Cache.Key.fold_digest acc

(* ---------------- solution / warm-start serialization ---------------- *)

(* A solution is stored sparsely: canonical name -> value, nonzeros
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
