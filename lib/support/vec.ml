(* Growable arrays (OCaml 5.1 predates stdlib Dynarray). *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make n x; len = n }

let length t = t.len

let unsafe_get t i = Array.unsafe_get t.data i

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- x

let ensure_capacity t n =
  if Array.length t.data < n then begin
    let cap = max 8 (max n (2 * Array.length t.data)) in
    let data = Array.make cap (Obj.magic 0) in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- Obj.magic 0;
  x

let top t =
  if t.len = 0 then invalid_arg "Vec.top";
  t.data.(t.len - 1)

let clear t =
  for i = 0 to t.len - 1 do
    t.data.(i) <- Obj.magic 0
  done;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (Array.unsafe_get t.data i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

let to_array t = Array.sub t.data 0 t.len

let map f t =
  { data = Array.init t.len (fun i -> f t.data.(i)); len = t.len }

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.len
