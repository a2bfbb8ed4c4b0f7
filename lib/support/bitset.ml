(* Fixed-universe bitsets for dataflow analysis.

   The universe size is fixed at creation; elements are small ints
   (typically dense indices of temporaries or program points). *)

type t = { bits : Bytes.t; width : int }

let bpw = 8 (* bits per byte; Bytes-based keeps it simple and portable *)

let create width =
  { bits = Bytes.make ((width + bpw - 1) / bpw) '\000'; width }

let width t = t.width

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.get t.bits (i / bpw)) land (1 lsl (i mod bpw)) <> 0

let add t i =
  check t i;
  let byte = i / bpw in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (i mod bpw))))

let remove t i =
  check t i;
  let byte = i / bpw in
  Bytes.set t.bits byte
    (Char.chr
       (Char.code (Bytes.get t.bits byte) land lnot (1 lsl (i mod bpw)) land 0xff))

let same_universe a b =
  if a.width <> b.width then invalid_arg "Bitset: universe mismatch"

(* dst <- dst U src; returns true if dst changed. *)
let union_into ~dst ~src =
  same_universe dst src;
  let changed = ref false in
  for i = 0 to Bytes.length dst.bits - 1 do
    let d = Char.code (Bytes.get dst.bits i) in
    let s = Char.code (Bytes.get src.bits i) in
    let u = d lor s in
    if u <> d then begin
      changed := true;
      Bytes.set dst.bits i (Char.chr u)
    end
  done;
  !changed

let equal a b =
  same_universe a b;
  Bytes.equal a.bits b.bits

let iter f t =
  for i = 0 to t.width - 1 do
    if mem t i then f i
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let cardinal t = fold (fun _ n -> n + 1) t 0
