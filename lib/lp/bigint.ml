(* Arbitrary-precision signed integers.

   Sign-magnitude representation over base-2^30 limbs (least significant
   first).  No external dependency (zarith is not available offline); the
   exact-rational simplex used for cross-checking the float solver is built
   on top of this module.

   Invariants: magnitude has no trailing zero limbs; zero is represented
   with [sign = 0] and an empty magnitude. *)

type t = { sign : int; (* -1, 0, +1 *) mag : int array (* little-endian *) }

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

let zero = { sign = 0; mag = [||] }
let is_zero t = t.sign = 0

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int i =
  if i = 0 then zero
  else begin
    let sign = if i > 0 then 1 else -1 in
    (* min_int negation overflows; go via two limbs straight away. *)
    let rec limbs acc v =
      if v = 0 then List.rev acc else limbs ((v land mask) :: acc) (v lsr base_bits)
    in
    let abs_limbs =
      if i = min_int then
        (* |min_int| = 2^62 on 63-bit ints *)
        limbs [] ((-(i + 1)) ) |> fun ls ->
        (* add 1 back: (|i|-1) + 1 *)
        let a = Array.of_list ls in
        let a = Array.append a [| 0; 0; 0 |] in
        let carry = ref 1 in
        Array.iteri
          (fun j d ->
            let s = d + !carry in
            a.(j) <- s land mask;
            carry := s lsr base_bits)
          (Array.copy a);
        Array.to_list a
      else limbs [] (abs i)
    in
    normalize sign (Array.of_list abs_limbs)
  end

let one = of_int 1
let minus_one = of_int (-1)

(* magnitude comparison *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Int.compare a.sign b.sign
  else if a.sign = 0 then 0
  else a.sign * cmp_mag a.mag b.mag

let equal a b = compare a b = 0

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t
let sign t = t.sign

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  r

(* requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  r

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match cmp_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        (* ai * bj <= (2^30-1)^2 < 2^60; plus r + carry still < 2^62 *)
        let t = (ai * b.mag.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land mask;
        carry := t lsr base_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize (a.sign * b.sign) r
  end

(* Divide magnitude by a single limb; returns (quotient mag, remainder). *)
let divmod_mag_limb a d =
  let l = Array.length a in
  let q = Array.make l 0 in
  let r = ref 0 in
  for i = l - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth algorithm D on normalized magnitudes.  Requires |a| >= |b| and
   [b] with at least 2 limbs (single-limb case handled separately). *)
let divmod_mag a b =
  let lb = Array.length b in
  if lb = 1 then begin
    let q, r = divmod_mag_limb a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    (* Normalize so that the top limb of b is >= base/2. *)
    let shift = ref 0 in
    while (b.(lb - 1) lsl !shift) land mask < base / 2 do
      incr shift
    done;
    let sh = !shift in
    let shl mag =
      if sh = 0 then Array.copy mag
      else begin
        let l = Array.length mag in
        let r = Array.make (l + 1) 0 in
        let carry = ref 0 in
        for i = 0 to l - 1 do
          let v = (mag.(i) lsl sh) lor !carry in
          r.(i) <- v land mask;
          carry := v lsr base_bits
        done;
        r.(l) <- !carry;
        r
      end
    in
    let u = shl a in
    let v =
      let v = shl b in
      (* drop the (zero) extension limb if present *)
      let n = ref (Array.length v) in
      while !n > 0 && v.(!n - 1) = 0 do
        decr n
      done;
      Array.sub v 0 !n
    in
    let n = Array.length v in
    let m = Array.length u - n in
    let u = Array.append u [| 0 |] in
    let q = Array.make (max 1 (m + 1)) 0 in
    let vn1 = v.(n - 1) in
    let vn2 = v.(n - 2) in
    for j = m downto 0 do
      (* Estimate q_hat from top two limbs of current remainder. *)
      let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let q_hat = ref (top / vn1) in
      let r_hat = ref (top mod vn1) in
      (* Knuth step D3: correct the estimate downward at most twice. *)
      let continue_adjust = ref true in
      while !continue_adjust do
        if
          !q_hat >= base
          || !q_hat * vn2 > (!r_hat lsl base_bits) lor u.(j + n - 2)
        then begin
          decr q_hat;
          r_hat := !r_hat + vn1;
          if !r_hat >= base then continue_adjust := false
        end
        else continue_adjust := false
      done;
      (* Multiply and subtract: u[j..j+n] -= q_hat * v *)
      let borrow = ref 0 in
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!q_hat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let s = u.(i + j) - (p land mask) - !borrow in
        if s < 0 then begin
          u.(i + j) <- s + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- s;
          borrow := 0
        end
      done;
      let s = u.(j + n) - !carry - !borrow in
      if s < 0 then begin
        (* q_hat was one too large: add v back. *)
        u.(j + n) <- s + base;
        decr q_hat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let t = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land mask
      end
      else u.(j + n) <- s;
      if j < Array.length q then q.(j) <- !q_hat
    done;
    (* Denormalize remainder. *)
    let r = Array.sub u 0 n in
    let rem =
      if sh = 0 then r
      else begin
        let out = Array.make n 0 in
        let carry = ref 0 in
        for i = n - 1 downto 0 do
          let v = (!carry lsl base_bits) lor r.(i) in
          out.(i) <- v lsr sh;
          carry := v land ((1 lsl sh) - 1)
        done;
        out
      end
    in
    (q, rem)
  end

(* Truncated division (round toward zero), like OCaml's (/) and (mod). *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else if cmp_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q = normalize (a.sign * b.sign) qm in
    let r = normalize a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_pos a b = if is_zero b then a else gcd_pos b (rem a b)

let gcd a b =
  let a = abs a and b = abs b in
  if is_zero a then b else if is_zero b then a else gcd_pos a b

let to_int_opt t =
  (* Fits in a native int iff magnitude < 2^62 and the value is in range. *)
  if t.sign = 0 then Some 0
  else if Array.length t.mag > 3 then None
  else begin
    let v =
      Array.to_list t.mag
      |> List.rev
      |> List.fold_left (fun acc limb -> (acc * base) + limb) 0
    in
    if v < 0 then None (* overflowed 63-bit int *)
    else Some (t.sign * v)
  end

let to_int_exn t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: overflow"

let to_float t =
  let m = ref 0.0 in
  for i = Array.length t.mag - 1 downto 0 do
    m := (!m *. float_of_int base) +. float_of_int t.mag.(i)
  done;
  float_of_int t.sign *. !m

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec go mag =
      if Array.length mag = 0 then ()
      else begin
        let q, r = divmod_mag_limb mag 1_000_000_000 in
        let q = normalize 1 q in
        if is_zero q then Buffer.add_string buf (string_of_int r)
        else begin
          go q.mag;
          Buffer.add_string buf (Printf.sprintf "%09d" r)
        end
      end
    in
    go t.mag;
    (if t.sign < 0 then "-" else "") ^ Buffer.contents buf
  end

let of_string s =
  let s = String.trim s in
  if s = "" then invalid_arg "Bigint.of_string: empty";
  let neg, start = if s.[0] = '-' then (true, 1) else if s.[0] = '+' then (false, 1) else (false, 0) in
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to String.length s - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if neg then { !acc with sign = - !acc.sign } else !acc

let pp ppf t = Fmt.string ppf (to_string t)

let hash t = Hashtbl.hash (t.sign, t.mag)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
