(* Content hashing for the incremental-compilation cache.

   Every pipeline stage's inputs are reduced to a hex digest: the raw
   source text, an options fingerprint, and the digests of upstream
   artifacts are combined into one key, so "has this stage already run
   on these exact inputs" is a single table lookup.  The stdlib [Digest]
   (MD5) is plenty here -- keys guard a build cache, not an adversary --
   and keeps the build free of external hash dependencies.

   Order-insensitive combination ([fold_unordered]) exists for hashing
   bags of components whose enumeration order is not canonical: the ILP
   instantiates variables and rows in an order that can drift with ident
   stamps between otherwise identical compiles, so the model hash sums
   per-item digests instead of hashing the concatenation. *)

type t = string (* 32-char lowercase hex *)

let text (s : string) : t = Digest.to_hex (Digest.string s)

(* Label/part pairs are length-prefixed so component boundaries cannot
   alias ("ab"^"c" vs "a"^"bc"). *)
let combine (parts : string list) : t =
  let buf = Buffer.create 128 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  text (Buffer.contents buf)

(* Accumulator for an order-insensitive digest: each item's digest is
   folded in by 64-bit wrapping addition of its two little-endian 64-bit
   words, so the result is independent of insertion order. *)
type acc = { mutable w0 : int64; mutable w1 : int64; mutable count : int }

let fold_create () = { w0 = 0L; w1 = 0L; count = 0 }

let fold_add acc (item : string) =
  let d = Digest.string item in
  acc.w0 <- Int64.add acc.w0 (String.get_int64_le d 0);
  acc.w1 <- Int64.add acc.w1 (String.get_int64_le d 8);
  acc.count <- acc.count + 1

let fold_digest acc : t =
  combine
    [ Int64.to_string acc.w0; Int64.to_string acc.w1;
      string_of_int acc.count ]

(* Sanitize a string for use inside a cache filename. *)
let slug (s : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '_')
    s
