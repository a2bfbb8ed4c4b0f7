(* Content hashing for the incremental-compilation cache.

   Every pipeline stage's inputs are reduced to a hex digest: the raw
   source text, an options fingerprint, and the digests of upstream
   artifacts are combined into one key, so "has this stage already run
   on these exact inputs" is a single table lookup.  The stdlib [Digest]
   (MD5) is plenty here -- keys guard a build cache, not an adversary --
   and keeps the build free of external hash dependencies. *)

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

(* Sanitize a string for use inside a cache filename. *)
let slug (s : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '_')
    s
