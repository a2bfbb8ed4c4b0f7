(* Interned identifiers.

   Every name that flows through the compiler (source variables, CPS
   temporaries, function labels, layout names, ...) is an interned symbol:
   a unique integer stamp paired with a human-readable base name.  Interning
   gives O(1) comparison and hashing, and fresh stamps give cheap
   alpha-renaming (SSA, SSU cloning, inlining). *)

type t = { stamp : int; base : string }

let counter = ref 0

let fresh base =
  incr counter;
  { stamp = !counter; base }

(* [derive t suffix] makes a fresh ident whose printed base records its
   provenance, e.g. SSU clones of [x] print as [x.c1], [x.c2], ... *)
let derive t suffix = fresh (t.base ^ suffix)

let clone t = derive t "'"
let base t = t.base
let stamp t = t.stamp
let compare a b = Int.compare a.stamp b.stamp
let equal a b = a.stamp = b.stamp
let hash a = a.stamp

let name t = Printf.sprintf "%s_%d" t.base t.stamp
let pp ppf t = Fmt.pf ppf "%s_%d" t.base t.stamp
let to_string = name

(* Restart the stamp counter.  [Regalloc.Driver.front_end] calls it
   before each compile, so a compile numbers its identifiers as a fresh
   process does.  Identifiers minted before a reset can collide with those
   minted after it, so no two compiles may run on two domains at once:
   the daemon serves one job at a time, and bench and perfbench compile
   only while their daemon is idle or stopped. *)
let reset () = counter := 0

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
