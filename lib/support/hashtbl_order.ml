(* The order in which a polymorphic [Hashtbl] visits its keys, worked out
   from the keys' hashes alone.

   Some row orders of the register allocator's ILP were once the
   iteration orders of [Hashtbl]s, and the pinned LPs keep them.  A table
   made by [Hashtbl.create] starts with [initial] buckets (16 for any
   size hint up to 16) and doubles them whenever it holds more than
   twice as many keys as buckets; a key sits in bucket
   [Hashtbl.hash key land (buckets - 1)]; a bucket lists its keys newest
   first, and a resize keeps each bucket's order.  [Hashtbl.iter] visits
   the buckets in ascending order, and [Hashtbl.fold], which conses as it
   visits, builds the reverse.

   [iter ~initial hashes] is the positions of [n] distinct keys, added
   to such a table in the order [0 .. n-1] with the given hashes, in the
   order [Hashtbl.iter] visits them. *)
let iter ~initial hashes =
  let n = Array.length hashes in
  let buckets = ref initial in
  while n > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let bucket = Array.map (fun h -> h land (!buckets - 1)) hashes in
  (* a counting sort: [next.(b)] is where bucket b's next key goes *)
  let next = Array.make !buckets 0 in
  Array.iter (fun b -> next.(b) <- next.(b) + 1) bucket;
  let acc = ref 0 in
  for b = 0 to !buckets - 1 do
    let size = next.(b) in
    next.(b) <- !acc;
    acc := !acc + size
  done;
  let order = Array.make n 0 in
  for i = n - 1 downto 0 do
    let b = bucket.(i) in
    order.(next.(b)) <- i;
    next.(b) <- next.(b) + 1
  done;
  order
