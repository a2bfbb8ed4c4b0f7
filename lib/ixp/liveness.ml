(* Liveness analysis over virtual-register flowgraphs.

   Produces, per program point, the set of live temporaries; also the
   paper's [Exists] set (live sets extended with immediately-dead
   definitions) and [Copy] relation (temporaries carried unchanged from
   one point to the next, including across control edges). *)

open Support

type t = {
  graph : Ident.t Flowgraph.t;
  (* live-in per point, keyed by point name *)
  live : (string, Ident.Set.t) Hashtbl.t;
  exists : (string, Ident.Set.t) Hashtbl.t;
  block_live_in : (string, Ident.Set.t) Hashtbl.t;
  block_live_out : (string, Ident.Set.t) Hashtbl.t;
}

let set_of_list = Ident.Set.of_list

(* Backward dataflow at block granularity, then a forward sweep inside
   each block to get per-point sets. *)
let compute (g : Ident.t Flowgraph.t) =
  let block_use_def = Hashtbl.create 16 in
  Flowgraph.iter_blocks
    (fun b ->
      (* use/def computed backward through the block *)
      let use = ref (set_of_list (Insn.term_uses b.Flowgraph.term)) in
      let def = ref Ident.Set.empty in
      for k = Array.length b.Flowgraph.insns - 1 downto 0 do
        let i = b.Flowgraph.insns.(k) in
        let dlist = Insn.defs i and ulist = Insn.uses i in
        List.iter
          (fun d ->
            use := Ident.Set.remove d !use;
            def := Ident.Set.add d !def)
          dlist;
        List.iter (fun u -> use := Ident.Set.add u !use) ulist
      done;
      Hashtbl.replace block_use_def b.Flowgraph.label (!use, !def))
    g;
  let live_in = Hashtbl.create 16 in
  let live_out = Hashtbl.create 16 in
  Flowgraph.iter_blocks
    (fun b ->
      Hashtbl.replace live_in b.Flowgraph.label Ident.Set.empty;
      Hashtbl.replace live_out b.Flowgraph.label Ident.Set.empty)
    g;
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse layout order converges faster for mostly-forward graphs *)
    List.iter
      (fun b ->
        let label = b.Flowgraph.label in
        let out =
          List.fold_left
            (fun acc succ -> Ident.Set.union acc (Hashtbl.find live_in succ))
            Ident.Set.empty
            (Insn.term_targets b.Flowgraph.term)
        in
        let use, def = Hashtbl.find block_use_def label in
        let inn = Ident.Set.union use (Ident.Set.diff out def) in
        if not (Ident.Set.equal inn (Hashtbl.find live_in label)) then begin
          changed := true;
          Hashtbl.replace live_in label inn
        end;
        Hashtbl.replace live_out label out)
      (List.rev (Flowgraph.blocks g))
  done;
  (* Per-point live sets: backward within each block from live_out. *)
  let live = Hashtbl.create 64 in
  let exists = Hashtbl.create 64 in
  Flowgraph.iter_blocks
    (fun b ->
      let label = b.Flowgraph.label in
      let n = Array.length b.Flowgraph.insns in
      let cur = ref (Hashtbl.find live_out label) in
      (* exit point: live-out of block plus terminator uses *)
      let at_term =
        Ident.Set.union !cur (set_of_list (Insn.term_uses b.Flowgraph.term))
      in
      let pt pos = Flowgraph.point_name { Flowgraph.block = label; pos } in
      Hashtbl.replace live (pt n) at_term;
      Hashtbl.replace exists (pt n) at_term;
      cur := at_term;
      for k = n - 1 downto 0 do
        let i = b.Flowgraph.insns.(k) in
        let dset = set_of_list (Insn.defs i) in
        let uset = set_of_list (Insn.uses i) in
        (* Exists at the point *after* instruction k (i.e. point k+1)
           additionally contains definitions that are immediately dead
           (paper §5.2). *)
        let after_name = pt (k + 1) in
        Hashtbl.replace exists after_name
          (Ident.Set.union (Hashtbl.find exists after_name) dset);
        let before = Ident.Set.union uset (Ident.Set.diff !cur dset) in
        Hashtbl.replace live (pt k) before;
        Hashtbl.replace exists (pt k) before;
        cur := before
      done)
    g;
  {
    graph = g;
    live;
    exists;
    block_live_in = live_in;
    block_live_out = live_out;
  }

let live_at t (p : Flowgraph.point) =
  Option.value ~default:Ident.Set.empty
    (Hashtbl.find_opt t.live (Flowgraph.point_name p))

let exists_at t (p : Flowgraph.point) =
  Option.value ~default:Ident.Set.empty
    (Hashtbl.find_opt t.exists (Flowgraph.point_name p))

let block_live_in t label = Hashtbl.find t.block_live_in label
let block_live_out t label = Hashtbl.find t.block_live_out label

(* The Copy relation: (p1, p2, v) when v is carried unchanged from p1 to
   p2.  Within a block this is "v live (or existing) at both endpoints of
   an instruction that neither defines v"; across control edges it is
   "v live at the successor's entry". *)
let copies t =
  let result = ref [] in
  List.iter
    (fun edge ->
      match edge with
      | Flowgraph.Through_insn (p1, p2) ->
          let b = Flowgraph.block t.graph p1.Flowgraph.block in
          let i = b.Flowgraph.insns.(p1.Flowgraph.pos) in
          let dset = set_of_list (Insn.defs i) in
          let after = exists_at t p2 in
          (* v flows p1 -> p2 if present on both sides and not redefined *)
          Ident.Set.iter
            (fun v ->
              if Ident.Set.mem v after && not (Ident.Set.mem v dset) then
                result := (p1, p2, v) :: !result)
            (exists_at t p1)
      | Flowgraph.Control (p1, p2) ->
          Ident.Set.iter
            (fun v ->
              if Ident.Set.mem v (live_at t p2) then
                result := (p1, p2, v) :: !result)
            (exists_at t p1))
    (Flowgraph.point_edges t.graph);
  List.rev !result

(* All temporaries appearing in the graph. *)
let all_temps g =
  let acc = ref Ident.Set.empty in
  Flowgraph.iter_blocks
    (fun b ->
      Array.iter
        (fun i ->
          List.iter (fun v -> acc := Ident.Set.add v !acc) (Insn.defs i);
          List.iter (fun v -> acc := Ident.Set.add v !acc) (Insn.uses i))
        b.Flowgraph.insns;
      List.iter
        (fun v -> acc := Ident.Set.add v !acc)
        (Insn.term_uses b.Flowgraph.term))
    g;
  !acc

(* Interference in the classic sense: two temporaries are simultaneously
   live at some point.  The SSU pass later *removes* clone-mates from
   this relation (paper §10).

   The ILP states its Both rows in the order of this list, and the
   pinned LPs keep it: the fold order of the [Hashtbl] that once
   collected the pairs, made with 256 buckets and keyed by the pair,
   filled in the order the pairs are first met (points in [exists]'
   iteration order, each point's temporaries ascending).  It is computed
   without the table ([Hashtbl_order]): a pair is met when its bit in a
   matrix over the temporaries is first set, and only then hashed. *)
let interferences t =
  (* temporaries numbered densely in order of appearance; a pair is met
     when its bit in an n x n matrix is first set *)
  let max_stamp =
    Hashtbl.fold
      (fun _ set m ->
        match Ident.Set.max_elt_opt set with
        | Some v -> max m (Ident.stamp v)
        | None -> m)
      t.exists 0
  in
  let id = Array.make (max_stamp + 1) (-1) in
  let n = ref 0 in
  Hashtbl.iter
    (fun _ set ->
      Ident.Set.iter
        (fun v ->
          if id.(Ident.stamp v) < 0 then begin
            id.(Ident.stamp v) <- !n;
            incr n
          end)
        set)
    t.exists;
  let dim = !n in
  let seen = Bytes.make (((dim * dim) + 7) / 8) '\000' in
  let met = ref [] in
  let consider set =
    let l = Ident.Set.elements set in
    let rec go = function
      | [] -> ()
      | v :: rest ->
          let row = id.(Ident.stamp v) * dim in
          List.iter
            (fun w ->
              (* v precedes w: the set lists its elements ascending *)
              let bit = row + id.(Ident.stamp w) in
              let byte = Char.code (Bytes.unsafe_get seen (bit lsr 3)) in
              let mask = 1 lsl (bit land 7) in
              if byte land mask = 0 then begin
                Bytes.unsafe_set seen (bit lsr 3) (Char.unsafe_chr (byte lor mask));
                met := (v, w) :: !met
              end)
            rest;
          go rest
    in
    go l
  in
  Hashtbl.iter (fun _ set -> consider set) t.exists;
  let pairs = Array.of_list (List.rev !met) in
  Array.fold_left
    (fun acc i -> pairs.(i) :: acc)
    []
    (Hashtbl_order.iter ~initial:256 (Array.map Hashtbl.hash pairs))
