(* Static execution-frequency estimation (paper §7).

   Branch probabilities come from Ball-Larus/Wu-Larus style heuristics
   whose predictions are combined with Dempster-Shafer evidence
   combination, as in Wu & Larus (MICRO-27); block frequencies are then
   obtained from the flow equations.  Unlike the original algorithm,
   which propagates over reducible loop nests, we solve the equations by
   damped power iteration, which converges on irreducible flowgraphs too
   (the paper notes its own variation "can cope with irreducible
   flowgraphs"). *)

type t = {
  block_freq : (string, float) Hashtbl.t;
  edge_prob : (string * string, float) Hashtbl.t;
}

(* Dempster-Shafer combination of two probability estimates for the same
   (binary) event: m1 (+) m2 = p1 p2 / (p1 p2 + (1-p1)(1-p2)). *)
let dempster_shafer p1 p2 =
  let num = p1 *. p2 in
  let den = num +. ((1. -. p1) *. (1. -. p2)) in
  if den <= 0. then 0.5 else num /. den

(* ------------------------------------------------------------------ *)
(* Branch-prediction heuristics                                        *)
(* ------------------------------------------------------------------ *)

(* Loop detection: back edges found via DFS; a block is a loop header if
   some DFS back edge targets it.  Irreducible graphs simply yield a
   conservative set of "retreating" edges, which is all we need. *)
let back_edges g =
  let state = Hashtbl.create 16 in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let edges = ref [] in
  let rec dfs label =
    Hashtbl.replace state label 1;
    let b = Flowgraph.block g label in
    List.iter
      (fun succ ->
        match Hashtbl.find_opt state succ with
        | Some 1 -> edges := (label, succ) :: !edges
        | Some _ -> ()
        | None -> dfs succ)
      (Insn.term_targets b.Flowgraph.term);
    Hashtbl.replace state label 2
  in
  (match Flowgraph.blocks g with
  | [] -> ()
  | entry :: _ -> dfs entry.Flowgraph.label);
  (* unreachable blocks: scan them too so that every block has a state *)
  List.iter
    (fun b ->
      if not (Hashtbl.mem state b.Flowgraph.label) then dfs b.Flowgraph.label)
    (Flowgraph.blocks g);
  !edges

(* Does the subgraph starting at [label] reach only Halt quickly?  Used
   for the "branch to an exit block is unlikely" heuristic. *)
let leads_to_halt g label =
  let b = Flowgraph.block g label in
  match b.Flowgraph.term with
  | Insn.Halt -> true
  | Insn.Jump l -> (
      match (Flowgraph.block g l).Flowgraph.term with
      | Insn.Halt -> true
      | _ -> false)
  | Insn.Branch _ -> false

(* Heuristic probabilities from Wu & Larus (taken-probability of the
   [ifso] arm). *)
let loop_branch_prob = 0.88 (* LBH: edge back to a loop header is taken *)
let opcode_eq_prob = 0.16 (* OH: equality comparisons usually fail *)
let guard_return_prob = 0.28 (* RH-like: arm leading to Halt is unlikely *)

let branch_probability g ~headers b ~ifso ~ifnot ~cond =
  (* Start from no evidence (0.5) and combine applicable heuristics. *)
  let p = ref 0.5 in
  let apply prob_taken = p := dempster_shafer !p prob_taken in
  (* Loop heuristic: if one arm targets a loop header reached by a back
     edge from this block, predict taken. *)
  let is_back_to_header target =
    List.exists (fun (src, dst) -> src = b && dst = target) headers
  in
  if is_back_to_header ifso then apply loop_branch_prob
  else if is_back_to_header ifnot then apply (1. -. loop_branch_prob);
  (* Opcode heuristic: == branches are usually not taken. *)
  (match cond with
  | Insn.Eq -> apply opcode_eq_prob
  | Insn.Ne -> apply (1. -. opcode_eq_prob)
  | _ -> ());
  (* Exit heuristic: an arm that falls into Halt (error/slow path exits,
     ubiquitous in fast-path network code) is unlikely. *)
  (match (leads_to_halt g ifso, leads_to_halt g ifnot) with
  | true, false -> apply guard_return_prob
  | false, true -> apply (1. -. guard_return_prob)
  | _ -> ());
  !p

(* ------------------------------------------------------------------ *)
(* Flow equations                                                      *)
(* ------------------------------------------------------------------ *)

let damping = 0.9 (* keeps irreducible/cyclic graphs convergent *)
let iterations = 200

let compute (g : _ Flowgraph.t) =
  let headers = back_edges g in
  let edge_prob = Hashtbl.create 32 in
  Flowgraph.iter_blocks
    (fun b ->
      match b.Flowgraph.term with
      | Insn.Halt -> ()
      | Insn.Jump l -> Hashtbl.replace edge_prob (b.Flowgraph.label, l) 1.0
      | Insn.Branch { cond; ifso; ifnot; _ } ->
          let p =
            branch_probability g ~headers b.Flowgraph.label ~ifso ~ifnot ~cond
          in
          if ifso = ifnot then
            Hashtbl.replace edge_prob (b.Flowgraph.label, ifso) 1.0
          else begin
            Hashtbl.replace edge_prob (b.Flowgraph.label, ifso) p;
            Hashtbl.replace edge_prob (b.Flowgraph.label, ifnot) (1. -. p)
          end)
    g;
  (* Damped power iteration on  freq(b) = entry(b) + damping * sum_pred
     freq(p) * prob(p->b).  The damping bounds loop gains away from 1 so
     the iteration converges even for irreducible cycles; relative
     frequencies (what the objective needs) are preserved. *)
  let freq = Hashtbl.create 16 in
  Flowgraph.iter_blocks (fun b -> Hashtbl.replace freq b.Flowgraph.label 0.) g;
  let entry_label = (Flowgraph.entry g).Flowgraph.label in
  let preds = Flowgraph.predecessors g in
  for _ = 1 to iterations do
    Flowgraph.iter_blocks
      (fun b ->
        let label = b.Flowgraph.label in
        let inflow =
          List.fold_left
            (fun acc pred ->
              let p =
                Option.value ~default:0.
                  (Hashtbl.find_opt edge_prob (pred, label))
              in
              acc +. (damping *. p *. Hashtbl.find freq pred))
            0.
            (Option.value ~default:[] (Hashtbl.find_opt preds label))
        in
        let base = if label = entry_label then 1.0 else 0.0 in
        Hashtbl.replace freq label (base +. inflow))
      g
  done;
  { block_freq = freq; edge_prob }

let block_frequency t label =
  Option.value ~default:0. (Hashtbl.find_opt t.block_freq label)

(* Frequency of a program point = frequency of its block. *)
let point_frequency t (p : Flowgraph.point) = block_frequency t p.Flowgraph.block

let pp ppf t =
  let entries =
    Hashtbl.fold (fun label f acc -> (label, f) :: acc) t.block_freq []
    |> List.sort compare
  in
  List.iter (fun (l, f) -> Fmt.pf ppf "%s: %.4f@." l f) entries
