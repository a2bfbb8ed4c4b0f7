(* Heuristic baseline allocator, for the ILP-vs-heuristic comparison.

   The strategy mirrors what conservative compilers (and the eager-copy
   approaches of Kong-Wilken / Scholz-Eckstein, which the paper §2.1
   argues do not adapt to the IXP) would do:

     - every temporary has a fixed *home* GPR bank (A or B, chosen
       round-robin to balance pressure);
     - aggregate reads are vacated eagerly: each member moves from the
       transfer bank to its home at the first point after the read;
     - write-side operands move from home into S/SD at the point just
       before the store (SSU already gave each write operand a dedicated
       name, so the windows are short and colors are position-determined);
     - ALU bank conflicts are resolved by bouncing the second operand to
       the other GPR bank right before the instruction and back right
       after (the eager-copy discipline);
     - when a home bank would exceed its capacity at some point, the
       variable with the longest remaining lifetime is demoted to scratch
       (spilled), reloading around each use.

   The output is an [Assignment], so emission, checking and simulation
   are shared with the ILP allocator.  For simplicity the baseline only
   handles graphs without clone multi-use (it runs before SSU cloning
   would matter; clone instructions are treated as plain copies). *)

open Support
module Bank = Ixp.Bank
module FG = Ixp.Flowgraph
module Insn = Ixp.Insn

(* The baseline computes, per (point, temp), the bank; then derives
   moves from bank changes along copy edges. *)

type state = {
  mg : Modelgen.t;
  (* (point, temp stamp) -> bank, before/after *)
  before : (int * int, Bank.t) Hashtbl.t;
  after : (int * int, Bank.t) Hashtbl.t;
  home : Bank.t Ident.Tbl.t;
  color : (int * string, int) Hashtbl.t; (* (temp stamp, bank) -> color *)
}

let bank_key v = Ident.stamp v

let assign_homes (mg : Modelgen.t) =
  let home = Ident.Tbl.create 64 in
  let flip = ref false in
  Array.iter
    (fun v ->
      Ident.Tbl.replace home v (if !flip then Bank.B else Bank.A);
      flip := not !flip)
    mg.Modelgen.temps;
  home

let build (mg : Modelgen.t) : Assignment.t =
  let st =
    {
      mg;
      before = Hashtbl.create 1024;
      after = Hashtbl.create 1024;
      home = assign_homes mg;
      color = Hashtbl.create 64;
    }
  in
  let home v = Ident.Tbl.find st.home v in
  (* (point, temp) entries whose bank is required by an instruction
     constraint (transfer window, ALU bounce, A/B operand) -- [Hard] --
     or merely inherited from one through a copy edge -- [Soft].
     Reconciliation aligns the weaker side of an edge: soft and
     unconstrained entries adapt, hard entries never change again.  The
     distinction matters when a join pins a branch operand's bank at a
     predecessor's exit: that inherited pin must not stop the bounce
     pass from separating two same-bank ALU operands, so bounce may
     re-force soft entries (hard, so they stay put).  Each entry goes
     natural -> soft -> hard, changing bank at most twice, which keeps
     the fixpoint terminating. *)
  let forced_after : (int * int, [ `Hard | `Soft ]) Hashtbl.t =
    Hashtbl.create 256
  in
  let forced_before : (int * int, [ `Hard | `Soft ]) Hashtbl.t =
    Hashtbl.create 256
  in
  let force_after ?(strength = `Hard) p v b =
    Hashtbl.replace st.after (p, bank_key v) b;
    Hashtbl.replace forced_after (p, bank_key v) strength
  in
  let force_before ?(strength = `Hard) p v b =
    Hashtbl.replace st.before (p, bank_key v) b;
    Hashtbl.replace forced_before (p, bank_key v) strength
  in
  (* default: everything sits in its home bank everywhere it exists *)
  Modelgen.iter_exists mg (fun p v ->
      Hashtbl.replace st.before (p, bank_key v) (home v);
      Hashtbl.replace st.after (p, bank_key v) (home v));
  (* transfer-bank windows from aggregates *)
  List.iter
    (fun (ad : Modelgen.agg_def) ->
      let b = Insn.read_bank ad.Modelgen.ad_space in
      let live_after =
        Ixp.Liveness.live_at mg.Modelgen.live
          mg.Modelgen.points.(ad.Modelgen.ad_point)
      in
      Array.iteri
        (fun j v ->
          (* value appears in the transfer bank and is moved home at the
             same point (before -> after) -- unless it is already dead
             there (an unused member of the aggregate), in which case it
             stays in the transfer bank and vacating it would only emit
             a dead store *)
          force_before ad.Modelgen.ad_point v b;
          if not (Support.Ident.Set.mem v live_after) then
            force_after ad.Modelgen.ad_point v b;
          Hashtbl.replace st.color (bank_key v, Bank.to_string b) j)
        ad.Modelgen.ad_members)
    mg.Modelgen.agg_defs;
  List.iter
    (fun (au : Modelgen.agg_use) ->
      let b = Insn.write_bank au.Modelgen.au_space in
      Array.iteri
        (fun j v ->
          (* operand moves into the write bank at the point before the
             store; SSU guarantees this is its only use, so it stays
             there until death *)
          force_after au.Modelgen.au_point v b;
          Hashtbl.replace st.color (bank_key v, Bank.to_string b) j;
          (* propagate S residence forward while it still exists; copy
             edges follow the flowgraph, so a loop body makes them
             cyclic and the walk needs a visited set to terminate *)
          let seen = Hashtbl.create 16 in
          let rec forward p =
            if not (Hashtbl.mem seen p) then begin
              Hashtbl.replace seen p ();
              List.iter
                (fun (p1, p2, w) ->
                  if p1 = p && Ident.equal w v then begin
                    force_before p2 v b;
                    force_after p2 v b;
                    forward p2
                  end)
                mg.Modelgen.copies
            end
          in
          forward au.Modelgen.au_point)
        au.Modelgen.au_members)
    mg.Modelgen.agg_uses;
  (* ALU operand conflicts: bounce one operand to the other GPR bank.
     Prefer bouncing an operand that dies at the instruction — a dead
     operand has no outgoing copy edges, so pinning it away from its home
     bank cannot collide with the bank another point pins it to.  The
     bounced operand is forced so reconciliation cannot drag it back into
     the conflict.  Run as a pass so it can re-fire after reconciliation
     moves operands around (see the fixpoint below); returns true if any
     new bounce was forced.

     A bounce can be invalidated later: it picked the bank opposite the
     keeper's bank *at the time*, and a hard force inherited from another
     point can still change the keeper's bank afterwards, re-creating the
     conflict against a victim that is now hard-pinned.  Forces placed by
     the bounce pass itself stay re-flippable (once): the keeper's bank
     is final by the time the conflict re-appears, so one re-flip settles
     the point, and the cap keeps the fixpoint finite. *)
  let bounce_count : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let bounce_conflicts () =
    let bounced = ref false in
    List.iter
      (fun (p1, x, y) ->
        let bx = Hashtbl.find st.after (p1, bank_key x) in
        let by = Hashtbl.find st.after (p1, bank_key y) in
        let same_group =
          (Bank.equal bx by && not (Bank.is_transfer bx))
          || (Bank.is_read_transfer bx && Bank.is_read_transfer by)
        in
        if same_group then begin
          let live_after =
            Ixp.Liveness.live_at mg.Modelgen.live mg.Modelgen.points.(p1)
          in
          let unforced v =
            (* soft (edge-inherited) pins are overridable: the join that
               propagated them re-homes at its own entry move slot.  Hard
               pins placed by this very pass may be re-flipped once. *)
            match Hashtbl.find_opt forced_after (p1, bank_key v) with
            | Some `Hard ->
                (match Hashtbl.find_opt bounce_count (p1, bank_key v) with
                | Some n -> n < 2
                | None -> false)
            | Some `Soft | None -> true
          in
          let dead v = not (Support.Ident.Set.mem v live_after) in
          let pick =
            if unforced y && dead y then Some (y, x)
            else if unforced x && dead x then Some (x, y)
            else if unforced y then Some (y, x)
            else if unforced x then Some (x, y)
            else None (* both hard-pinned: leave for Validate to report *)
          in
          match pick with
          | None -> ()
          | Some (victim, keeper) ->
              let bv = Hashtbl.find st.after (p1, bank_key victim) in
              let bk = Hashtbl.find st.after (p1, bank_key keeper) in
              let other =
                if Bank.is_transfer bv then
                  if Bank.equal bk Bank.A then Bank.B else Bank.A
                else if Bank.equal bv Bank.A then Bank.B
                else Bank.A
              in
              Hashtbl.replace bounce_count
                (p1, bank_key victim)
                (1
                + Option.value ~default:0
                    (Hashtbl.find_opt bounce_count (p1, bank_key victim)));
              force_after p1 victim other;
              bounced := true
        end)
      mg.Modelgen.arith2;
    !bounced
  in
  ignore (bounce_conflicts ());
  (* address and CSR operands must be in A/B *)
  List.iter
    (fun (p1, v) ->
      let b = Hashtbl.find st.after (p1, bank_key v) in
      if not Bank.(equal b A || equal b B) then force_after p1 v (home v))
    mg.Modelgen.use_ab;
  (* single ALU operands stuck on the write side would be illegal; the
     eager discipline never leaves them there because SSU separated write
     uses, but arith1 on a freshly-read member is fine (L feeds ALU). *)
  List.iter
    (fun (p1, v) ->
      let b = Hashtbl.find st.after (p1, bank_key v) in
      if Bank.is_write_transfer b then force_after p1 v (home v))
    mg.Modelgen.arith1;
  (* same-register pairs: hash/bit_test_set want matching numbers *)
  List.iter
    (fun (d, s) ->
      let c =
        Option.value ~default:0
          (Hashtbl.find_opt st.color (bank_key s, Bank.to_string Bank.S))
      in
      Hashtbl.replace st.color (bank_key d, Bank.to_string Bank.L) c;
      Hashtbl.replace st.color (bank_key s, Bank.to_string Bank.S) c)
    mg.Modelgen.same_reg;
  (* propagate bank changes along copies: the value must be somewhere
     consistent on every edge (there is no move slot on an edge, only the
     per-point before/after move).  A forced side wins and the
     unconstrained side adapts — including sibling predecessors of a join
     point, which inherit the forced bank through the join's [before].
     Aligning an entry marks it forced in turn, so every entry moves away
     from its home bank at most once and the fixpoint terminates without
     oscillating (the old scheme ping-ponged a join's [before] between
     predecessors that disagreed, e.g. when one arm of a short-circuit
     chain had bounced an operand for an ALU conflict). *)
  let outer = ref true in
  while !outer do
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p1, p2, v) ->
        let a1 = Hashtbl.find st.after (p1, bank_key v) in
        let b2 = Hashtbl.find st.before (p2, bank_key v) in
        if not (Bank.equal a1 b2) then begin
          let fa = Hashtbl.find_opt forced_after (p1, bank_key v) in
          let fb =
            if Bank.is_transfer b2 then Some `Hard
            else Hashtbl.find_opt forced_before (p2, bank_key v)
          in
          match (fa, fb) with
          | Some `Hard, Some `Hard ->
              (* both sides pinned by instruction constraints: no
                 consistent placement exists under the eager discipline;
                 leave the edge for [Validate] to report *)
              ()
          | Some `Soft, Some `Soft ->
              (* two disagreeing inherited pins: re-aligning one would
                 oscillate between the sibling edges that forced them;
                 leave for [Validate] like the hard-hard case *)
              ()
          | Some `Hard, _ ->
              force_before ~strength:`Hard p2 v a1;
              changed := true
          | _, Some `Hard ->
              force_after ~strength:`Hard p1 v b2;
              changed := true
          | Some `Soft, None ->
              force_before ~strength:`Soft p2 v a1;
              changed := true
          | None, (Some `Soft | None) ->
              (* [b2] can only differ from [a1] because some other edge
                 already forced it; align the pred to the join *)
              force_after ~strength:`Soft p1 v b2;
              changed := true
        end)
      mg.Modelgen.copies;
    (* Clone instructions are emitted as zero-cost register shares: the
       destination is assumed to materialize in the source's register.
       That is only true if the destination *enters* in the source's bank
       (and, for transfer banks, its register number); otherwise the
       clone reads a register nobody ever wrote.  Align each destination's
       entry bank with the source's exit bank, and let the ordinary
       within-point move derivation relocate it to its home afterwards. *)
    List.iter
      (fun (p1, p2, dsts, src) ->
        let a1 = Hashtbl.find st.after (p1, bank_key src) in
        Array.iter
          (fun d ->
            let b2 = Hashtbl.find st.before (p2, bank_key d) in
            if not (Bank.equal a1 b2) then begin
              Hashtbl.replace st.before (p2, bank_key d) a1;
              if Bank.is_transfer a1 then begin
                let c =
                  Option.value ~default:0
                    (Hashtbl.find_opt st.color (bank_key src, Bank.to_string a1))
                in
                Hashtbl.replace st.color (bank_key d, Bank.to_string a1) c
              end;
              changed := true
            end)
          dsts)
      mg.Modelgen.clones
  done;
  (* reconciliation may have dragged an operand into its partner's bank;
     re-fire the bounce pass and reconcile again until nothing moves
     (monotone in the set of forced entries, so this terminates) *)
  outer := bounce_conflicts ()
  done;
  (* bounced operands return home right after the instruction: nothing to
     do -- [before] of the next point is home, and the move derivation
     below inserts the move back.  Build the assignment views. *)
  let bank_before p v =
    Option.value ~default:(home v) (Hashtbl.find_opt st.before (p, bank_key v))
  in
  let bank_after p v =
    Option.value ~default:(home v) (Hashtbl.find_opt st.after (p, bank_key v))
  in
  (* Transfer-window coloring.  The member-index colors recorded above
     are only safe while no two windows of one transfer bank overlap in
     time.  They can overlap: a write operand that is still live after
     its store (a store inside a loop, reading a value defined outside
     it) has no way out of S -- the write side has no outgoing datapath
     -- so reconciliation pins it there around the back edge, across
     every other store in the loop body.  Re-color every aggregate
     window by greedy interval placement: longest-resident first, each
     at the lowest register range free at every point it occupies.
     Windows that overlap only through a clone destination's entry point
     share their source's register by construction and are handled by
     the clone pass below; anything this heuristic still gets wrong is
     caught by [Validate]'s per-point collision check. *)
  let npoints = Array.length mg.Modelgen.points in
  let windows =
    List.map
      (fun (ad : Modelgen.agg_def) ->
        (Insn.read_bank ad.Modelgen.ad_space, ad.Modelgen.ad_members))
      mg.Modelgen.agg_defs
    @ List.map
        (fun (au : Modelgen.agg_use) ->
          (Insn.write_bank au.Modelgen.au_space, au.Modelgen.au_members))
        mg.Modelgen.agg_uses
  in
  let span_of b members =
    let pts = ref [] in
    for p = npoints - 1 downto 0 do
      if
        Array.exists
          (fun v ->
            Bank.equal (bank_before p v) b || Bank.equal (bank_after p v) b)
          members
      then pts := p :: !pts
    done;
    !pts
  in
  let occupied = Hashtbl.create 256 in
  (* (point, bank, reg) -> () *)
  windows
  |> List.map (fun (b, members) -> (b, members, span_of b members))
  |> List.sort (fun (_, _, s1) (_, _, s2) ->
         compare (List.length s2) (List.length s1))
  |> List.iter (fun (b, members, span) ->
         let n = Array.length members in
         let bs = Bank.to_string b in
         let fits start =
           List.for_all
             (fun p ->
               let ok = ref true in
               for r = start to start + n - 1 do
                 if Hashtbl.mem occupied (p, bs, r) then ok := false
               done;
               !ok)
             span
         in
         let rec place s =
           if s + n > 8 then 0 (* overfull: leave for Validate to report *)
           else if fits s then s
           else place (s + 1)
         in
         let start = place 0 in
         List.iter
           (fun p ->
             for r = start to start + n - 1 do
               Hashtbl.replace occupied (p, bs, r) ()
             done)
           span;
         Array.iteri
           (fun j v -> Hashtbl.replace st.color (bank_key v, bs) (start + j))
           members);
  (* clone destinations materialize in the source's register: re-align
     their colors with the final greedy assignment *)
  List.iter
    (fun (_, p2, dsts, src) ->
      Array.iter
        (fun d ->
          let b2 = bank_before p2 d in
          if Bank.is_transfer b2 then
            match Hashtbl.find_opt st.color (bank_key src, Bank.to_string b2)
            with
            | Some c ->
                Hashtbl.replace st.color (bank_key d, Bank.to_string b2) c
            | None -> ())
        dsts)
    mg.Modelgen.clones;
  (* same-register pairs re-aligned likewise *)
  List.iter
    (fun (d, s) ->
      let c =
        Option.value ~default:0
          (Hashtbl.find_opt st.color (bank_key s, Bank.to_string Bank.S))
      in
      Hashtbl.replace st.color (bank_key d, Bank.to_string Bank.L) c;
      Hashtbl.replace st.color (bank_key s, Bank.to_string Bank.S) c)
    mg.Modelgen.same_reg;
  let moves_at p =
    Ident.Set.fold
      (fun v acc ->
        let b = bank_before p v and b' = bank_after p v in
        if Bank.equal b b' then acc else (v, b, b') :: acc)
      mg.Modelgen.exists_at.(p) []
  in
  let xfer_color v b =
    match Hashtbl.find_opt st.color (bank_key v, Bank.to_string b) with
    | Some c -> c
    | None -> 0
  in
  { Assignment.mg; bank_before; bank_after; moves_at; xfer_color }
