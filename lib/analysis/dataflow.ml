(* Worklist bitvector dataflow over one subprogram's CFG.

   Reaching definitions run forward over definition sites; every variable
   additionally owns one entry pseudo-definition representing its value at
   subprogram entry (caller-supplied, module state, initializer — or
   nothing, for locals without initializer and intent(out) formals).  A
   use reached only by an *uninitialized* pseudo-def is a definite
   use-before-def; one reached by the pseudo-def plus real defs is a
   maybe.

   Liveness runs backward over variables.  The live-out set at the exit
   block holds every escaping variable (module vars, out/inout/no-intent
   formals, function result, members, implicits), so a final write to a
   purely local variable is dead while a final write to anything observable
   is not.  Weak defs (array element / member writes) neither kill in RD
   nor stop liveness: the old value flows through them. *)

type rd_class = Definite | Maybe

type t = {
  cfg : Cfg.t;
  scope : Scope.sub_scope;
  facts : Defuse.fact array array;
  n_vars : int;
  n_defs : int;  (* pseudo defs [0, n_vars) then real defs *)
  real_defs : Defuse.def_site array;  (* real def k has id n_vars + k *)
  rd_in : Bytes.t array;  (* per block, def-indexed bitsets *)
  live_out : Bytes.t array;  (* per block, var-indexed bitsets *)
}

(* ---- bitsets ----------------------------------------------------------------- *)

let bs_create n = Bytes.make ((n + 7) / 8) '\000'

let bs_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bs_set b i =
  let j = i lsr 3 in
  Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lor (1 lsl (i land 7))))

let bs_clear b i =
  let j = i lsr 3 in
  Bytes.set b j (Char.chr (Char.code (Bytes.get b j) land lnot (1 lsl (i land 7)) land 0xff))

(* dst <- dst ∪ src; returns whether dst changed *)
let bs_union_into dst src =
  let changed = ref false in
  for j = 0 to Bytes.length dst - 1 do
    let d = Char.code (Bytes.get dst j) and s = Char.code (Bytes.get src j) in
    let u = d lor s in
    if u <> d then begin
      changed := true;
      Bytes.set dst j (Char.chr u)
    end
  done;
  !changed

let bs_copy src = Bytes.copy src

let bs_equal = Bytes.equal

(* ---- solver ------------------------------------------------------------------ *)

let solve (scope : Scope.sub_scope) (cfg : Cfg.t) (facts : Defuse.fact array array) : t =
  let n_vars = Scope.n_vars scope in
  (* enumerate real def sites in block/instruction order *)
  let real_rev = ref [] and n_real = ref 0 in
  Array.iter
    (Array.iter (fun (f : Defuse.fact) ->
         List.iter
           (fun d ->
             real_rev := d :: !real_rev;
             incr n_real)
           f.Defuse.defs))
    facts;
  let real_defs = Array.of_list (List.rev !real_rev) in
  let n_defs = n_vars + !n_real in
  (* defs_of_var.(v) = every def id (pseudo + real) writing v *)
  let defs_of_var = Array.make n_vars [] in
  for v = 0 to n_vars - 1 do
    defs_of_var.(v) <- [ v ]
  done;
  Array.iteri
    (fun k (d : Defuse.def_site) ->
      let v = d.Defuse.d_var.Scope.v_id in
      defs_of_var.(v) <- (n_vars + k) :: defs_of_var.(v))
    real_defs;
  let nb = Array.length cfg.Cfg.blocks in
  (* precompute first real-def id of each block to walk transfer functions *)
  let block_first_def = Array.make nb 0 in
  let id = ref 0 in
  Array.iteri
    (fun b instrs ->
      block_first_def.(b) <- n_vars + !id;
      Array.iter
        (fun (f : Defuse.fact) -> id := !id + List.length f.Defuse.defs)
        instrs)
    facts;
  (* forward transfer of one block applied in place *)
  let rd_transfer b set =
    let did = ref block_first_def.(b) in
    Array.iter
      (fun (f : Defuse.fact) ->
        List.iter
          (fun (d : Defuse.def_site) ->
            if d.Defuse.d_strong then
              List.iter (fun k -> bs_clear set k) defs_of_var.(d.Defuse.d_var.Scope.v_id);
            bs_set set !did;
            incr did)
          f.Defuse.defs)
      facts.(b)
  in
  let rd_in = Array.init nb (fun _ -> bs_create n_defs) in
  let rd_out = Array.init nb (fun _ -> bs_create n_defs) in
  (* entry: every pseudo def reaches *)
  for v = 0 to n_vars - 1 do
    bs_set rd_in.(cfg.Cfg.entry) v
  done;
  let in_work = Array.make nb false in
  let work = Queue.create () in
  let enqueue b =
    if not in_work.(b) then begin
      in_work.(b) <- true;
      Queue.add b work
    end
  in
  for b = 0 to nb - 1 do
    enqueue b
  done;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    in_work.(b) <- false;
    let out = bs_copy rd_in.(b) in
    rd_transfer b out;
    if not (bs_equal out rd_out.(b)) then begin
      rd_out.(b) <- out;
      List.iter
        (fun s -> if bs_union_into rd_in.(s) out then enqueue s)
        cfg.Cfg.succ.(b)
    end
  done;
  (* ---- liveness (backward, var-indexed) ---- *)
  let live_in = Array.init nb (fun _ -> bs_create n_vars) in
  let live_out = Array.init nb (fun _ -> bs_create n_vars) in
  let live_transfer b set =
    (* walk the block backward: defs kill (strong only), then uses gen *)
    let instrs = facts.(b) in
    for i = Array.length instrs - 1 downto 0 do
      let f = instrs.(i) in
      List.iter
        (fun (d : Defuse.def_site) ->
          if d.Defuse.d_strong then bs_clear set d.Defuse.d_var.Scope.v_id)
        f.Defuse.defs;
      List.iter (fun (u : Defuse.use_site) -> bs_set set u.Defuse.u_var.Scope.v_id) f.Defuse.uses
    done
  in
  List.iter
    (fun (v : Scope.var) -> if Scope.escapes v then bs_set live_out.(cfg.Cfg.exit_) v.Scope.v_id)
    (Scope.vars scope);
  for b = 0 to nb - 1 do
    enqueue b
  done;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    in_work.(b) <- false;
    let inb = bs_copy live_out.(b) in
    live_transfer b inb;
    if not (bs_equal inb live_in.(b)) then begin
      live_in.(b) <- inb;
      List.iter
        (fun p -> if bs_union_into live_out.(p) inb then enqueue p)
        cfg.Cfg.pred.(b)
    end
  done;
  { cfg; scope; facts; n_vars; n_defs; real_defs; rd_in; live_out }

(* ---- per-point queries ------------------------------------------------------- *)

(* Visit every instruction with the RD set holding *before* it (uses read
   this set) and the first real-def id of the instruction. *)
let iter_rd_points t f =
  let did = ref 0 in
  Array.iteri
    (fun b instrs ->
      let set = bs_copy t.rd_in.(b) in
      Array.iteri
        (fun i (fact : Defuse.fact) ->
          f ~block:b ~index:i ~rd_before:set ~first_def_id:(t.n_vars + !did) fact;
          List.iter
            (fun (d : Defuse.def_site) ->
              if d.Defuse.d_strong then begin
                (* kill every def of the variable *)
                bs_clear set d.Defuse.d_var.Scope.v_id;
                Array.iteri
                  (fun k (rd : Defuse.def_site) ->
                    if rd.Defuse.d_var.Scope.v_id = d.Defuse.d_var.Scope.v_id then
                      bs_clear set (t.n_vars + k))
                  t.real_defs
              end;
              bs_set set (t.n_vars + !did);
              incr did)
            fact.Defuse.defs)
        instrs)
    t.facts

(* Visit every instruction with the liveness set holding *after* it. *)
let iter_live_points t f =
  Array.iteri
    (fun b instrs ->
      (* live-after of instruction i = transfer of instructions i+1.. from
         live_out.(b); walk backward accumulating *)
      let n = Array.length instrs in
      let set = bs_copy t.live_out.(b) in
      let after = Array.make n (Bytes.empty) in
      for i = n - 1 downto 0 do
        after.(i) <- bs_copy set;
        let fact = instrs.(i) in
        List.iter
          (fun (d : Defuse.def_site) ->
            if d.Defuse.d_strong then bs_clear set d.Defuse.d_var.Scope.v_id)
          fact.Defuse.defs;
        List.iter (fun (u : Defuse.use_site) -> bs_set set u.Defuse.u_var.Scope.v_id)
          fact.Defuse.uses
      done;
      Array.iteri (fun i fact -> f ~block:b ~index:i ~live_after:after.(i) fact) instrs)
    t.facts

(* ---- derived results --------------------------------------------------------- *)

type uninit_use = { uu_use : Defuse.use_site; uu_class : rd_class }

(* Reportable uses of uninitialized-at-entry variables whose entry
   pseudo-def survives to the use. *)
let uninit_uses t : uninit_use list =
  let out = ref [] in
  iter_rd_points t (fun ~block ~index:_ ~rd_before ~first_def_id:_ fact ->
      if t.cfg.Cfg.reachable.(block) then
        List.iter
          (fun (u : Defuse.use_site) ->
            let v = u.Defuse.u_var in
            if
              u.Defuse.u_reportable
              && (not (Scope.initialized_at_entry v))
              && bs_get rd_before v.Scope.v_id
            then begin
              let any_real = ref false in
              Array.iteri
                (fun k (d : Defuse.def_site) ->
                  if
                    d.Defuse.d_var.Scope.v_id = v.Scope.v_id
                    && bs_get rd_before (t.n_vars + k)
                  then any_real := true)
                t.real_defs;
              out :=
                { uu_use = u; uu_class = (if !any_real then Maybe else Definite) } :: !out
            end)
          fact.Defuse.uses);
  List.rev !out

(* Strong assignment/loop defs of non-escaping variables whose value is
   never read afterwards.  Havoc and call-site defs are exempt. *)
let dead_defs t : Defuse.def_site list =
  let out = ref [] in
  iter_live_points t (fun ~block ~index:_ ~live_after fact ->
      if t.cfg.Cfg.reachable.(block) then
        List.iter
          (fun (d : Defuse.def_site) ->
            match d.Defuse.d_origin with
            | Defuse.From_assign ->
                if
                  d.Defuse.d_strong
                  && (not (Scope.escapes d.Defuse.d_var))
                  && not (bs_get live_after d.Defuse.d_var.Scope.v_id)
                then out := d :: !out
            | Defuse.From_loop | Defuse.From_call | Defuse.From_havoc -> ())
          fact.Defuse.defs);
  List.rev !out

type du_pair = { du_def : Defuse.def_site; du_use : Defuse.use_site }

(* Def-use chains: every (real def, use) pair where the def reaches the
   use.  Entry pseudo-defs are not included. *)
let du_chains t : du_pair list =
  let out = ref [] in
  iter_rd_points t (fun ~block:_ ~index:_ ~rd_before ~first_def_id:_ fact ->
      List.iter
        (fun (u : Defuse.use_site) ->
          Array.iteri
            (fun k (d : Defuse.def_site) ->
              if
                d.Defuse.d_var.Scope.v_id = u.Defuse.u_var.Scope.v_id
                && bs_get rd_before (t.n_vars + k)
              then out := { du_def = d; du_use = u } :: !out)
            t.real_defs)
        fact.Defuse.uses);
  List.rev !out

(* Variables never defined by any instruction (used by the intent(out)
   diagnostic) and never used (unused-variable diagnostic). *)
let used_vars t =
  let used = bs_create t.n_vars in
  Array.iter
    (Array.iter (fun (f : Defuse.fact) ->
         List.iter (fun (u : Defuse.use_site) -> bs_set used u.Defuse.u_var.Scope.v_id) f.Defuse.uses))
    t.facts;
  used

let defined_vars t =
  let defined = bs_create t.n_vars in
  Array.iter
    (Array.iter (fun (f : Defuse.fact) ->
         List.iter (fun (d : Defuse.def_site) -> bs_set defined d.Defuse.d_var.Scope.v_id) f.Defuse.defs))
    t.facts;
  defined

let var_defined t (v : Scope.var) = bs_get (defined_vars t) v.Scope.v_id

let live_out_names t b =
  List.filter_map
    (fun (v : Scope.var) ->
      if bs_get t.live_out.(b) v.Scope.v_id then Some v.Scope.v_name else None)
    (Scope.vars t.scope)
  |> List.sort compare
