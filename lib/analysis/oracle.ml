(* Differential oracle: cross-validate the metagraph builder against an
   independently derived set of static def-use pairs.

   For every statement the oracle derives the (source variable -> assigned
   variable) pairs that the metagraph's edge-generation semantics promise
   — atomic arrays, member nodes scoped to their base, per-line localized
   intrinsics, intent-aware call mapping, the relaxed/scraped fallback
   chain for [Unparsed] — but through {!Scope}'s name resolution and its
   own statement walk, not the builder's.  Checking is then exact, not
   heuristic: each pair's endpoints must resolve through
   [Metagraph.find_node] and the edge must exist; conversely, every
   metagraph edge must be produced by some pair (else it is an orphan).
   On a correct builder both directions are empty. *)

open Rca_fortran

type vref = { r_module : string; r_sub : string; r_name : string }

type pair = {
  p_src : vref;
  p_dst : vref;
  (* provenance of the originating statement *)
  p_file : string;
  p_module : string;
  p_sub : string;
  p_line : int;
}

type mismatch = { mis_pair : pair; mis_reason : string }

type orphan = { o_src : string; o_dst : string; o_origins : (string * string * int) list }

type report = {
  rp_pairs : int;  (* pairs derived (with duplicates collapsed) *)
  rp_edges : int;  (* metagraph edges checked for orphanhood *)
  rp_mismatches : mismatch list;  (* static pairs without a metagraph edge *)
  rp_orphans : orphan list;  (* metagraph edges no static pair explains *)
}

let ok report = report.rp_mismatches = [] && report.rp_orphans = []

(* ---- pair derivation ---------------------------------------------------------- *)

type octx = {
  ps : Scope.program_scope;
  res : Resolve.t;
  o_module : string;
  o_file : string;
  o_sub : string;
  mutable line : int;
  mutable pairs_rev : pair list;
}

(* The metagraph's per-subprogram locals — formals, declared names, and
   the function-result name (which for subroutines is the sub's own name,
   a builder quirk) — are exactly {!Resolve}'s subprogram scope, so
   [is_variable] and reference resolution read the symbol table directly:
   a 0-mismatch oracle run certifies the rename semantics-preserving. *)
let lookup ctx name =
  Resolve.lookup_var ctx.res ~module_:ctx.o_module ~sub:ctx.o_sub name

let is_variable ctx name = lookup ctx name <> None

let callables ctx name = Scope.module_callables ctx.ps ~module_:ctx.o_module name

let resolve_var ctx name : vref =
  match lookup ctx name with
  | Some { Resolve.sym_kind = Resolve.Smodule_var { owner; _ }; sym_name; _ } ->
      { r_module = owner; r_sub = ""; r_name = sym_name }
  | Some _ | None -> { r_module = ctx.o_module; r_sub = ctx.o_sub; r_name = name }

let member_ref ctx base field : vref =
  let r_module, r_sub =
    match lookup ctx base with
    | Some { Resolve.sym_kind = Resolve.Smodule_var { owner; _ }; _ } -> (owner, "")
    | Some _ | None -> (ctx.o_module, ctx.o_sub)
  in
  { r_module; r_sub; r_name = base ^ "%" ^ field }

let add_pair ctx src dst =
  ctx.pairs_rev <-
    {
      p_src = src;
      p_dst = dst;
      p_file = ctx.o_file;
      p_module = ctx.o_module;
      p_sub = ctx.o_sub;
      p_line = ctx.line;
    }
    :: ctx.pairs_rev

(* mirror of [Metagraph.expr_sources]: source refs of an expression,
   emitting call-induced pairs as a side effect *)
let rec expr_sources ctx (e : Ast.expr) : vref list =
  match e with
  | Ast.Enum _ | Ast.Eint _ | Ast.Elogical _ | Ast.Estring _ -> []
  | Ast.Eun (_, e) -> expr_sources ctx e
  | Ast.Ebin (_, a, b) -> expr_sources ctx a @ expr_sources ctx b
  | Ast.Erange (a, b) ->
      Option.fold ~none:[] ~some:(expr_sources ctx) a
      @ Option.fold ~none:[] ~some:(expr_sources ctx) b
  | Ast.Edesig d -> desig_sources ctx d

and desig_sources ctx (d : Ast.designator) : vref list =
  match d with
  | Ast.Dname n -> [ resolve_var ctx n ]
  | Ast.Dmember (base, field) -> [ member_ref ctx (Ast.designator_base base) field ]
  | Ast.Dindex (Ast.Dname n, args) ->
      if is_variable ctx n then [ resolve_var ctx n ]
      else if callables ctx n <> [] then function_call_sources ctx n args
      else if Visibility.is_intrinsic n then intrinsic_sources ctx n args
      else [ resolve_var ctx n ]
  | Ast.Dindex (base, _args) -> desig_sources ctx base

and function_call_sources ctx name args : vref list =
  let cands = callables ctx name in
  List.concat_map
    (fun (c : Visibility.callable) ->
      List.iteri
        (fun i formal ->
          match List.nth_opt args i with
          | None -> ()  (* arity mismatch: fewer actuals than formals *)
          | Some actual ->
              let srcs = expr_sources ctx actual in
              let fref =
                {
                  r_module = c.Visibility.c_module;
                  r_sub = c.Visibility.c_sub.Ast.s_name;
                  r_name = formal;
                }
              in
              List.iter (fun s -> add_pair ctx s fref) srcs)
        c.Visibility.c_sub.Ast.s_args;
      match c.Visibility.c_sub.Ast.s_kind with
      | Ast.Function ->
          let rname = Ast.function_result_name c.Visibility.c_sub in
          [
            {
              r_module = c.Visibility.c_module;
              r_sub = c.Visibility.c_sub.Ast.s_name;
              r_name = rname;
            };
          ]
      | Ast.Subroutine -> [])
    cands

and intrinsic_sources ctx name args : vref list =
  let iref =
    {
      r_module = ctx.o_module;
      r_sub = ctx.o_sub;
      r_name = Printf.sprintf "%s_%d" name ctx.line;
    }
  in
  List.iter (fun a -> List.iter (fun s -> add_pair ctx s iref) (expr_sources ctx a)) args;
  [ iref ]

let lhs_ref ctx (d : Ast.designator) : vref =
  match d with
  | Ast.Dname n -> resolve_var ctx n
  | Ast.Dindex (Ast.Dname n, _) -> resolve_var ctx n
  | Ast.Dmember (base, field) -> member_ref ctx (Ast.designator_base base) field
  | Ast.Dindex (Ast.Dmember (base, field), _) ->
      member_ref ctx (Ast.designator_base base) field
  | Ast.Dindex (inner, _) -> (
      match inner with
      | Ast.Dname n -> resolve_var ctx n
      | _ -> member_ref ctx (Ast.designator_base inner) (Ast.designator_canonical inner))

let lhs_assignable ctx (d : Ast.designator) =
  match d with
  | Ast.Dname n | Ast.Dindex (Ast.Dname n, _) -> is_variable ctx n
  | Ast.Dmember _ | Ast.Dindex _ -> true

let intent_of (c : Visibility.callable) formal =
  List.find_opt (fun (dd : Ast.decl) -> dd.Ast.d_name = formal) c.Visibility.c_sub.Ast.s_decls
  |> Option.map (fun dd -> dd.Ast.d_intent)
  |> Option.join

let process_call ctx name args line =
  match name with
  | "outfld" -> (
      match args with
      | [ Ast.Estring _; value ] -> ignore (expr_sources ctx value)
      | _ -> ())
  | "random_number" -> (
      match args with
      | [ Ast.Edesig d ] ->
          let iref =
            {
              r_module = ctx.o_module;
              r_sub = ctx.o_sub;
              r_name = Printf.sprintf "random_number_%d" line;
            }
          in
          add_pair ctx iref (lhs_ref ctx d)
      | _ -> ())
  | _ ->
      List.iter
        (fun (c : Visibility.callable) ->
          List.iteri
            (fun i formal ->
              match List.nth_opt args i with
              | None -> ()  (* arity mismatch: fewer actuals than formals *)
              | Some actual -> (
                  let fref =
                    {
                      r_module = c.Visibility.c_module;
                      r_sub = c.Visibility.c_sub.Ast.s_name;
                      r_name = formal;
                    }
                  in
                  match actual with
                  | Ast.Edesig d when lhs_assignable ctx d -> (
                      let aref = lhs_ref ctx d in
                      match intent_of c formal with
                      | Some Ast.In -> add_pair ctx aref fref
                      | Some Ast.Out -> add_pair ctx fref aref
                      | Some Ast.Inout | None ->
                          add_pair ctx aref fref;
                          add_pair ctx fref aref)
                  | e -> List.iter (fun s -> add_pair ctx s fref) (expr_sources ctx e)))
            c.Visibility.c_sub.Ast.s_args)
        (callables ctx name)

let process_unparsed ctx raw =
  match Relaxed.split_assignment raw with
  | Some r ->
      let lhs =
        if r.Relaxed.lhs_canonical <> r.Relaxed.lhs_base then
          member_ref ctx r.Relaxed.lhs_base r.Relaxed.lhs_canonical
        else resolve_var ctx r.Relaxed.lhs_base
      in
      List.iter
        (fun id -> if is_variable ctx id then add_pair ctx (resolve_var ctx id) lhs)
        r.Relaxed.rhs_identifiers
  | None -> (
      match Relaxed.scrape_identifiers raw with
      | lhs_id :: rest when rest <> [] && is_variable ctx lhs_id ->
          let lhs = resolve_var ctx lhs_id in
          List.iter
            (fun id -> if is_variable ctx id then add_pair ctx (resolve_var ctx id) lhs)
            rest
      | _ -> ())

let rec process_stmt ctx (st : Ast.stmt) =
  ctx.line <- st.Ast.line;
  match st.Ast.node with
  | Ast.Assign (d, rhs) ->
      let lhs = lhs_ref ctx d in
      List.iter (fun s -> add_pair ctx s lhs) (expr_sources ctx rhs)
  | Ast.Call (name, args) -> process_call ctx name args st.Ast.line
  | Ast.If (branches, els) ->
      List.iter (fun (_, body) -> List.iter (process_stmt ctx) body) branches;
      List.iter (process_stmt ctx) els
  | Ast.Do { body; _ } -> List.iter (process_stmt ctx) body
  | Ast.Do_while (_, body) -> List.iter (process_stmt ctx) body
  | Ast.Select (_, cases, default) ->
      List.iter (fun (_, body) -> List.iter (process_stmt ctx) body) cases;
      List.iter (process_stmt ctx) default
  | Ast.Unparsed raw -> process_unparsed ctx raw
  | Ast.Return | Ast.Exit_loop | Ast.Cycle | Ast.Stop | Ast.Print _ -> ()

(* Every static def-use pair of the program, in statement order. *)
let static_pairs (ps : Scope.program_scope) : pair list =
  List.concat_map
    (fun (mu : Ast.module_unit) ->
      List.concat_map
        (fun (s : Ast.subprogram) ->
          let ctx =
            {
              ps;
              res = Scope.resolution ps;
              o_module = mu.Ast.m_name;
              o_file = mu.Ast.m_file;
              o_sub = s.Ast.s_name;
              line = s.Ast.s_line;
              pairs_rev = [];
            }
          in
          List.iter (process_stmt ctx) s.Ast.s_body;
          List.rev ctx.pairs_rev)
        mu.Ast.m_subprograms)
    ps.Scope.prog

(* ---- checking ------------------------------------------------------------------ *)

module MG = Rca_metagraph.Metagraph

let find ref_ mg = MG.find_node mg ~module_:ref_.r_module ~sub:ref_.r_sub ~name:ref_.r_name

let ref_str r =
  Printf.sprintf "%s|%s|%s" r.r_module (if r.r_sub = "" then "<module>" else r.r_sub) r.r_name

let check (ps : Scope.program_scope) (mg : MG.t) : report =
  Rca_obs.Obs.span "analysis.oracle" @@ fun () ->
  let pairs = static_pairs ps in
  let resolved = Hashtbl.create 4096 in
  let mismatches = ref [] in
  let n_pairs = ref 0 in
  let seen_pair = Hashtbl.create 4096 in
  List.iter
    (fun p ->
      let k = (p.p_src, p.p_dst) in
      if not (Hashtbl.mem seen_pair k) then begin
        Hashtbl.replace seen_pair k ();
        incr n_pairs;
        match (find p.p_src mg, find p.p_dst mg) with
        | None, _ ->
            mismatches :=
              { mis_pair = p; mis_reason = "source node missing: " ^ ref_str p.p_src }
              :: !mismatches
        | _, None ->
            mismatches :=
              { mis_pair = p; mis_reason = "target node missing: " ^ ref_str p.p_dst }
              :: !mismatches
        | Some u, Some v ->
            if Rca_graph.Digraph.mem_edge mg.MG.graph u v then
              Hashtbl.replace resolved (u, v) ()
            else
              mismatches :=
                {
                  mis_pair = p;
                  mis_reason =
                    Printf.sprintf "edge missing: %s -> %s" (ref_str p.p_src)
                      (ref_str p.p_dst);
                }
                :: !mismatches
      end)
    pairs;
  let orphans = ref [] in
  Rca_graph.Digraph.iter_edges
    (fun u v ->
      if not (Hashtbl.mem resolved (u, v)) then begin
        let nu = MG.node mg u and nv = MG.node mg v in
        orphans :=
          {
            o_src = nu.MG.unique;
            o_dst = nv.MG.unique;
            o_origins = MG.edge_origins mg u v;
          }
          :: !orphans
      end)
    mg.MG.graph;
  Rca_obs.Obs.incr ~by:!n_pairs "oracle.pairs";
  Rca_obs.Obs.incr ~by:(List.length !mismatches) "oracle.mismatches";
  Rca_obs.Obs.incr ~by:(List.length !orphans) "oracle.orphans";
  {
    rp_pairs = !n_pairs;
    rp_edges = Rca_graph.Digraph.m mg.MG.graph;
    rp_mismatches = List.rev !mismatches;
    rp_orphans = List.rev !orphans;
  }

(* ---- rendering ----------------------------------------------------------------- *)

let mismatch_str m =
  Printf.sprintf "%s:%d [%s/%s] %s" m.mis_pair.p_file m.mis_pair.p_line m.mis_pair.p_module
    (if m.mis_pair.p_sub = "" then "<module>" else m.mis_pair.p_sub)
    m.mis_reason

let orphan_str o =
  let origins =
    String.concat ", "
      (List.map
         (fun (m, s, l) -> Printf.sprintf "%s/%s:%d" m (if s = "" then "<module>" else s) l)
         o.o_origins)
  in
  Printf.sprintf "orphan edge %s -> %s (from %s)" o.o_src o.o_dst origins

let report_lines r =
  List.map mismatch_str r.rp_mismatches @ List.map orphan_str r.rp_orphans

let summary_json r =
  let module J = Rca_obs.Jsonio in
  J.Obj
    [
      ("pairs", J.num r.rp_pairs);
      ("edges", J.num r.rp_edges);
      ("mismatches", J.num (List.length r.rp_mismatches));
      ("orphans", J.num (List.length r.rp_orphans));
    ]
