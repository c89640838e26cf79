(* Interprocedural call-contract checking.

   Every [Call] statement and every function reference inside an
   expression is checked against its callee candidates (a name can have
   several through generic interfaces):

   - arity: when no candidate accepts the number of actuals passed, the
     call cannot match any contract — [Arity_mismatch], attached to the
     callee's symbol with the callee's def site as provenance;
   - per-argument type/rank: flagged only when the actual's inferred type
     conflicts with the corresponding formal in *every* matching-arity
     candidate (a generic resolving to any compatible specific is fine);
     elemental callees accept any actual rank against a scalar formal;
   - intent at the call site: when every matching candidate writes a
     formal — declared intent(out)/intent(inout), or a no-intent formal
     whose body summary ({!Scope.formal_summary}) records a write — the
     actual must be something the callee may legally store into.  Passing
     a literal or compound expression, or a designator rooted in the
     caller's own intent(in) formal or a named constant, is
     [Intent_at_call_site].

   The [intent_guard] fault family flips a callee formal from intent(in)
   to intent(inout) and inserts a write to it; call sites passing
   protected actuals then trip the intent check, tying lint findings to
   campaign ground truth.

   As everywhere in the analysis layer, unknown suppresses: calls to
   procedures with no visible candidate (externals) are not checked. *)

open Rca_fortran

(* Special-cased in the metagraph builder: not real contract sites. *)
let builtin_call = function "outfld" | "random_number" -> true | _ -> false

let intent_of (c : Visibility.callable) formal =
  List.find_opt (fun (d : Ast.decl) -> d.Ast.d_name = formal) c.Visibility.c_sub.Ast.s_decls
  |> Option.map (fun d -> d.Ast.d_intent)
  |> Option.join

(* Does this candidate's contract let it write [formal]?  Declared intent
   is authoritative; a no-intent formal falls back to the body summary. *)
let writes_formal (ss : Scope.sub_scope) (c : Visibility.callable) formal =
  match intent_of c formal with
  | Some Ast.Out | Some Ast.Inout -> true
  | Some Ast.In -> false
  | None -> (
      match Scope.formal_summary ss.Scope.ss_sums c formal with
      | Some { Scope.fs_writes; _ } -> fs_writes
      | None -> true)

let formal_ty res (c : Visibility.callable) formal =
  match
    Resolve.lookup_local res ~module_:c.Visibility.c_module ~sub:c.Visibility.c_sub.Ast.s_name
      formal
  with
  | Some s -> s.Resolve.sym_ty
  | None -> None

(* The caller-side variable an actual designator stores through, if the
   designator is rooted in a plain variable. *)
let actual_base_var ss (d : Ast.designator) =
  let base = Ast.designator_base d in
  if Scope.is_metagraph_variable ss base then Scope.find_var ss base else None

(* A designator that could be written by the callee: a variable, an
   element/section of one, or a member chain.  A name that is really a
   function or intrinsic reference is not. *)
let assignable ss (d : Ast.designator) =
  match d with
  | Ast.Dname n | Ast.Dindex (Ast.Dname n, _) ->
      Scope.is_metagraph_variable ss n
      || ((not (Scope.callables ss n <> [])) && not (Visibility.is_intrinsic n))
  | Ast.Dmember _ | Ast.Dindex _ -> true

type site_ctx = {
  ss : Scope.sub_scope;
  res : Resolve.t;
  add : Diagnostics.diag -> unit;
}

let mk ctx kind line ?callee var message =
  let dmodule = ctx.ss.Scope.ss_module and dsub = ctx.ss.Scope.ss_sub.Ast.s_name in
  let sym, def_file, def_line =
    match (var, callee) with
    | Some v, _ -> Diagnostics.var_provenance ctx.res v
    | None, Some (c : Visibility.callable) -> (
        match
          Resolve.sub_symbol ctx.res ~module_:c.Visibility.c_module c.Visibility.c_sub.Ast.s_name
        with
        | Some s -> (s.Resolve.sym_id, s.Resolve.sym_file, s.Resolve.sym_line)
        | None -> Diagnostics.sub_provenance ctx.res ~module_:dmodule ~sub:dsub)
    | None, None -> Diagnostics.sub_provenance ctx.res ~module_:dmodule ~sub:dsub
  in
  {
    Diagnostics.kind;
    severity = Diagnostics.Error;
    dmodule;
    dsub;
    line;
    var = (match var with Some v -> v.Scope.v_name | None -> "");
    sym;
    def_file;
    def_line;
    message;
  }

(* Check one call/function-reference site against its candidates. *)
let check_site ctx ~line name (args : Ast.expr list) =
  let ss = ctx.ss in
  let cands = Scope.callables ss name in
  if cands = [] then ()
  else begin
    let nargs = List.length args in
    let matching =
      List.filter
        (fun (c : Visibility.callable) -> List.length c.Visibility.c_sub.Ast.s_args = nargs)
        cands
    in
    if matching = [] then begin
      let arities =
        List.sort_uniq compare
          (List.map
             (fun (c : Visibility.callable) -> List.length c.Visibility.c_sub.Ast.s_args)
             cands)
      in
      ctx.add
        (mk ctx Diagnostics.Arity_mismatch line ~callee:(List.hd cands) None
           (Printf.sprintf "'%s' called with %d argument%s but takes %s" name nargs
              (if nargs = 1 then "" else "s")
              (String.concat " or " (List.map string_of_int arities))))
    end
    else
      List.iteri
        (fun i actual ->
          (* [matching] was filtered on arity = nargs, so position [i]
             exists in every candidate — but a candidate that still
             lacks it (mangled AST) is skipped, not a crash *)
          let formal_of (c : Visibility.callable) = List.nth_opt c.Visibility.c_sub.Ast.s_args i in
          (* type/rank: every matching candidate must reject before we flag *)
          let aty = Typecheck.expr_ty ss ~line actual in
          (match aty with
          | None -> ()
          | Some at ->
              let verdicts =
                List.map
                  (fun (c : Visibility.callable) ->
                    match Option.bind (formal_of c) (formal_ty ctx.res c) with
                    | None -> `Unknown
                    | Some ft ->
                        if not (Typecheck.compatible ft at) then `Bad ft
                        else if
                          at.Resolve.rank <> ft.Resolve.rank
                          && not (c.Visibility.c_sub.Ast.s_elemental && ft.Resolve.rank = 0)
                          && at.Resolve.rank <> 0
                          && ft.Resolve.rank <> 0
                        then `Bad ft
                        else `Ok)
                  matching
              in
              if
                List.for_all (function `Bad _ -> true | _ -> false) verdicts
              then
                let ft = match List.hd verdicts with `Bad ft -> ft | _ -> at in
                ctx.add
                  (mk ctx Diagnostics.Type_mismatch line ~callee:(List.hd matching)
                     (Typecheck.first_var ss actual)
                     (Printf.sprintf
                        "argument %d of '%s' is %s but the formal '%s' is %s" (i + 1)
                        name (Resolve.ty_str at)
                        (Option.value ~default:(Printf.sprintf "#%d" (i + 1))
                           (formal_of (List.hd matching)))
                        (Resolve.ty_str ft))));
          (* intent: every matching candidate must write the formal *)
          let all_write =
            List.for_all
              (fun c ->
                match formal_of c with Some f -> writes_formal ss c f | None -> false)
              matching
          in
          match if all_write then formal_of (List.hd matching) else None with
          | None -> ()
          | Some fname ->
            let c0 = List.hd matching in
            let reject why var =
              ctx.add
                (mk ctx Diagnostics.Intent_at_call_site line ~callee:c0 var
                   (Printf.sprintf "argument %d of '%s' (%s '%s') %s" (i + 1) name
                      (match intent_of c0 fname with
                      | Some Ast.Out -> "intent(out)"
                      | Some Ast.Inout -> "intent(inout)"
                      | _ -> "written formal")
                      fname why))
            in
            match actual with
            | Ast.Edesig d when assignable ss d -> (
                match actual_base_var ss d with
                | Some ({ Scope.v_kind = Scope.Formal (Some Ast.In); _ } as v) ->
                    reject
                      (Printf.sprintf "is the caller's intent(in) argument '%s'"
                         v.Scope.v_name)
                      (Some v)
                | Some ({ Scope.v_kind = Scope.Local { param = true; _ }; _ } as v) ->
                    reject
                      (Printf.sprintf "is the named constant '%s'" v.Scope.v_name)
                      (Some v)
                | Some ({ Scope.v_kind = Scope.Module_var _; v_sym; _ } as v)
                  when v_sym <> Resolve.no_symbol
                       && (match (Resolve.symbol ctx.res v_sym).Resolve.sym_kind with
                          | Resolve.Smodule_var { param = true; _ } -> true
                          | _ -> false) ->
                    reject
                      (Printf.sprintf "is the named constant '%s'" v.Scope.v_name)
                      (Some v)
                | _ -> ())
            | Ast.Edesig _ -> ()
            | _ -> reject "is not a variable" (Typecheck.first_var ss actual))
        args
  end

(* Function references nested inside expressions are contract sites too. *)
let rec walk_expr ctx ~line (e : Ast.expr) =
  match e with
  | Ast.Enum _ | Ast.Eint _ | Ast.Elogical _ | Ast.Estring _ -> ()
  | Ast.Eun (_, e) -> walk_expr ctx ~line e
  | Ast.Ebin (_, a, b) ->
      walk_expr ctx ~line a;
      walk_expr ctx ~line b
  | Ast.Erange (a, b) ->
      Option.iter (walk_expr ctx ~line) a;
      Option.iter (walk_expr ctx ~line) b
  | Ast.Edesig d -> walk_desig ctx ~line d

and walk_desig ctx ~line (d : Ast.designator) =
  match d with
  | Ast.Dname _ -> ()
  | Ast.Dmember (base, _) -> walk_desig ctx ~line base
  | Ast.Dindex (Ast.Dname n, args) ->
      if
        (not (Scope.is_metagraph_variable ctx.ss n))
        && (not (Visibility.is_intrinsic n))
        && Scope.callables ctx.ss n <> []
      then check_site ctx ~line n args;
      List.iter (walk_expr ctx ~line) args
  | Ast.Dindex (base, args) ->
      walk_desig ctx ~line base;
      List.iter (walk_expr ctx ~line) args

let of_sub (ss : Scope.sub_scope) : Diagnostics.diag list =
  let out = ref [] in
  let ctx =
    { ss; res = Scope.resolution ss.Scope.ss_ps; add = (fun d -> out := d :: !out) }
  in
  Ast.iter_stmts
    (fun st ->
      let line = st.Ast.line in
      match st.Ast.node with
      | Ast.Assign (d, rhs) ->
          walk_desig ctx ~line d;
          walk_expr ctx ~line rhs
      | Ast.Call (name, args) ->
          if not (builtin_call name) then check_site ctx ~line name args;
          List.iter (walk_expr ctx ~line) args
      | Ast.If (branches, _) -> List.iter (fun (c, _) -> walk_expr ctx ~line c) branches
      | Ast.Do { lo; hi; step; _ } ->
          walk_expr ctx ~line lo;
          walk_expr ctx ~line hi;
          Option.iter (walk_expr ctx ~line) step
      | Ast.Do_while (c, _) -> walk_expr ctx ~line c
      | Ast.Select (sel, cases, _) ->
          walk_expr ctx ~line sel;
          List.iter (fun (vs, _) -> List.iter (walk_expr ctx ~line) vs) cases
      | Ast.Print args -> List.iter (walk_expr ctx ~line) args
      | Ast.Unparsed _ | Ast.Return | Ast.Exit_loop | Ast.Cycle | Ast.Stop -> ())
    ss.Scope.ss_sub.Ast.s_body;
  List.rev !out
