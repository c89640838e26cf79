(* Lint diagnostics over one analyzed subprogram, and the stable JSON
   report format the CLI emits.

   Severity policy: [Error] marks findings that are wrong under any
   reading of the Fortran standard (reading a variable no path has
   assigned, writing an intent(in) formal, a call that cannot match its
   callee's contract).  [Warning] marks likely bugs that a conservative
   analysis cannot promote (may-be-uninitialized, dead stores,
   intent(out) formals never set, unreachable code, names falling back to
   implicit typing).  [Info] marks hygiene findings (unused and shadowed
   declarations).  `rca_main lint` exits nonzero only on [Error].

   Every diagnostic carries the {!Resolve} symbol id it is about plus
   that symbol's def-site file:line, so a finding can always be traced
   from the report back to the declaration it concerns. *)

type severity = Error | Warning | Info

type kind =
  | Use_before_def  (* definite: only the uninitialized entry value reaches *)
  | Use_maybe_uninit  (* some path reaches the use without a definition *)
  | Dead_assignment  (* value certainly never read *)
  | Unused_variable  (* declared, never referenced *)
  | Shadowed_variable  (* local declaration hides the module's own variable *)
  | Shadowed_import  (* local declaration hides a use-imported variable *)
  | Write_to_intent_in
  | Intent_out_never_set  (* also: function result never assigned *)
  | Unreachable_code
  | Undeclared_implicit  (* name resolved only by Fortran implicit typing *)
  | Type_mismatch  (* assignment or operand with incompatible type/rank *)
  | Arity_mismatch  (* call with no matching-arity candidate *)
  | Intent_at_call_site  (* actual argument violates the callee's intent *)

type diag = {
  kind : kind;
  severity : severity;
  dmodule : string;
  dsub : string;
  line : int;
  var : string;  (* "" when the finding has no variable *)
  sym : int;  (* Resolve symbol id the finding is about *)
  def_file : string;  (* that symbol's def site *)
  def_line : int;
  message : string;
}

let kind_name = function
  | Use_before_def -> "use-before-def"
  | Use_maybe_uninit -> "use-maybe-uninit"
  | Dead_assignment -> "dead-assignment"
  | Unused_variable -> "unused-variable"
  | Shadowed_variable -> "shadowed-variable"
  | Shadowed_import -> "shadowed-import"
  | Write_to_intent_in -> "write-to-intent-in"
  | Intent_out_never_set -> "intent-out-never-set"
  | Unreachable_code -> "unreachable-code"
  | Undeclared_implicit -> "undeclared-implicit"
  | Type_mismatch -> "type-mismatch"
  | Arity_mismatch -> "arity-mismatch"
  | Intent_at_call_site -> "intent-at-call-site"

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let all_kinds =
  [
    Use_before_def; Use_maybe_uninit; Dead_assignment; Unused_variable;
    Shadowed_variable; Shadowed_import; Write_to_intent_in; Intent_out_never_set;
    Unreachable_code; Undeclared_implicit; Type_mismatch; Arity_mismatch;
    Intent_at_call_site;
  ]

(* ---- per-subprogram pass ------------------------------------------------------ *)

(* Diagnostics with no single concerned variable (unreachable code) are
   attached to the enclosing subprogram's symbol. *)
let sub_provenance res ~module_ ~sub =
  match Resolve.sub_symbol res ~module_ sub with
  | Some s -> (s.Resolve.sym_id, s.Resolve.sym_file, s.Resolve.sym_line)
  | None -> (Resolve.no_symbol, "", 0)

let var_provenance res (v : Scope.var) =
  let s = Resolve.symbol res v.Scope.v_sym in
  (s.Resolve.sym_id, s.Resolve.sym_file, s.Resolve.sym_line)

let of_sub (flow : Dataflow.t) : diag list =
  let ss = flow.Dataflow.scope in
  let res = Scope.resolution ss.Scope.ss_ps in
  let dmodule = ss.Scope.ss_module and dsub = ss.Scope.ss_sub.Rca_fortran.Ast.s_name in
  let mk kind severity line (prov : int * string * int) var message =
    let sym, def_file, def_line = prov in
    { kind; severity; dmodule; dsub; line; var; sym; def_file; def_line; message }
  in
  let vprov v = var_provenance res v in
  let out = ref [] in
  let add d = out := d :: !out in
  (* use-before-def *)
  List.iter
    (fun { Dataflow.uu_use = u; uu_class } ->
      let v = u.Defuse.u_var in
      let name = v.Scope.v_name in
      match uu_class with
      | Dataflow.Definite ->
          add
            (mk Use_before_def Error u.Defuse.u_line (vprov v) name
               (Printf.sprintf "'%s' is read but never assigned on any path to this use" name))
      | Dataflow.Maybe ->
          add
            (mk Use_maybe_uninit Warning u.Defuse.u_line (vprov v) name
               (Printf.sprintf "'%s' may be read before it is assigned" name)))
    (Dataflow.uninit_uses flow);
  (* dead assignments *)
  List.iter
    (fun (d : Defuse.def_site) ->
      let v = d.Defuse.d_var in
      let name = v.Scope.v_name in
      add
        (mk Dead_assignment Warning d.Defuse.d_line (vprov v) name
           (Printf.sprintf "value assigned to '%s' is never read" name)))
    (Dataflow.dead_defs flow);
  (* writes to intent(in) formals *)
  Array.iter
    (fun (instrs : Defuse.fact array) ->
      Array.iter
        (fun (f : Defuse.fact) ->
          List.iter
            (fun (d : Defuse.def_site) ->
              match (d.Defuse.d_var.Scope.v_kind, d.Defuse.d_origin) with
              | Scope.Formal (Some Rca_fortran.Ast.In), (Defuse.From_assign | Defuse.From_loop | Defuse.From_call) ->
                  let v = d.Defuse.d_var in
                  let name = v.Scope.v_name in
                  add
                    (mk Write_to_intent_in Error d.Defuse.d_line (vprov v) name
                       (Printf.sprintf "intent(in) argument '%s' is assigned" name))
              | _ -> ())
            f.Defuse.defs)
        instrs)
    flow.Dataflow.facts;
  (* per-variable findings *)
  let used = Dataflow.used_vars flow and defined = Dataflow.defined_vars flow in
  List.iter
    (fun (v : Scope.var) ->
      let u = Dataflow.bs_get used v.Scope.v_id
      and d = Dataflow.bs_get defined v.Scope.v_id in
      (match v.Scope.v_kind with
      | Scope.Formal (Some Rca_fortran.Ast.Out) when not d ->
          add
            (mk Intent_out_never_set Warning v.Scope.v_line (vprov v) v.Scope.v_name
               (Printf.sprintf "intent(out) argument '%s' is never assigned" v.Scope.v_name))
      | Scope.Result when not d ->
          add
            (mk Intent_out_never_set Warning v.Scope.v_line (vprov v) v.Scope.v_name
               (Printf.sprintf "function result '%s' is never assigned" v.Scope.v_name))
      | Scope.Formal _ | Scope.Local _ ->
          if (not u) && not d then
            add
              (mk Unused_variable Info v.Scope.v_line (vprov v) v.Scope.v_name
                 (Printf.sprintf "'%s' is declared but never used" v.Scope.v_name))
      | _ -> ());
      match (v.Scope.v_shadows, v.Scope.v_kind) with
      | Some owner, (Scope.Formal _ | Scope.Local _ | Scope.Result) ->
          if owner = dmodule then
            add
              (mk Shadowed_variable Info v.Scope.v_line (vprov v) v.Scope.v_name
                 (Printf.sprintf "'%s' hides the module variable from '%s'" v.Scope.v_name owner))
          else
            add
              (mk Shadowed_import Info v.Scope.v_line (vprov v) v.Scope.v_name
                 (Printf.sprintf "'%s' hides the variable imported from '%s'" v.Scope.v_name
                    owner))
      | _ -> ())
    (Scope.vars ss);
  (* unreachable statements *)
  let sprov = sub_provenance res ~module_:dmodule ~sub:dsub in
  List.iter
    (fun line ->
      add (mk Unreachable_code Warning line sprov "" "statement can never execute"))
    (Cfg.unreachable_lines flow.Dataflow.cfg);
  List.rev !out

(* ---- aggregation / report ----------------------------------------------------- *)

let sort_diags ds =
  List.sort
    (fun a b ->
      compare
        (a.dmodule, a.dsub, a.line, kind_name a.kind, a.var)
        (b.dmodule, b.dsub, b.line, kind_name b.kind, b.var))
    ds

let count_severity ds sev = List.length (List.filter (fun d -> d.severity = sev) ds)

let count_kind ds k = List.length (List.filter (fun d -> d.kind = k) ds)

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

(* ---- JSON ---------------------------------------------------------------------- *)

module J = Rca_obs.Jsonio

let diag_json d =
  J.Obj
    [
      ("kind", J.Str (kind_name d.kind));
      ("severity", J.Str (severity_name d.severity));
      ("module", J.Str d.dmodule);
      ("subprogram", J.Str d.dsub);
      ("line", J.num d.line);
      ("variable", J.Str d.var);
      ("symbol", J.num d.sym);
      ("def_file", J.Str d.def_file);
      ("def_line", J.num d.def_line);
      ("message", J.Str d.message);
    ]

(* Stable report: version, severity/kind summary, diagnostics sorted by
   (module, subprogram, line, kind, variable). *)
let report_json ?(extra = []) (ds : diag list) =
  let ds = sort_diags ds in
  J.Obj
    ((("version", J.num 2) :: extra)
    @ [
        ( "summary",
          J.Obj
            [
              ("error", J.num (count_severity ds Error));
              ("warning", J.num (count_severity ds Warning));
              ("info", J.num (count_severity ds Info));
              ("total", J.num (List.length ds));
            ] );
        ("by_kind", J.Obj (List.map (fun k -> (kind_name k, J.num (count_kind ds k))) all_kinds));
        ("diagnostics", J.Arr (List.map diag_json ds));
      ])
