(* Name resolution for the static analyzer.

   Visibility is delegated to {!Resolve}: every dataflow variable carries
   the symbol id of the declaration it refers to, so shadowing, renames
   and implicit typing are decided once, in the resolver, and the
   bitvector dataflow / diagnostics / oracle layers all agree on what a
   name means; callable candidates are {!Resolve.callables} too.  This
   module keeps what the dataflow pass needs on top of the symbol table:
   syntactic read/write summaries per formal, and the per-subprogram
   dense variable ids the bitvectors run on. *)

open Rca_fortran

(* ---- program-level scopes -------------------------------------------------- *)

type program_scope = {
  prog : Ast.program;
  ps_res : Resolve.t;
  ps_subs : (string * string, Ast.subprogram) Hashtbl.t;
      (* (module, name) -> the module's first subprogram of that name *)
}

let of_program ?resolution (prog : Ast.program) : program_scope =
  let ps_res =
    match resolution with Some r -> r | None -> Resolve.program prog
  in
  let ps_subs = Hashtbl.create 256 in
  List.iter
    (fun (mu : Ast.module_unit) ->
      List.iter
        (fun (s : Ast.subprogram) ->
          let k = (mu.Ast.m_name, s.Ast.s_name) in
          if not (Hashtbl.mem ps_subs k) then Hashtbl.replace ps_subs k s)
        mu.Ast.m_subprograms)
    prog;
  { prog; ps_res; ps_subs }

let resolution ps = ps.ps_res

let module_callables ps ~module_ name : Visibility.callable list =
  List.filter_map
    (fun k ->
      Option.map
        (fun c_sub -> { Visibility.c_module = fst k; c_sub })
        (Hashtbl.find_opt ps.ps_subs k))
    (Resolve.callables ps.ps_res ~module_ name)

(* ---- interprocedural summaries --------------------------------------------- *)

(* Per formal: does the callee's body (syntactically) read or write it?
   Nested calls inside the callee fall back to declared intent, or
   read+write when unknown — the summary is a refinement of intent, never
   a relaxation below it. *)
type formal_summary = { fs_reads : bool; fs_writes : bool }

type summaries = (string * string, (string, formal_summary) Hashtbl.t) Hashtbl.t

let sub_key (c : Visibility.callable) = (c.Visibility.c_module, c.Visibility.c_sub.Ast.s_name)

let compute_summaries (ps : program_scope) : summaries =
  let out : summaries = Hashtbl.create 128 in
  List.iter
    (fun (mu : Ast.module_unit) ->
      List.iter
        (fun (s : Ast.subprogram) ->
          let formals = Hashtbl.create 8 in
          List.iter
            (fun f -> Hashtbl.replace formals f { fs_reads = false; fs_writes = false })
            s.Ast.s_args;
          let mark_read n =
            match Hashtbl.find_opt formals n with
            | Some fs -> Hashtbl.replace formals n { fs with fs_reads = true }
            | None -> ()
          in
          let mark_write n =
            match Hashtbl.find_opt formals n with
            | Some fs -> Hashtbl.replace formals n { fs with fs_writes = true }
            | None -> ()
          in
          let intent_of_formal (c : Visibility.callable) formal =
            List.find_opt
              (fun (d : Ast.decl) -> d.Ast.d_name = formal)
              c.Visibility.c_sub.Ast.s_decls
            |> Option.map (fun d -> d.Ast.d_intent)
            |> Option.join
          in
          let rec expr_reads (e : Ast.expr) =
            match e with
            | Ast.Enum _ | Ast.Eint _ | Ast.Elogical _ | Ast.Estring _ -> ()
            | Ast.Eun (_, e) -> expr_reads e
            | Ast.Ebin (_, a, b) ->
                expr_reads a;
                expr_reads b
            | Ast.Erange (a, b) ->
                Option.iter expr_reads a;
                Option.iter expr_reads b
            | Ast.Edesig d -> desig_reads d
          and desig_reads = function
            | Ast.Dname n -> mark_read n
            | Ast.Dindex (d, args) ->
                desig_reads d;
                List.iter expr_reads args
            | Ast.Dmember (d, _) -> desig_reads d
          in
          let call_effects name args =
            let cands = module_callables ps ~module_:mu.Ast.m_name name in
            if cands = [] then
              (* unknown procedure: assume it both reads and writes *)
              List.iter
                (fun a ->
                  expr_reads a;
                  match a with
                  | Ast.Edesig d -> mark_write (Ast.designator_base d)
                  | _ -> ())
                args
            else
              List.iter
                (fun c ->
                  List.iteri
                    (fun i formal ->
                      match List.nth_opt args i with
                      | None -> ()  (* arity mismatch: fewer actuals than formals *)
                      | Some actual -> (
                          match intent_of_formal c formal with
                          | Some Ast.In -> expr_reads actual
                          | Some Ast.Out -> (
                              match actual with
                              | Ast.Edesig d -> mark_write (Ast.designator_base d)
                              | _ -> expr_reads actual)
                          | Some Ast.Inout | None -> (
                              expr_reads actual;
                              match actual with
                              | Ast.Edesig d -> mark_write (Ast.designator_base d)
                              | _ -> ())))
                    c.Visibility.c_sub.Ast.s_args)
                cands
          in
          Ast.iter_stmts
            (fun st ->
              match st.Ast.node with
              | Ast.Assign (d, rhs) ->
                  mark_write (Ast.designator_base d);
                  (* index expressions on the lhs are reads *)
                  let rec idx_reads = function
                    | Ast.Dname _ -> ()
                    | Ast.Dindex (d, args) ->
                        idx_reads d;
                        List.iter expr_reads args
                    | Ast.Dmember (d, _) -> idx_reads d
                  in
                  idx_reads d;
                  expr_reads rhs
              | Ast.Call (name, args) -> call_effects name args
              | Ast.If (branches, _) -> List.iter (fun (c, _) -> expr_reads c) branches
              | Ast.Do { var = _; lo; hi; step; _ } ->
                  expr_reads lo;
                  expr_reads hi;
                  Option.iter expr_reads step
              | Ast.Do_while (c, _) -> expr_reads c
              | Ast.Select (sel, cases, _) ->
                  expr_reads sel;
                  List.iter (fun (vs, _) -> List.iter expr_reads vs) cases
              | Ast.Print args -> List.iter expr_reads args
              | Ast.Unparsed raw ->
                  (* havoc: any mentioned formal may be read and written *)
                  List.iter
                    (fun id ->
                      mark_read id;
                      mark_write id)
                    (Relaxed.scrape_identifiers raw)
              | Ast.Return | Ast.Exit_loop | Ast.Cycle | Ast.Stop -> ())
            s.Ast.s_body;
          Hashtbl.replace out (mu.Ast.m_name, s.Ast.s_name) formals)
        mu.Ast.m_subprograms)
    ps.prog;
  out

let formal_summary (sums : summaries) (c : Visibility.callable) formal =
  match Hashtbl.find_opt sums (sub_key c) with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl formal

(* ---- per-subprogram variable tables ----------------------------------------- *)

type var_kind =
  | Formal of Ast.intent option
  | Local of { initialized : bool; param : bool }
  | Result
  | Module_var of { vmodule : string; vname : string }
  | Member of { base : string }  (* derived-type component, name "base%field" *)
  | Implicit  (* referenced but never declared: implicit local *)

type var = {
  v_id : int;
  v_name : string;  (* name as written in this subprogram, e.g. "qc" or "state%q" *)
  v_kind : var_kind;
  v_line : int;  (* declaration line; 0 when there is none *)
  v_sym : int;  (* id in the Resolve symbol table *)
  v_shadows : string option;  (* module owning a module-level binding this hides *)
}

type sub_scope = {
  ss_module : string;
  ss_sub : Ast.subprogram;
  ss_ps : program_scope;
  ss_sums : summaries;
  by_name : (string, var) Hashtbl.t;
  mutable vars_rev : var list;
  mutable n_vars : int;
}

let n_vars ss = ss.n_vars

let vars ss = List.rev ss.vars_rev

let find_var ss name = Hashtbl.find_opt ss.by_name name

(* The metagraph treats names in this priority: local declaration, then
   module variable, then (for indexed names only) callable / intrinsic,
   then implicit local.  Interning computes the variable's symbol from
   its kind, so the dataflow id and the resolver id always agree. *)
let intern ss name kind line =
  match Hashtbl.find_opt ss.by_name name with
  | Some v -> v
  | None ->
      let res = ss.ss_ps.ps_res in
      let module_ = ss.ss_module and sub = ss.ss_sub.Ast.s_name in
      let sym_of = function
        | Formal _ | Local _ | Result -> (
            match Resolve.lookup_local res ~module_ ~sub name with
            | Some s -> s.Resolve.sym_id
            | None ->
                (Resolve.intern_implicit res ~module_ ~sub ~line name).Resolve.sym_id)
        | Module_var _ -> (
            match Resolve.module_var res ~module_ name with
            | Some s -> s.Resolve.sym_id
            | None ->
                (Resolve.intern_implicit res ~module_ ~sub ~line name).Resolve.sym_id)
        | Member { base } ->
            let field =
              let n = String.length name and b = String.length base in
              String.sub name (b + 1) (n - b - 1)
            in
            (Resolve.resolve_member res ~module_ ~sub ~line ~base field).Resolve.sym_id
        | Implicit ->
            (Resolve.intern_implicit res ~module_ ~sub ~line name).Resolve.sym_id
      in
      let shadows =
        match kind with
        | Formal _ | Local _ | Result -> (
            match Resolve.module_var res ~module_ name with
            | Some s -> (
                match s.Resolve.sym_kind with
                | Resolve.Smodule_var { owner; _ } -> Some owner
                | _ -> Some s.Resolve.sym_module)
            | None -> None)
        | _ -> None
      in
      let v =
        {
          v_id = ss.n_vars;
          v_name = name;
          v_kind = kind;
          v_line = line;
          v_sym = sym_of kind;
          v_shadows = shadows;
        }
      in
      ss.n_vars <- ss.n_vars + 1;
      ss.vars_rev <- v :: ss.vars_rev;
      Hashtbl.replace ss.by_name name v;
      v

let of_subprogram (ps : program_scope) (sums : summaries) ~module_:mname
    (s : Ast.subprogram) : sub_scope =
  let ss =
    {
      ss_module = mname;
      ss_sub = s;
      ss_ps = ps;
      ss_sums = sums;
      by_name = Hashtbl.create 32;
      vars_rev = [];
      n_vars = 0;
    }
  in
  (* formals first, with intent from the declaration section *)
  List.iter
    (fun a ->
      let decl = List.find_opt (fun (d : Ast.decl) -> d.Ast.d_name = a) s.Ast.s_decls in
      let intent = Option.join (Option.map (fun (d : Ast.decl) -> d.Ast.d_intent) decl) in
      let line = match decl with Some d -> d.Ast.d_line | None -> s.Ast.s_line in
      ignore (intern ss a (Formal intent) line))
    s.Ast.s_args;
  (* the function result is [Result] even when it also carries an
     explicit type declaration *)
  let result_name =
    match s.Ast.s_kind with Ast.Function -> Some (Ast.function_result_name s) | Ast.Subroutine -> None
  in
  (* declared locals (skipping formals and the result, handled apart) *)
  List.iter
    (fun (d : Ast.decl) ->
      if (not (List.mem d.Ast.d_name s.Ast.s_args)) && Some d.Ast.d_name <> result_name then
        ignore
          (intern ss d.Ast.d_name
             (Local { initialized = d.Ast.d_init <> None || d.Ast.d_param; param = d.Ast.d_param })
             d.Ast.d_line))
    s.Ast.s_decls;
  (match result_name with
  | Some r ->
      if not (Hashtbl.mem ss.by_name r) then
        let line =
          match List.find_opt (fun (d : Ast.decl) -> d.Ast.d_name = r) s.Ast.s_decls with
          | Some d -> d.Ast.d_line
          | None -> s.Ast.s_line
        in
        ignore (intern ss r Result line)
  | None -> ());
  ss

(* Resolve a plain name in expression or lhs position, creating module /
   implicit vars on first reference. *)
let resolve ss name line =
  match Hashtbl.find_opt ss.by_name name with
  | Some v -> v
  | None -> (
      match Resolve.module_var ss.ss_ps.ps_res ~module_:ss.ss_module name with
      | Some s ->
          let vmodule, vname =
            match s.Resolve.sym_kind with
            | Resolve.Smodule_var { owner; _ } -> (owner, s.Resolve.sym_name)
            | _ -> (s.Resolve.sym_module, s.Resolve.sym_name)
          in
          intern ss name (Module_var { vmodule; vname }) line
      | None -> intern ss name Implicit line)

(* Member chains: one atomic variable per (base, final component), named
   "base%component" like the metagraph's member nodes. *)
let resolve_member ss base field line =
  ignore (resolve ss base line);
  intern ss (base ^ "%" ^ field) (Member { base }) line

let is_declared_var ss name =
  Hashtbl.mem ss.by_name name
  || Resolve.module_var ss.ss_ps.ps_res ~module_:ss.ss_module name <> None

(* Exactly the metagraph builder's [is_variable]: a name declared in this
   subprogram (formal, local, result) or visible as a module variable.
   Implicit locals interned by earlier references do NOT count. *)
let is_metagraph_variable ss name =
  (match Hashtbl.find_opt ss.by_name name with
  | Some { v_kind = Formal _ | Local _ | Result; _ } -> true
  | _ -> false)
  || name = Ast.function_result_name ss.ss_sub
     (* the metagraph builder seeds its locals with the result name, which
        for a subroutine is the subprogram's own name — mirror that *)
  || Resolve.module_var ss.ss_ps.ps_res ~module_:ss.ss_module name <> None

let callables ss name = module_callables ss.ss_ps ~module_:ss.ss_module name

(* Does the variable's value survive the subprogram (so a final definition
   is never dead)?  Module variables, out/inout formals, the function
   result, derived-type members (their base may escape) and implicit
   names (unknown, stay conservative). *)
let escapes (v : var) =
  match v.v_kind with
  | Module_var _ | Result | Member _ | Implicit -> true
  | Formal (Some Ast.Out) | Formal (Some Ast.Inout) -> true
  | Formal (Some Ast.In) -> false
  | Formal None -> true  (* unknown intent: may be an out argument *)
  | Local _ -> false

(* Initialized before the first statement runs?  In/inout formals and
   no-intent formals are caller-supplied; module variables are set
   elsewhere; members and implicits are unknown, so conservatively
   initialized (no use-before-def reports). *)
let initialized_at_entry (v : var) =
  match v.v_kind with
  | Formal (Some Ast.Out) -> false
  | Formal _ -> true
  | Local { initialized; _ } -> initialized
  | Result -> false
  | Module_var _ | Member _ | Implicit -> true

(* The (module, subprogram, name) triple under which the metagraph stores
   this variable's node — [Metagraph.find_node]'s key. *)
let metagraph_key ss (v : var) =
  match v.v_kind with
  | Module_var { vmodule; vname } -> (vmodule, "", vname)
  | Member { base } -> (
      let field =
        let n = String.length v.v_name and b = String.length base in
        String.sub v.v_name (b + 1) (n - b - 1)
      in
      match Hashtbl.find_opt ss.by_name base with
      | Some { v_kind = Module_var { vmodule; _ }; _ } ->
          (vmodule, "", base ^ "%" ^ field)
      | Some _ -> (ss.ss_module, ss.ss_sub.Ast.s_name, base ^ "%" ^ field)
      | None -> (
          match Resolve.module_var ss.ss_ps.ps_res ~module_:ss.ss_module base with
          | Some { Resolve.sym_kind = Resolve.Smodule_var { owner; _ }; _ } ->
              (owner, "", base ^ "%" ^ field)
          | Some _ | None -> (ss.ss_module, ss.ss_sub.Ast.s_name, base ^ "%" ^ field)))
  | _ -> (ss.ss_module, ss.ss_sub.Ast.s_name, v.v_name)
