(* Typed symbol resolution: the renamer underneath the whole analysis
   layer.

   Every declared entity of the program — module variables, dummy
   arguments, locals, function results, subprograms, derived types and
   their fields — receives one global symbol with def-site provenance
   (file, line) and a declared type (base type + array rank from
   [d_dims]).  Name visibility reproduces the metagraph builder's rules
   exactly: subprogram scope (formals, declared locals, the
   function-result name — which for a subroutine is the subprogram's own
   name) hides module scope; module scope holds the module's own
   variables plus use-associated imports honouring [only] lists and
   [local => remote] renames, with no transitive chaining; callables are
   the module's own subprograms, named interfaces, and imported ones.
   Names that resolve nowhere fall back to Fortran implicit typing
   (first letter i..n integer, otherwise real) and are interned as
   [Simplicit] symbols scoped to the referencing subprogram — the
   resolver walks every statement up front so the implicit population is
   complete and deterministic after [program] returns.

   {!Scope}, {!Defuse} and {!Oracle} are rebased on this table: each
   dataflow variable carries its symbol id, and the differential oracle
   derives metagraph keys from symbols rather than from raw strings,
   proving the rename semantics-preserving. *)

open Rca_fortran

(* ---- types -------------------------------------------------------------------- *)

type ty = { elem : Ast.type_spec; rank : int }

let ty_scalar elem = { elem; rank = 0 }

let ty_of_decl (d : Ast.decl) = { elem = d.Ast.d_type; rank = List.length d.Ast.d_dims }

(* FORTRAN implicit typing: I-N integer, everything else real. *)
let implicit_ty name =
  let c = if name = "" then 'x' else Char.lowercase_ascii name.[0] in
  if c >= 'i' && c <= 'n' then ty_scalar Ast.Tinteger else ty_scalar Ast.Treal

let ty_str t =
  let base =
    match t.elem with
    | Ast.Treal -> "real"
    | Ast.Tinteger -> "integer"
    | Ast.Tlogical -> "logical"
    | Ast.Tcharacter -> "character"
    | Ast.Ttype n -> "type(" ^ n ^ ")"
  in
  if t.rank = 0 then base else Printf.sprintf "%s rank-%d" base t.rank

(* ---- symbols ------------------------------------------------------------------- *)

type symbol_kind =
  | Smodule_var of { owner : string; param : bool }
  | Sformal of Ast.intent option
  | Slocal of { param : bool }
  | Sresult
  | Ssubprogram of Ast.subprogram_kind
  | Sfield of { stype : string }
  | Stype_name
  | Simplicit

type symbol = {
  sym_id : int;
  sym_name : string;  (* defining name (post-rename for imports) *)
  sym_module : string;
  sym_sub : string;  (* "" for module-scope symbols *)
  sym_file : string;
  sym_line : int;  (* def site; first-reference line for implicits *)
  sym_kind : symbol_kind;
  sym_ty : ty option;
}

let kind_str = function
  | Smodule_var { owner; param } ->
      (if param then "module-param(" else "module-var(") ^ owner ^ ")"
  | Sformal None -> "formal"
  | Sformal (Some Ast.In) -> "formal(in)"
  | Sformal (Some Ast.Out) -> "formal(out)"
  | Sformal (Some Ast.Inout) -> "formal(inout)"
  | Slocal { param = true } -> "parameter"
  | Slocal { param = false } -> "local"
  | Sresult -> "result"
  | Ssubprogram Ast.Subroutine -> "subroutine"
  | Ssubprogram Ast.Function -> "function"
  | Sfield { stype } -> "field(" ^ stype ^ ")"
  | Stype_name -> "type"
  | Simplicit -> "implicit"

(* ---- scopes -------------------------------------------------------------------- *)

type mscope = {
  rm_file : string;
  rm_vars : (string, int) Hashtbl.t;  (* visible name -> symbol (own + imports) *)
  rm_subs : (string, (string * string) list) Hashtbl.t;
      (* visible name -> candidate (module, subprogram) keys *)
}

type sscope = {
  rs_vars : (string, int) Hashtbl.t;  (* formals, locals, result *)
  rs_implicits : (string, int) Hashtbl.t;
}

type t = {
  mutable syms : symbol array;
  mutable n_syms : int;
  r_modules : (string, mscope) Hashtbl.t;
  r_subscopes : (string * string, sscope) Hashtbl.t;
  r_sub_syms : (string * string, int) Hashtbl.t;
  r_types : (string, int) Hashtbl.t;  (* type name -> symbol, first definition wins *)
  r_fields : (string * string, int) Hashtbl.t;  (* (type, field) -> symbol *)
}

let n_symbols t = t.n_syms

let symbol t id =
  if id < 0 || id >= t.n_syms then
    invalid_arg (Printf.sprintf "Resolve.symbol: id %d out of range [0, %d)" id t.n_syms);
  t.syms.(id)

let symbols t = Array.to_list (Array.sub t.syms 0 t.n_syms)

let no_symbol = -1

let add_sym t ~name ~module_ ~sub ~file ~line ~kind ~ty =
  if t.n_syms = Array.length t.syms then begin
    let bigger =
      Array.make
        (2 * max 16 t.n_syms)
        {
          sym_id = 0; sym_name = ""; sym_module = ""; sym_sub = ""; sym_file = "";
          sym_line = 0; sym_kind = Simplicit; sym_ty = None;
        }
    in
    Array.blit t.syms 0 bigger 0 t.n_syms;
    t.syms <- bigger
  end;
  let s =
    {
      sym_id = t.n_syms;
      sym_name = name;
      sym_module = module_;
      sym_sub = sub;
      sym_file = file;
      sym_line = line;
      sym_kind = kind;
      sym_ty = ty;
    }
  in
  t.syms.(t.n_syms) <- s;
  t.n_syms <- t.n_syms + 1;
  s

(* ---- lookups ------------------------------------------------------------------- *)

let module_var t ~module_ name =
  match Hashtbl.find_opt t.r_modules module_ with
  | None -> None
  | Some ms -> Option.map (symbol t) (Hashtbl.find_opt ms.rm_vars name)

let lookup_local t ~module_ ~sub name =
  match Hashtbl.find_opt t.r_subscopes (module_, sub) with
  | None -> None
  | Some ss -> Option.map (symbol t) (Hashtbl.find_opt ss.rs_vars name)

(* Metagraph visibility priority: subprogram scope first (formals, locals,
   the result name), then module scope.  Interned implicits do NOT count:
   this is [is_variable] of the metagraph builder. *)
let lookup_var t ~module_ ~sub name =
  match lookup_local t ~module_ ~sub name with
  | Some s -> Some s
  | None -> module_var t ~module_ name

let callables t ~module_ name =
  match Hashtbl.find_opt t.r_modules module_ with
  | None -> []
  | Some ms -> Option.value ~default:[] (Hashtbl.find_opt ms.rm_subs name)

let sub_symbol t ~module_ name =
  Option.map (symbol t) (Hashtbl.find_opt t.r_sub_syms (module_, name))

let field_symbol t ~type_name field =
  Option.map (symbol t) (Hashtbl.find_opt t.r_fields (type_name, field))

let sub_scope_exn t ~module_ ~sub =
  match Hashtbl.find_opt t.r_subscopes (module_, sub) with
  | Some ss -> ss
  | None ->
      invalid_arg (Printf.sprintf "Resolve: unknown subprogram %s/%s" module_ sub)

let file_of_module t module_ =
  match Hashtbl.find_opt t.r_modules module_ with
  | Some ms -> ms.rm_file
  | None -> module_ ^ ".F90"

(* Intern (or fetch) an implicitly-typed symbol for an undeclared name in
   a subprogram.  Idempotent per (module, sub, name); the def site is the
   first referencing line. *)
let intern_implicit t ~module_ ~sub ~line name =
  let ss = sub_scope_exn t ~module_ ~sub in
  match Hashtbl.find_opt ss.rs_implicits name with
  | Some id -> symbol t id
  | None ->
      let s =
        add_sym t ~name ~module_ ~sub ~file:(file_of_module t module_) ~line
          ~kind:Simplicit ~ty:(Some (implicit_ty name))
      in
      Hashtbl.replace ss.rs_implicits name s.sym_id;
      s

(* Full occurrence resolution with the implicit fallback. *)
let resolve_var t ~module_ ~sub ~line name =
  match lookup_var t ~module_ ~sub name with
  | Some s -> s
  | None -> intern_implicit t ~module_ ~sub ~line name

(* Member chains resolve to one atomic symbol per (base, final field),
   like the metagraph's member nodes.  When the base's declared type is a
   known derived type owning the field, the member symbol is that field's
   (with its declared type); otherwise an implicit member symbol scoped
   to the subprogram. *)
let resolve_member t ~module_ ~sub ~line ~base field =
  let base_sym = lookup_var t ~module_ ~sub base in
  let field_sym =
    match base_sym with
    | Some { sym_ty = Some { elem = Ast.Ttype tname; _ }; _ } ->
        field_symbol t ~type_name:tname field
    | _ -> None
  in
  match field_sym with
  | Some s -> s
  | None -> intern_implicit t ~module_ ~sub ~line (base ^ "%" ^ field)

let implicits_of_sub t ~module_ ~sub =
  match Hashtbl.find_opt t.r_subscopes (module_, sub) with
  | None -> []
  | Some ss ->
      Hashtbl.fold (fun _ id acc -> symbol t id :: acc) ss.rs_implicits []
      |> List.sort (fun a b -> compare a.sym_id b.sym_id)

(* ---- construction --------------------------------------------------------------- *)

let program (prog : Ast.program) : t =
  let t =
    {
      syms = Array.make 1024
          {
            sym_id = 0; sym_name = ""; sym_module = ""; sym_sub = ""; sym_file = "";
            sym_line = 0; sym_kind = Simplicit; sym_ty = None;
          };
      n_syms = 0;
      r_modules = Hashtbl.create 64;
      r_subscopes = Hashtbl.create 256;
      r_sub_syms = Hashtbl.create 256;
      r_types = Hashtbl.create 32;
      r_fields = Hashtbl.create 128;
    }
  in
  (* pass 1: every module's own names — types, fields, variables,
     subprograms, named interfaces *)
  List.iter
    (fun (mu : Ast.module_unit) ->
      let file = mu.Ast.m_file in
      let ms =
        { rm_file = file; rm_vars = Hashtbl.create 32; rm_subs = Hashtbl.create 16 }
      in
      List.iter
        (fun (td : Ast.derived_type_def) ->
          if not (Hashtbl.mem t.r_types td.Ast.t_name) then begin
            let s =
              add_sym t ~name:td.Ast.t_name ~module_:mu.Ast.m_name ~sub:"" ~file
                ~line:td.Ast.t_line ~kind:Stype_name ~ty:None
            in
            Hashtbl.replace t.r_types td.Ast.t_name s.sym_id;
            List.iter
              (fun (fd : Ast.decl) ->
                let fs =
                  add_sym t ~name:fd.Ast.d_name ~module_:mu.Ast.m_name ~sub:"" ~file
                    ~line:fd.Ast.d_line
                    ~kind:(Sfield { stype = td.Ast.t_name })
                    ~ty:(Some (ty_of_decl fd))
                in
                Hashtbl.replace t.r_fields (td.Ast.t_name, fd.Ast.d_name) fs.sym_id)
              td.Ast.t_fields
          end)
        mu.Ast.m_types;
      List.iter
        (fun (d : Ast.decl) ->
          let s =
            add_sym t ~name:d.Ast.d_name ~module_:mu.Ast.m_name ~sub:"" ~file
              ~line:d.Ast.d_line
              ~kind:(Smodule_var { owner = mu.Ast.m_name; param = d.Ast.d_param })
              ~ty:(Some (ty_of_decl d))
          in
          Hashtbl.replace ms.rm_vars d.Ast.d_name s.sym_id)
        mu.Ast.m_decls;
      List.iter
        (fun (s : Ast.subprogram) ->
          let sym =
            add_sym t ~name:s.Ast.s_name ~module_:mu.Ast.m_name ~sub:"" ~file
              ~line:s.Ast.s_line ~kind:(Ssubprogram s.Ast.s_kind) ~ty:None
          in
          Hashtbl.replace t.r_sub_syms (mu.Ast.m_name, s.Ast.s_name) sym.sym_id;
          let cur = Option.value ~default:[] (Hashtbl.find_opt ms.rm_subs s.Ast.s_name) in
          Hashtbl.replace ms.rm_subs s.Ast.s_name (cur @ [ (mu.Ast.m_name, s.Ast.s_name) ]))
        mu.Ast.m_subprograms;
      List.iter
        (fun (i : Ast.interface_def) ->
          if i.Ast.i_name <> "" then begin
            let cands =
              List.filter_map
                (fun p ->
                  Option.map
                    (fun (_ : Ast.subprogram) -> (mu.Ast.m_name, p))
                    (Ast.find_subprogram mu p))
                i.Ast.i_procedures
            in
            if cands <> [] then Hashtbl.replace ms.rm_subs i.Ast.i_name cands
          end)
        mu.Ast.m_interfaces;
      Hashtbl.replace t.r_modules mu.Ast.m_name ms)
    prog;
  (* pass 2: use-association — only names the source module declares
     itself (no chained imports), honouring only-lists and renames; an
     import replaces a same-named own name.  Imports read the own tables
     of pass 1 and are applied after all are collected, so the module
     order cannot matter *)
  let imports = ref [] in
  List.iter
    (fun (mu : Ast.module_unit) ->
      match Hashtbl.find_opt t.r_modules mu.Ast.m_name with
      | None -> ()
      | Some ms ->
          List.iter
            (fun (u : Ast.use_stmt) ->
              match Hashtbl.find_opt t.r_modules u.Ast.u_module with
              | None -> ()
              | Some src ->
                  let import tbl src_tbl local remote =
                    Option.iter
                      (fun v -> imports := (fun () -> Hashtbl.replace tbl local v) :: !imports)
                      (Hashtbl.find_opt src_tbl remote)
                  in
                  let import_both local remote =
                    import ms.rm_vars src.rm_vars local remote;
                    import ms.rm_subs src.rm_subs local remote
                  in
                  (match u.Ast.u_only with
                  | Some pairs -> List.iter (fun (local, remote) -> import_both local remote) pairs
                  | None -> (
                      match Ast.find_module prog u.Ast.u_module with
                      | None -> ()
                      | Some smu ->
                          List.iter
                            (fun (d : Ast.decl) -> import_both d.Ast.d_name d.Ast.d_name)
                            smu.Ast.m_decls;
                          List.iter
                            (fun (s : Ast.subprogram) -> import_both s.Ast.s_name s.Ast.s_name)
                            smu.Ast.m_subprograms;
                          List.iter
                            (fun (i : Ast.interface_def) ->
                              if i.Ast.i_name <> "" then import_both i.Ast.i_name i.Ast.i_name)
                            smu.Ast.m_interfaces)))
            mu.Ast.m_uses)
    prog;
  List.iter (fun apply -> apply ()) (List.rev !imports);
  (* pass 3: subprogram scopes — formals (with intent), declared locals,
     and the result name (for a subroutine, the subprogram's own name:
     the metagraph builder seeds its locals that way and the oracle must
     reproduce it) *)
  List.iter
    (fun (mu : Ast.module_unit) ->
      let file = mu.Ast.m_file in
      List.iter
        (fun (s : Ast.subprogram) ->
          let ss = { rs_vars = Hashtbl.create 16; rs_implicits = Hashtbl.create 4 } in
          let decl_of name =
            List.find_opt (fun (d : Ast.decl) -> d.Ast.d_name = name) s.Ast.s_decls
          in
          List.iter
            (fun a ->
              let d = decl_of a in
              let intent = Option.join (Option.map (fun d -> d.Ast.d_intent) d) in
              let line = match d with Some d -> d.Ast.d_line | None -> s.Ast.s_line in
              let ty =
                match d with Some d -> ty_of_decl d | None -> implicit_ty a
              in
              let sym =
                add_sym t ~name:a ~module_:mu.Ast.m_name ~sub:s.Ast.s_name ~file ~line
                  ~kind:(Sformal intent) ~ty:(Some ty)
              in
              Hashtbl.replace ss.rs_vars a sym.sym_id)
            s.Ast.s_args;
          let result_name = Ast.function_result_name s in
          List.iter
            (fun (d : Ast.decl) ->
              if (not (List.mem d.Ast.d_name s.Ast.s_args)) && d.Ast.d_name <> result_name
              then begin
                let sym =
                  add_sym t ~name:d.Ast.d_name ~module_:mu.Ast.m_name ~sub:s.Ast.s_name
                    ~file ~line:d.Ast.d_line
                    ~kind:(Slocal { param = d.Ast.d_param })
                    ~ty:(Some (ty_of_decl d))
                in
                Hashtbl.replace ss.rs_vars d.Ast.d_name sym.sym_id
              end)
            s.Ast.s_decls;
          if not (Hashtbl.mem ss.rs_vars result_name) then begin
            let d = decl_of result_name in
            let line = match d with Some d -> d.Ast.d_line | None -> s.Ast.s_line in
            let ty =
              match (d, s.Ast.s_kind) with
              | Some d, _ -> Some (ty_of_decl d)
              | None, Ast.Function -> Some (implicit_ty result_name)
              | None, Ast.Subroutine -> None  (* not a value; visibility quirk only *)
            in
            let sym =
              add_sym t ~name:result_name ~module_:mu.Ast.m_name ~sub:s.Ast.s_name ~file
                ~line ~kind:Sresult ~ty
            in
            Hashtbl.replace ss.rs_vars result_name sym.sym_id
          end;
          Hashtbl.replace t.r_subscopes (mu.Ast.m_name, s.Ast.s_name) ss)
        mu.Ast.m_subprograms)
    prog;
  (* pass 4: occurrence walk.  Mirrors Defuse's resolution priority so
     every implicitly-typed name is interned deterministically up front:
     plain names resolve variable-first; indexed names check variables,
     then callables, then intrinsics, then fall to implicit; member
     chains intern their atomic (base, final-field) symbol. *)
  List.iter
    (fun (mu : Ast.module_unit) ->
      let module_ = mu.Ast.m_name in
      List.iter
        (fun (s : Ast.subprogram) ->
          let sub = s.Ast.s_name in
          let resolve_name line name = ignore (resolve_var t ~module_ ~sub ~line name) in
          let rec walk_expr line (e : Ast.expr) =
            match e with
            | Ast.Enum _ | Ast.Eint _ | Ast.Elogical _ | Ast.Estring _ -> ()
            | Ast.Eun (_, e) -> walk_expr line e
            | Ast.Ebin (_, a, b) ->
                walk_expr line a;
                walk_expr line b
            | Ast.Erange (a, b) ->
                Option.iter (walk_expr line) a;
                Option.iter (walk_expr line) b
            | Ast.Edesig d -> walk_desig line d
          and walk_desig line (d : Ast.designator) =
            match d with
            | Ast.Dname n -> resolve_name line n
            | Ast.Dmember (base, field) ->
                walk_chain_indices line base;
                resolve_name line (Ast.designator_base base);
                ignore
                  (resolve_member t ~module_ ~sub ~line
                     ~base:(Ast.designator_base base) field)
            | Ast.Dindex (Ast.Dname n, args) ->
                (if lookup_var t ~module_ ~sub n <> None then resolve_name line n
                 else if callables t ~module_ n <> [] then ()
                 else if Visibility.is_intrinsic n then ()
                 else resolve_name line n);
                List.iter (walk_expr line) args
            | Ast.Dindex (base, args) ->
                walk_desig line base;
                List.iter (walk_expr line) args
          and walk_chain_indices line = function
            | Ast.Dname _ -> ()
            | Ast.Dindex (d, args) ->
                walk_chain_indices line d;
                List.iter (walk_expr line) args
            | Ast.Dmember (d, _) -> walk_chain_indices line d
          in
          Ast.iter_stmts
            (fun st ->
              let line = st.Ast.line in
              match st.Ast.node with
              | Ast.Assign (d, rhs) ->
                  walk_desig line d;
                  walk_expr line rhs
              | Ast.Call (_, args) -> List.iter (walk_expr line) args
              | Ast.If (branches, _) ->
                  List.iter (fun (c, _) -> walk_expr line c) branches
              | Ast.Do { var; lo; hi; step; _ } ->
                  resolve_name line var;
                  walk_expr line lo;
                  walk_expr line hi;
                  Option.iter (walk_expr line) step
              | Ast.Do_while (c, _) -> walk_expr line c
              | Ast.Select (sel, cases, _) ->
                  walk_expr line sel;
                  List.iter (fun (vs, _) -> List.iter (walk_expr line) vs) cases
              | Ast.Print args -> List.iter (walk_expr line) args
              | Ast.Unparsed _ | Ast.Return | Ast.Exit_loop | Ast.Cycle | Ast.Stop -> ())
            s.Ast.s_body)
        mu.Ast.m_subprograms)
    prog;
  t

(* ---- comparisons (property tests) ------------------------------------------------ *)

(* A line-number-free structural signature: re-resolving a
   pretty-printed-then-reparsed program must produce the same one. *)
let signature t =
  List.map
    (fun s -> (s.sym_module, s.sym_sub, s.sym_name, kind_str s.sym_kind,
               Option.map ty_str s.sym_ty))
    (symbols t)
  |> List.sort compare
