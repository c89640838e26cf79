(* Module-level name visibility (paper Section 4.2), shared by the
   metagraph builder and the interpreter so that runtime samples and
   metagraph nodes name the same variables.

   Pass 1 records every module's own names.  Pass 2 starts each module
   from a copy of its own names and applies its use-statements in order,
   reading only the source modules' own names: chained use is never
   followed, whatever order the modules come in, and an import replaces a
   same-named own declaration. *)

type callable = { c_module : string; c_sub : Ast.subprogram }

let intrinsic_names =
  [
    "abs"; "sqrt"; "exp"; "log"; "log10"; "min"; "max"; "mod"; "sign"; "sin"; "cos";
    "tan"; "tanh"; "sum"; "maxval"; "minval"; "size"; "real"; "int"; "floor"; "nint";
    "epsilon"; "tiny"; "huge"; "merge"; "dble";
  ]

let is_intrinsic name = List.mem name intrinsic_names

type scope = {
  vars : (string, string * string) Hashtbl.t;
  subs : (string, callable list) Hashtbl.t;
  types : (string, Ast.derived_type_def) Hashtbl.t;
}

type t = (string, scope) Hashtbl.t

let own_scope (mu : Ast.module_unit) =
  let m = mu.Ast.m_name in
  let sc = { vars = Hashtbl.create 32; subs = Hashtbl.create 16; types = Hashtbl.create 4 } in
  List.iter
    (fun (d : Ast.decl) -> Hashtbl.replace sc.vars d.Ast.d_name (m, d.Ast.d_name))
    mu.Ast.m_decls;
  List.iter
    (fun (s : Ast.subprogram) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt sc.subs s.Ast.s_name) in
      Hashtbl.replace sc.subs s.Ast.s_name (cur @ [ { c_module = m; c_sub = s } ]))
    mu.Ast.m_subprograms;
  List.iter
    (fun (i : Ast.interface_def) ->
      let cands =
        List.filter_map
          (fun p ->
            Option.map (fun s -> { c_module = m; c_sub = s }) (Ast.find_subprogram mu p))
          i.Ast.i_procedures
      in
      if i.Ast.i_name <> "" && cands <> [] then Hashtbl.replace sc.subs i.Ast.i_name cands)
    mu.Ast.m_interfaces;
  List.iter
    (fun (td : Ast.derived_type_def) -> Hashtbl.replace sc.types td.Ast.t_name td)
    mu.Ast.m_types;
  sc

let take dst src local remote =
  Option.iter (Hashtbl.replace dst local) (Hashtbl.find_opt src remote)

(* [use] of a module whose own names are [src]. *)
let import sc src (u : Ast.use_stmt) =
  match u.Ast.u_only with
  | Some pairs ->
      List.iter
        (fun (local, remote) ->
          take sc.vars src.vars local remote;
          take sc.subs src.subs local remote;
          take sc.types src.types local remote)
        pairs
  | None ->
      Hashtbl.iter (Hashtbl.replace sc.vars) src.vars;
      Hashtbl.iter (Hashtbl.replace sc.subs) src.subs;
      Hashtbl.iter (Hashtbl.replace sc.types) src.types

let of_program (prog : Ast.program) : t =
  let own = Hashtbl.create 64 in
  List.iter
    (fun (mu : Ast.module_unit) -> Hashtbl.replace own mu.Ast.m_name (own_scope mu))
    prog;
  let t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name o ->
      Hashtbl.replace t name
        { vars = Hashtbl.copy o.vars; subs = Hashtbl.copy o.subs; types = Hashtbl.copy o.types })
    own;
  List.iter
    (fun (mu : Ast.module_unit) ->
      Option.iter
        (fun sc ->
          List.iter
            (fun (u : Ast.use_stmt) ->
              Option.iter (fun src -> import sc src u) (Hashtbl.find_opt own u.Ast.u_module))
            mu.Ast.m_uses)
        (Hashtbl.find_opt t mu.Ast.m_name))
    prog;
  t

let scope t name =
  match Hashtbl.find_opt t name with
  | Some sc -> sc
  | None -> { vars = Hashtbl.create 1; subs = Hashtbl.create 1; types = Hashtbl.create 1 }

let var sc name = Hashtbl.find_opt sc.vars name
let callables sc name = Option.value ~default:[] (Hashtbl.find_opt sc.subs name)
let derived_type sc name = Hashtbl.find_opt sc.types name
