(* "Compiling the Fortran source into node relationships in a digraph"
   (paper Section 4.2).

   Nodes are variables (module-level, locals, formals, derived-type
   components) with metadata: module, subprogram, line, canonical name.
   Directed edges express "value of X enters the assignment of Y".

   Fortran-specific handling follows the paper:
   - arrays are atomic (indices ignored);
   - derived types use the final component as canonical name
     (elem(ie)%derived%omega_p -> omega_p), scoped to the variable that
     holds the instance;
   - function/array ambiguity is resolved by a hash table of visible
     subprogram names after all files are read;
   - calls map actual arguments onto the callee's formals (intent-aware,
     conservative both-ways when unknown), function results flow back to
     the consuming expression;
   - interfaces conservatively connect every candidate procedure;
   - module-level names resolve through {!Rca_fortran.Visibility}, the
     rules the interpreter runs on too: renames and only-lists, no chained
     use;
   - intrinsics are localized per call site (min_<line>__<module>) to
     avoid spurious global hubs;
   - statements the structured parser left as [Unparsed] go through the
     relaxed fallback chain (split_assignment, then identifier scraping),
     mirroring the paper's three-parser pipeline. *)

open Rca_fortran

type node = {
  canonical : string;
  unique : string;
  module_ : string;
  subprogram : string;  (* "" for module level *)
  line : int;
  synthetic : bool;  (* localized intrinsic / PRNG pseudo-node: not a
                        runtime-instrumentable variable *)
}

type build_stats = {
  mutable assignments_total : int;
  mutable parsed_primary : int;
  mutable parsed_relaxed : int;
  mutable parsed_scraped : int;
  mutable unhandled : int;
}

type t = {
  graph : Rca_graph.Digraph.t;
  mutable node_meta : node array;
  by_key : (string, int) Hashtbl.t;
  by_canonical : (string, int list) Hashtbl.t;
  io_map : (string, string list) Hashtbl.t;  (* outfld name -> canonical names *)
  (* every (module, subprogram, line) whose statement contributed the edge;
     the raw material for the paper's proposed edge-traversal pruning *)
  edge_origins : (int * int, (string * string * int) list) Hashtbl.t;
  stats : build_stats;
}

let edge_origins t u v =
  Option.value ~default:[] (Hashtbl.find_opt t.edge_origins (u, v))

let node t id = t.node_meta.(id)
let n_nodes t = Rca_graph.Digraph.n t.graph

let nodes_with_canonical t name =
  Option.value ~default:[] (Hashtbl.find_opt t.by_canonical name)

let io_internal_names t output =
  Option.value ~default:[] (Hashtbl.find_opt t.io_map output)

(* key builder shared with [get_node]; forward declaration for find_node *)
let node_key ~module_ ~sub ~name = module_ ^ "|" ^ sub ^ "|" ^ name

let find_node t ~module_ ~sub ~name =
  Hashtbl.find_opt t.by_key (node_key ~module_ ~sub ~name)

(* ---- node store ------------------------------------------------------------ *)

type builder = {
  graph : Rca_graph.Digraph.t;
  by_key : (string, int) Hashtbl.t;
  mutable meta : node list;  (* reversed *)
  mutable count : int;
  io : (string, string list) Hashtbl.t;
  origins : (int * int, (string * string * int) list) Hashtbl.t;
  st : build_stats;
}

let key = node_key

let get_node ?(synthetic = false) b ~module_ ~sub ~name ~canonical ~line =
  let k = key ~module_ ~sub ~name in
  match Hashtbl.find_opt b.by_key k with
  | Some id -> id
  | None ->
      let id = Rca_graph.Digraph.add_node b.graph in
      assert (id = b.count);
      let scope = if sub = "" then module_ else sub in
      b.meta <-
        { canonical; unique = canonical ^ "__" ^ scope; module_; subprogram = sub; line;
          synthetic }
        :: b.meta;
      b.count <- b.count + 1;
      Hashtbl.replace b.by_key k id;
      id

(* ---- per-subprogram resolution ------------------------------------------------ *)

type sctx = {
  b : builder;
  module_ : string;
  scope : Visibility.scope;  (* what [module_] sees *)
  sub : string;  (* "" at module level *)
  locals : (string, unit) Hashtbl.t;
  mutable line : int;
}

(* Insert a dependency edge, recording the originating statement. *)
let add_dep ctx src dst =
  Rca_graph.Digraph.add_edge ctx.b.graph src dst;
  let k = (src, dst) in
  let origin = (ctx.module_, ctx.sub, ctx.line) in
  let cur = Option.value ~default:[] (Hashtbl.find_opt ctx.b.origins k) in
  if not (List.mem origin cur) then Hashtbl.replace ctx.b.origins k (origin :: cur)

let resolve_var ctx name =
  if Hashtbl.mem ctx.locals name then
    get_node ctx.b ~module_:ctx.module_ ~sub:ctx.sub ~name ~canonical:name
      ~line:ctx.line
  else
    match Visibility.var ctx.scope name with
    | Some (src_mod, src_name) ->
        get_node ctx.b ~module_:src_mod ~sub:"" ~name:src_name ~canonical:src_name
          ~line:ctx.line
    | None ->
        (* undeclared: treat as a local of the current scope *)
        get_node ctx.b ~module_:ctx.module_ ~sub:ctx.sub ~name ~canonical:name
          ~line:ctx.line

(* Scope (module, sub) in which a derived-type component node should live:
   the scope of the base variable holding the instance. *)
let member_node ctx base_name component =
  let module_, sub =
    if Hashtbl.mem ctx.locals base_name then (ctx.module_, ctx.sub)
    else
      match Visibility.var ctx.scope base_name with
      | Some (src_mod, _) -> (src_mod, "")
      | None -> (ctx.module_, ctx.sub)
  in
  get_node ctx.b ~module_ ~sub ~name:(base_name ^ "%" ^ component) ~canonical:component
    ~line:ctx.line

let is_variable ctx name =
  Hashtbl.mem ctx.locals name || Hashtbl.mem ctx.scope.Visibility.vars name

let callables ctx name = Visibility.callables ctx.scope name

(* ---- expressions ----------------------------------------------------------------- *)

(* Returns the source nodes of an expression; emits call edges as a side
   effect. *)
let rec expr_sources ctx (e : Ast.expr) : int list =
  match e with
  | Ast.Enum _ | Ast.Eint _ | Ast.Elogical _ | Ast.Estring _ -> []
  | Ast.Eun (_, e) -> expr_sources ctx e
  | Ast.Ebin (_, a, b) -> expr_sources ctx a @ expr_sources ctx b
  | Ast.Erange (a, b) ->
      Option.fold ~none:[] ~some:(expr_sources ctx) a
      @ Option.fold ~none:[] ~some:(expr_sources ctx) b
  | Ast.Edesig d -> desig_sources ctx d

and desig_sources ctx (d : Ast.designator) : int list =
  match d with
  | Ast.Dname n -> if is_variable ctx n then [ resolve_var ctx n ] else [ resolve_var ctx n ]
  | Ast.Dmember (base, field) ->
      ignore (desig_sources_base_indices ctx base);
      [ member_node ctx (Ast.designator_base base) (member_canonical base field) ]
  | Ast.Dindex (Ast.Dname n, args) ->
      if is_variable ctx n then
        (* array reference: indices are ignored (arrays are atomic) *)
        [ resolve_var ctx n ]
      else if callables ctx n <> [] then function_call_sources ctx n args
      else if Visibility.is_intrinsic n then intrinsic_sources ctx n args
      else [ resolve_var ctx n ]
  | Ast.Dindex (base, _args) ->
      (* indexed member chain, e.g. state%q(i,k): atomic member node *)
      desig_sources ctx base

(* canonical of a member chain ending in [field] *)
and member_canonical _base field = field

and desig_sources_base_indices _ctx _base = []

(* f(args): map argument sources onto every candidate's formals and
   return every candidate's result node (conservative interface
   handling). *)
and function_call_sources ctx name args : int list =
  let cands = callables ctx name in
  List.concat_map
    (fun c ->
      let formals = c.Visibility.c_sub.Ast.s_args in
      let n = min (List.length formals) (List.length args) in
      List.iteri
        (fun i formal ->
          if i < n then begin
            let actual = List.nth args i in
            let srcs = expr_sources ctx actual in
            let fnode =
              get_node ctx.b ~module_:c.c_module ~sub:c.c_sub.Ast.s_name ~name:formal
                ~canonical:formal ~line:ctx.line
            in
            List.iter (fun s -> add_dep ctx s fnode) srcs
          end)
        formals;
      match c.c_sub.Ast.s_kind with
      | Ast.Function ->
          let rname = Ast.function_result_name c.c_sub in
          [ get_node ctx.b ~module_:c.c_module ~sub:c.c_sub.Ast.s_name ~name:rname
              ~canonical:rname ~line:ctx.line ]
      | Ast.Subroutine -> [])
    cands

(* Intrinsics are localized to the call line: min_100__modname, so that
   min/max do not become spurious global hubs. *)
and intrinsic_sources ctx name args : int list =
  let node_name = Printf.sprintf "%s_%d" name ctx.line in
  let inode =
    get_node ~synthetic:true ctx.b ~module_:ctx.module_ ~sub:ctx.sub
      ~name:node_name ~canonical:node_name ~line:ctx.line
  in
  List.iter
    (fun a -> List.iter (fun s -> add_dep ctx s inode) (expr_sources ctx a))
    args;
  [ inode ]

(* ---- statements --------------------------------------------------------------------- *)

let lhs_node ctx (d : Ast.designator) : int =
  match d with
  | Ast.Dname n -> resolve_var ctx n
  | Ast.Dindex (Ast.Dname n, _) -> resolve_var ctx n
  | Ast.Dmember (base, field) -> member_node ctx (Ast.designator_base base) field
  | Ast.Dindex (Ast.Dmember (base, field), _) ->
      member_node ctx (Ast.designator_base base) field
  | Ast.Dindex (inner, _) -> (
      match inner with
      | Ast.Dname n -> resolve_var ctx n
      | _ -> member_node ctx (Ast.designator_base inner) (Ast.designator_canonical inner))

let process_assignment ctx d rhs =
  ctx.b.st.assignments_total <- ctx.b.st.assignments_total + 1;
  ctx.b.st.parsed_primary <- ctx.b.st.parsed_primary + 1;
  let lhs = lhs_node ctx d in
  let srcs = expr_sources ctx rhs in
  List.iter (fun s -> add_dep ctx s lhs) srcs

(* Variable nodes mentioned in an expression, looking *through* function
   calls (into their actual arguments) instead of returning result nodes.
   Used for the outfld label mapping: `outfld('flds', gmean(flwds))` must
   map to flwds, the way the paper's I/O instrumentation resolves labels
   to internal variables.  Pure: adds no edges (the caller also runs the
   normal [expr_sources] pass for the dataflow). *)
let rec expr_variable_nodes ctx (e : Ast.expr) : int list =
  match e with
  | Ast.Enum _ | Ast.Eint _ | Ast.Elogical _ | Ast.Estring _ -> []
  | Ast.Eun (_, e) -> expr_variable_nodes ctx e
  | Ast.Ebin (_, a, b) -> expr_variable_nodes ctx a @ expr_variable_nodes ctx b
  | Ast.Erange (a, b) ->
      Option.fold ~none:[] ~some:(expr_variable_nodes ctx) a
      @ Option.fold ~none:[] ~some:(expr_variable_nodes ctx) b
  | Ast.Edesig d -> (
      match d with
      | Ast.Dname n -> if is_variable ctx n then [ resolve_var ctx n ] else []
      | Ast.Dmember (base, field) ->
          [ member_node ctx (Ast.designator_base base) field ]
      | Ast.Dindex (Ast.Dname n, args) ->
          if is_variable ctx n then [ resolve_var ctx n ]
          else List.concat_map (expr_variable_nodes ctx) args
      | Ast.Dindex (base, _) -> expr_variable_nodes ctx (Ast.Edesig base))

let lhs_assignable ctx d =
  match d with
  | Ast.Dname n | Ast.Dindex (Ast.Dname n, _) -> is_variable ctx n
  | Ast.Dmember _ | Ast.Dindex _ -> true

let process_call ctx name args line =
  match name with
  | "outfld" -> (
      (* I/O instrumentation: record the label -> internal-variable
         mapping; node ids are stored as strings and converted to
         canonical names once metadata is frozen *)
      match args with
      | [ Ast.Estring label; value ] ->
          ignore (expr_sources ctx value);
          let vars = expr_variable_nodes ctx value in
          let existing = Option.value ~default:[] (Hashtbl.find_opt ctx.b.io label) in
          Hashtbl.replace ctx.b.io label
            (List.sort_uniq compare (existing @ List.map string_of_int vars))
      | _ -> ())
  | "random_number" -> (
      match args with
      | [ Ast.Edesig d ] ->
          let inode =
            get_node ~synthetic:true ctx.b ~module_:ctx.module_ ~sub:ctx.sub
              ~name:(Printf.sprintf "random_number_%d" line)
              ~canonical:(Printf.sprintf "random_number_%d" line)
              ~line
          in
          let target = lhs_node ctx d in
          add_dep ctx inode target
      | _ -> ())
  | _ ->
      let cands = callables ctx name in
      List.iter
        (fun c ->
          let formals = c.Visibility.c_sub.Ast.s_args in
          let n = min (List.length formals) (List.length args) in
          List.iteri
            (fun i formal ->
              if i < n then begin
                let actual = List.nth args i in
                let fnode =
                  get_node ctx.b ~module_:c.c_module ~sub:c.c_sub.Ast.s_name ~name:formal
                    ~canonical:formal ~line:ctx.line
                in
                let intent =
                  List.find_opt (fun dd -> dd.Ast.d_name = formal) c.c_sub.Ast.s_decls
                  |> Option.map (fun dd -> dd.Ast.d_intent)
                  |> Option.join
                in
                match actual with
                | Ast.Edesig d when lhs_assignable ctx d -> (
                    let anode = lhs_node ctx d in
                    match intent with
                    | Some Ast.In -> add_dep ctx anode fnode
                    | Some Ast.Out -> add_dep ctx fnode anode
                    | Some Ast.Inout | None ->
                        add_dep ctx anode fnode;
                        add_dep ctx fnode anode)
                | e ->
                    let srcs = expr_sources ctx e in
                    List.iter (fun s -> add_dep ctx s fnode) srcs
              end)
            formals)
        cands

let process_unparsed ctx raw =
  ctx.b.st.assignments_total <- ctx.b.st.assignments_total + 1;
  match Relaxed.split_assignment raw with
  | Some r ->
      ctx.b.st.parsed_relaxed <- ctx.b.st.parsed_relaxed + 1;
      let lhs =
        if r.Relaxed.lhs_canonical <> r.Relaxed.lhs_base then
          member_node ctx r.Relaxed.lhs_base r.Relaxed.lhs_canonical
        else resolve_var ctx r.Relaxed.lhs_base
      in
      List.iter
        (fun id ->
          if is_variable ctx id then
            add_dep ctx (resolve_var ctx id) lhs)
        r.Relaxed.rhs_identifiers
  | None -> (
      match Relaxed.scrape_identifiers raw with
      | lhs_id :: rest when rest <> [] && is_variable ctx lhs_id ->
          ctx.b.st.parsed_scraped <- ctx.b.st.parsed_scraped + 1;
          let lhs = resolve_var ctx lhs_id in
          List.iter
            (fun id ->
              if is_variable ctx id then
                add_dep ctx (resolve_var ctx id) lhs)
            rest
      | _ -> ctx.b.st.unhandled <- ctx.b.st.unhandled + 1)

let rec process_stmt ctx (st : Ast.stmt) =
  ctx.line <- st.Ast.line;
  match st.Ast.node with
  | Ast.Assign (d, rhs) -> process_assignment ctx d rhs
  | Ast.Call (name, args) -> process_call ctx name args st.Ast.line
  | Ast.If (branches, els) ->
      (* control flow is ignored (static backward slice), bodies are not *)
      List.iter (fun (_, body) -> List.iter (process_stmt ctx) body) branches;
      List.iter (process_stmt ctx) els
  | Ast.Do { body; _ } -> List.iter (process_stmt ctx) body
  | Ast.Do_while (_, body) -> List.iter (process_stmt ctx) body
  | Ast.Select (_, cases, default) ->
      List.iter (fun (_, body) -> List.iter (process_stmt ctx) body) cases;
      List.iter (process_stmt ctx) default
  | Ast.Unparsed raw -> process_unparsed ctx raw
  | Ast.Return | Ast.Exit_loop | Ast.Cycle | Ast.Stop | Ast.Print _ -> ()

(* ---- build -------------------------------------------------------------------------- *)

let build (prog : Ast.program) : t =
  let vis = Visibility.of_program prog in
  let b =
    {
      graph = Rca_graph.Digraph.create ~size_hint:1024 ();
      by_key = Hashtbl.create 4096;
      meta = [];
      count = 0;
      io = Hashtbl.create 64;
      origins = Hashtbl.create 4096;
      st =
        {
          assignments_total = 0;
          parsed_primary = 0;
          parsed_relaxed = 0;
          parsed_scraped = 0;
          unhandled = 0;
        };
    }
  in
  List.iter
    (fun (mu : Ast.module_unit) ->
      let module_ = mu.Ast.m_name in
      let scope = Visibility.scope vis module_ in
      List.iter
        (fun (s : Ast.subprogram) ->
          let locals = Hashtbl.create 32 in
          List.iter (fun a -> Hashtbl.replace locals a ()) s.Ast.s_args;
          List.iter (fun (d : Ast.decl) -> Hashtbl.replace locals d.Ast.d_name ()) s.Ast.s_decls;
          Hashtbl.replace locals (Ast.function_result_name s) ();
          let ctx = { b; module_; scope; sub = s.Ast.s_name; locals; line = s.Ast.s_line } in
          List.iter (process_stmt ctx) s.Ast.s_body)
        mu.Ast.m_subprograms)
    prog;
  let node_meta = Array.of_list (List.rev b.meta) in
  let by_canonical = Hashtbl.create 1024 in
  Array.iteri
    (fun id nd ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_canonical nd.canonical) in
      Hashtbl.replace by_canonical nd.canonical (id :: cur))
    node_meta;
  (* io map: stored node ids as strings during the build; convert to
     canonical names now that metadata is frozen *)
  let io_map = Hashtbl.create 64 in
  Hashtbl.iter
    (fun label ids ->
      let names =
        List.filter_map
          (fun s ->
            match int_of_string_opt s with
            | Some id when id < Array.length node_meta -> Some node_meta.(id).canonical
            | _ -> None)
          ids
        |> List.sort_uniq compare
      in
      Hashtbl.replace io_map label names)
    b.io;
  {
    graph = b.graph;
    node_meta;
    by_key = b.by_key;
    by_canonical;
    io_map;
    edge_origins = b.origins;
    stats = b.st;
  }
