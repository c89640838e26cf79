(* Name resolution for the static analyzer, layered on {!Resolve}.

   Every dataflow variable carries the symbol id of the declaration it
   refers to, so shadowing, renames and implicit typing are decided once,
   in the resolver, and the bitvector dataflow / diagnostics / oracle
   layers all agree on what a name means; callable candidates are
   {!Resolve.callables} too.  On top of the symbol table this module
   keeps syntactic read/write summaries per formal and the per-subprogram
   dense variable ids the bitvectors run on. *)

open Rca_fortran

(* ---- program-level scopes ---- *)

type program_scope = {
  prog : Ast.program;
  ps_res : Resolve.t;
  ps_subs : (string * string, Ast.subprogram) Hashtbl.t;
      (* (module, name) -> the module's first subprogram of that name *)
}

(* [resolution] defaults to [Resolve.program prog]; pass it to share one
   symbol table across the pipeline. *)
val of_program : ?resolution:Resolve.t -> Ast.program -> program_scope

val resolution : program_scope -> Resolve.t

(* Candidate procedures a name denotes in a module: {!Resolve.callables}
   with their definitions. *)
val module_callables :
  program_scope -> module_:string -> string -> Visibility.callable list

(* ---- interprocedural summaries ---- *)

(* Per formal: does the callee's body (syntactically) read or write it?
   A refinement of declared intent, never a relaxation below it. *)
type formal_summary = { fs_reads : bool; fs_writes : bool }

type summaries = (string * string, (string, formal_summary) Hashtbl.t) Hashtbl.t

val compute_summaries : program_scope -> summaries
val formal_summary : summaries -> Visibility.callable -> string -> formal_summary option

(* ---- per-subprogram variable tables ---- *)

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

val n_vars : sub_scope -> int
val vars : sub_scope -> var list
val find_var : sub_scope -> string -> var option

val of_subprogram :
  program_scope -> summaries -> module_:string -> Ast.subprogram -> sub_scope

(* Resolve a plain name in expression or lhs position, creating module /
   implicit vars on first reference. *)
val resolve : sub_scope -> string -> int -> var

(* Member chains: one atomic variable per (base, final component), named
   "base%component" like the metagraph's member nodes. *)
val resolve_member : sub_scope -> string -> string -> int -> var

val is_declared_var : sub_scope -> string -> bool

(* Exactly the metagraph builder's [is_variable]: declared in this
   subprogram (formal, local, result — including the result-name quirk)
   or visible as a module variable.  Interned implicits do NOT count. *)
val is_metagraph_variable : sub_scope -> string -> bool

val callables : sub_scope -> string -> Visibility.callable list

(* Does the variable's value survive the subprogram? *)
val escapes : var -> bool

(* Initialized before the first statement runs? *)
val initialized_at_entry : var -> bool

(* The (module, subprogram, name) triple under which the metagraph stores
   this variable's node — [Metagraph.find_node]'s key. *)
val metagraph_key : sub_scope -> var -> string * string * string
