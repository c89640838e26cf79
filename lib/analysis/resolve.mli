(* Typed symbol resolution: the renamer underneath the whole analysis
   layer.

   Every declared entity of the program — module variables, dummy
   arguments, locals, function results, subprograms, derived types and
   their fields — receives one global symbol with def-site provenance
   (file, line) and a declared type (base type + array rank).  Name
   visibility reproduces the metagraph builder's rules exactly:
   subprogram scope (formals, declared locals, the function-result name —
   which for a subroutine is the subprogram's own name) hides module
   scope; module scope holds the module's own variables plus
   use-associated imports honouring [only] lists and [local => remote]
   renames, with no transitive chaining.  Names that resolve nowhere fall
   back to Fortran implicit typing (first letter i..n integer, otherwise
   real) and are interned as [Simplicit] symbols scoped to the
   referencing subprogram; [program] pre-walks every statement so the
   implicit population is complete and deterministic on return. *)

open Rca_fortran

(* ---- types ---- *)

type ty = { elem : Ast.type_spec; rank : int }

val ty_scalar : Ast.type_spec -> ty

(* FORTRAN implicit typing: I-N integer, everything else real; rank 0. *)
val implicit_ty : string -> ty

val ty_str : ty -> string

(* ---- symbols ---- *)

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

type t

(* Build the symbol table for a whole program (four passes: module own
   names, use-association, subprogram scopes, occurrence pre-walk). *)
val program : Ast.program -> t

val n_symbols : t -> int

(* Raises [Invalid_argument] on an out-of-range id. *)
val symbol : t -> int -> symbol

val symbols : t -> symbol list

(* Sentinel id (-1) for diagnostics that could not be attributed. *)
val no_symbol : int

(* ---- lookups ---- *)

val module_var : t -> module_:string -> string -> symbol option
val lookup_local : t -> module_:string -> sub:string -> string -> symbol option

(* Metagraph visibility priority: subprogram scope first (formals,
   locals, the result name), then module scope.  Interned implicits do
   NOT count: this is the metagraph builder's [is_variable]. *)
val lookup_var : t -> module_:string -> sub:string -> string -> symbol option

(* Candidate (module, subprogram) keys a callable name resolves to. *)
val callables : t -> module_:string -> string -> (string * string) list

val sub_symbol : t -> module_:string -> string -> symbol option
val field_symbol : t -> type_name:string -> string -> symbol option

(* Intern (or fetch) the implicitly-typed symbol for an undeclared name;
   idempotent per (module, sub, name), def site = first referencing line. *)
val intern_implicit : t -> module_:string -> sub:string -> line:int -> string -> symbol

(* Full occurrence resolution with the implicit fallback. *)
val resolve_var : t -> module_:string -> sub:string -> line:int -> string -> symbol

(* Member chains resolve to one atomic symbol per (base, final field);
   typed field lookup when the base's declared type is a known derived
   type, implicit member symbol otherwise. *)
val resolve_member :
  t -> module_:string -> sub:string -> line:int -> base:string -> string -> symbol

val implicits_of_sub : t -> module_:string -> sub:string -> symbol list

(* ---- property-test support ---- *)

(* A line-number-free structural signature: re-resolving a
   pretty-printed-then-reparsed program must produce the same one. *)
val signature : t -> (string * string * string * string * string option) list
