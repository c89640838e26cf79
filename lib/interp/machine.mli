(** Interpreter for the Fortran subset — the stand-in for "running CESM
    on the supercomputer".  Each subprogram is translated on its first
    call into closures over resolved slots; module-level names resolve
    through {!Rca_fortran.Visibility}, as in the metagraph builder.
    [prng] drives [random_number] (the RAND-MT experiment), {!set_fma}
    contracts a*b+c per module (the AVX2 experiments), and [hooks]
    observe execution (coverage, runtime sampling, kernel capture). *)

exception Runtime_error of string

type arr = { dims : int array; data : float array }

type value =
  | Vreal of float
  | Vint of int
  | Vlog of bool
  | Vstr of string
  | Varr of arr
  | Vderived of (string, value ref) Hashtbl.t

val copy_value : value -> value
(** Deep copy (arrays and derived components included). *)

type module_rt = {
  unit_ : Rca_fortran.Ast.module_unit;
  vars : (string, value ref) Hashtbl.t;  (** visible cells: own + imported *)
  own_vars : (string, value ref) Hashtbl.t;
      (** cells of the module's own declarations, hidden ones included *)
  visible_subs : (string, Rca_fortran.Visibility.callable list) Hashtbl.t;
  visible_types : (string, Rca_fortran.Ast.derived_type_def) Hashtbl.t;
  mutable fma : bool;  (** contract a*b+c in this module's subprograms *)
}

type hooks = {
  mutable on_stmt : (string -> string -> int -> unit) option;
      (** fired before each statement with (module, subprogram, line) *)
  mutable on_assign :
    (module_:string -> sub:string -> line:int -> var:string -> canonical:string ->
     float -> unit)
    option;
      (** fired after each assignment — and after each formal-argument
          binding — with the written value (elements and scalars) or the
          array L2 norm *)
  mutable on_call : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
      (** subprogram entry, formals bound, locals not yet allocated *)
  mutable on_return : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
      (** subprogram exit with the full locals table *)
  mutable on_outfld : (string -> float -> unit) option;
}

type code
(** One subprogram translated for one machine. *)

type t = {
  modules : (string, module_rt) Hashtbl.t;
  mutable prng : Rca_rng.Prng.t;
  hooks : hooks;
  history : (string, float) Hashtbl.t;  (** outfld label -> last value *)
  print_log : Buffer.t;
  mutable steps : int;  (** statements executed *)
  mutable max_steps : int;
  codes : (string * string, (Rca_fortran.Ast.subprogram * code) list) Hashtbl.t;
      (** translations, by (module, subprogram) *)
  mutable generation : int;  (** bumped by {!set_fma}: older translations are stale *)
  mutable elaborating : bool;  (** module initializers are running; nothing is kept *)
}

val create : ?prng:Rca_rng.Prng.t -> ?max_steps:int -> Rca_fortran.Ast.program -> t
(** Elaborate the program's modules in use-dependency order: resolve
    names through {!Rca_fortran.Visibility} (an import hides a
    same-named declaration), initialize module variables (parameters
    evaluated, arrays zeroed, derived types instantiated; a derived type
    the module cannot see is a {!Runtime_error}). *)

val invoke : t -> module_:string -> sub:string -> args:value list -> value
(** Call a subprogram with interpreter-level values (scalars by value; use
    module variables to pass state).  Functions return their result;
    subroutines return [Vlog false]. *)

val get_module_var : t -> module_:string -> name:string -> value
val set_module_var : t -> module_:string -> name:string -> value -> unit

val history : t -> (string * float) list
val history_value : t -> string -> float option

val printed : t -> string
(** Everything written by [print *] statements. *)

val set_fma : t -> enabled:bool -> disabled:string list -> unit
(** Enable FMA contraction everywhere except [disabled] modules, from the
    next call of each subprogram on (a call in progress keeps its
    flags, as the tree-walker's did). *)
