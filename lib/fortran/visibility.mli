(** Which module-level names each module of a program sees (paper
    Section 4.2): the one copy of the use-association rules that the
    metagraph builder and the interpreter share.

    A module sees its own variables, subprograms, named interfaces and
    derived types, plus what its use-statements import.  A use-statement
    follows its [only] list and [local => remote] renames, and takes only
    names the source module declares itself: chained use is not followed.
    An import replaces a same-named own declaration, and a later
    use-statement replaces an earlier one.  Using a module that is not in
    the program imports nothing (the build filter may have dropped it). *)

type callable = { c_module : string; c_sub : Ast.subprogram }
(** One candidate procedure: its defining module and its definition. *)

val is_intrinsic : string -> bool
(** Whether a name is one of the subset's intrinsic functions. *)

type scope = {
  vars : (string, string * string) Hashtbl.t;
      (** visible name -> (owner module, declared name) *)
  subs : (string, callable list) Hashtbl.t;
      (** visible name -> candidate procedures, in declaration order *)
  types : (string, Ast.derived_type_def) Hashtbl.t;
}
(** The names one module sees.  Read-only once built. *)

type t

val of_program : Ast.program -> t

val scope : t -> string -> scope
(** What the named module sees; empty for a module not in the program. *)

val var : scope -> string -> (string * string) option
(** The module variable a name denotes: (owner module, declared name). *)

val callables : scope -> string -> callable list
(** Candidate procedures a name denotes; [[]] when none. *)

val derived_type : scope -> string -> Ast.derived_type_def option
