(** Pretty-printer from the AST back to free-form Fortran source.  The
    output re-parses to the same AST (modulo line numbers and [Unparsed]
    text), which the synthetic-model generator and the round-trip tests
    rely on. *)

open Ast

val expr_str : ?ctx:int -> expr -> string
(** Render an expression, parenthesizing according to the enclosing
    precedence [ctx] (0 = statement position). *)

val module_to_string : module_unit -> string
val program_to_string : program -> string
