(** Recursive-descent parser for the Fortran subset of {!Ast}.

    The parser is deliberately forgiving: in non-strict mode a statement
    it cannot handle becomes {!Ast.Unparsed} instead of an error, so a
    whole model always parses.  The relaxed fallback chain over
    [Unparsed] text lives in {!Relaxed}. *)

exception Parse_error of string * int
(** Message and 1-based physical line number. *)

val parse_file : ?strict:bool -> file:string -> string -> Ast.module_unit list
(** Parse one source file into its modules.  [strict] (default [false])
    controls whether statement-level failures raise {!Parse_error} or
    degrade to {!Ast.Unparsed}.  Any other malformed line — a
    declaration, an interface body, broken block structure, or a line
    the lexer rejects — raises {!Parse_error} in either mode. *)

val parse_expression : string -> Ast.expr
(** Parse a single expression from a string.  Raises {!Parse_error} on
    malformed input or trailing tokens. *)

val parse_statement : ?strict:bool -> string -> Ast.stmt
(** Parse a single statement from one logical line of text ([strict]
    defaults to [true] here — tests want failures loud). *)
