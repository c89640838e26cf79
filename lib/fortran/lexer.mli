(** Tokenizer for one logical Fortran line.  Fortran is case-insensitive:
    identifiers are lowercased here, once, so every later stage compares
    names directly. *)

type token =
  | Ident of string
  | Inum of int
  | Rnum of float
  | Str of string
  | Op of string  (** punctuation and operators, e.g. ["+"], ["::"], ["=>"] *)
  | Dotop of string
      (** [.and. .or. .not. .true. .false. .eq.] ... — the payload between
          the dots *)

exception Lex_error of string

val is_ident_char : char -> bool

val token_to_string : token -> string

val tokenize : string -> token list
(** Tokenize one logical line.  Raises {!Lex_error} on characters outside
    the supported subset. *)
