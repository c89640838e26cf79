(** Free-form Fortran source handling: comment stripping, [&] continuation
    joining, and logical-line numbering.  Every downstream stage (lexer,
    coverage, bug injection) works with logical lines produced here. *)

type logical_line = {
  text : string;  (** joined statement text, comments stripped *)
  line : int;  (** 1-based physical line number of the first fragment *)
}

val logical_lines : string -> logical_line list
(** Split a file's text into logical lines: comments stripped, [&]
    continuations joined, blank lines dropped. *)

val count_physical_lines : string -> int

val count_code_lines : string -> int
(** Physical lines that carry code (not blank, not comment-only). *)
