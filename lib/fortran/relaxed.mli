(** The relaxed fallback parsers of paper Section 4.2: when the real
    parser fails on a statement, stage two splits it on the top-level [=]
    and stage three scrapes identifiers out of the raw text.  Both trade
    precision for never rejecting a line. *)

val keywords : string list
(** Fortran keywords excluded from scraped identifier lists. *)

val is_ident_char : char -> bool

val scrape_identifiers : string -> string list
(** Stage three: every identifier-shaped token in the text, in order of
    first occurrence, duplicates and {!keywords} removed.  Skips string
    literals and numeric suffixes like [1.0e-3_r8]. *)

type relaxed_assignment = {
  lhs_base : string;  (** root variable of the left-hand side *)
  lhs_canonical : string;  (** final derived-type component, index-free *)
  rhs_identifiers : string list;
}

val split_assignment : string -> relaxed_assignment option
(** Stage two: split on the top-level [=], take the lhs designator's base
    and canonical names, and scrape the rhs for identifiers.  [None] when
    the text is not assignment-shaped. *)
