(* Type and kind inference over the resolved AST.

   Every expression gets a best-effort {!Resolve.ty}; the checker flags
   assignments and operands whose types cannot agree under any reading of
   F90's conversion rules.  [None] means "unknown" and unknown never
   produces a diagnostic — intrinsic results, elemental function
   references and [Unparsed] statements stay unknown, so only
   contradictions between two *declared* types are reported.  The pass
   also reports [Undeclared_implicit] for names resolved only through the
   implicit-typing fallback. *)

open Rca_fortran

(* Integer and real interconvert; logical, character and each named
   derived type are rigid. *)
val compatible : Resolve.ty -> Resolve.ty -> bool

(* First variable mentioned by an expression, for diagnostic attribution. *)
val first_var : Scope.sub_scope -> Ast.expr -> Scope.var option

(* Inference without diagnostics, for {!Callcheck} and tests. *)
val expr_ty : Scope.sub_scope -> line:int -> Ast.expr -> Resolve.ty option

val of_sub : Scope.sub_scope -> Diagnostics.diag list
