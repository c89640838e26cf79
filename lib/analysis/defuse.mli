(* Per-instruction def/use facts.

   Each CFG instruction yields the variables it reads (uses) and writes
   (defs), resolved through {!Scope}.  Defs are [strong] when they
   certainly overwrite the whole variable; only strong defs kill in
   reaching definitions and only strong defs can be reported as dead
   stores.  Uses are [reportable] when a diagnostic may be attached to
   them: havoc uses from [Unparsed] statements and unknown procedures
   keep values live but produce no reports. *)

type origin =
  | From_assign  (* scalar / array / member assignment lhs *)
  | From_loop  (* do-header index variable *)
  | From_call  (* actual argument written by a callee *)
  | From_havoc  (* unparsed statement or unknown procedure *)

type use_site = { u_var : Scope.var; u_line : int; u_reportable : bool }

type def_site = { d_var : Scope.var; d_line : int; d_strong : bool; d_origin : origin }

type fact = { uses : use_site list; defs : def_site list }

(* Facts for a whole CFG, indexed like [cfg.blocks]. *)
val of_cfg : Scope.sub_scope -> Cfg.t -> fact array array
