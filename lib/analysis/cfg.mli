(* Per-subprogram control-flow graph.

   Basic blocks hold straight-line instructions; structured control
   (if/elseif chains, counted and while loops, select case) becomes block
   edges.  Loops conservatively admit zero trips, `exit`/`cycle`/
   `return`/`stop` divert flow, and statements after a diverting
   statement start a fresh predecessor-less block so reachability
   analysis can flag them. *)

open Rca_fortran

type instr =
  | Simple of Ast.stmt  (* Assign / Call / Print / Unparsed *)
  | Cond of Ast.expr * int  (* if / do-while condition and its line *)
  | Do_header of {
      dvar : string;
      dlo : Ast.expr;
      dhi : Ast.expr;
      dstep : Ast.expr option;
      dline : int;
    }
  | Select_header of { selector : Ast.expr; case_values : Ast.expr list; sline : int }

type t = {
  blocks : instr array array;  (* per block, execution order *)
  succ : int list array;
  pred : int list array;
  entry : int;
  exit_ : int;
  reachable : bool array;  (* from entry *)
}

val n_blocks : t -> int
val build : Ast.subprogram -> t

(* First line of every instruction sitting in a block unreachable from
   the entry. *)
val unreachable_lines : t -> int list

val n_instrs : t -> int
