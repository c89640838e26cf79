(* Facade: run the whole static analysis over a program.

   One call builds the symbol table, scopes and interprocedural
   summaries, then per subprogram a CFG, def/use facts, the
   reaching-definitions and liveness fixed points, and the lint
   diagnostics.  With [~strict_types:true] the resolver-backed type
   checker ({!Typecheck}) and call-contract checker ({!Callcheck}) run
   too.  The result also answers the two integration questions the rest
   of the pipeline asks: which metagraph nodes are statically dead (for
   pruning before slicing) and whether the independently derived def-use
   pairs agree with the metagraph (the differential oracle). *)

module MG = Rca_metagraph.Metagraph

type sub_analysis = {
  sa_module : string;
  sa_name : string;
  sa_scope : Scope.sub_scope;
  sa_cfg : Cfg.t;
  sa_flow : Dataflow.t;
}

type t = {
  program_scope : Scope.program_scope;
  resolution : Resolve.t;
  summaries : Scope.summaries;
  subs : sub_analysis list;
  diags : Diagnostics.diag list;
  strict_types : bool;
}

val analyze : ?strict_types:bool -> Rca_fortran.Ast.program -> t

val find_sub : t -> module_:string -> sub:string -> sub_analysis option

(* Metagraph keys of variables whose value is provably irrelevant. *)
val dead_var_keys : t -> (string * string * string) list

(* The same set resolved against a concrete metagraph, ready for
   [Pipeline.run ?static_dead]. *)
val dead_node_ids : t -> MG.t -> int list

val check_oracle : t -> MG.t -> Oracle.report

(* The stable lint report; when an oracle report is supplied its summary
   is embedded under "oracle". *)
val report_json : ?oracle:Oracle.report -> t -> Rca_obs.Jsonio.t

val errors : t -> Diagnostics.diag list
