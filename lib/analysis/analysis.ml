(* Facade: run the whole static analysis over a program.

   One call builds scopes and interprocedural summaries, then per
   subprogram a CFG, def/use facts, the reaching-definitions and liveness
   fixed points, and the lint diagnostics.  The result also answers the
   two integration questions the rest of the pipeline asks: which
   metagraph nodes are statically dead (for pruning before slicing) and
   whether the independently derived def-use pairs agree with the
   metagraph (the differential oracle). *)

module Obs = Rca_obs.Obs
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

let analyze ?(strict_types = false) (prog : Rca_fortran.Ast.program) : t =
  Obs.span' "analysis.analyze"
    (fun t ->
      [
        ("subprograms", Obs.Int (List.length t.subs));
        ("diagnostics", Obs.Int (List.length t.diags));
      ])
  @@ fun () ->
  let resolution = Obs.span "analysis.resolve" @@ fun () -> Resolve.program prog in
  let program_scope =
    Obs.span "analysis.scopes" @@ fun () -> Scope.of_program ~resolution prog
  in
  let summaries =
    Obs.span "analysis.summaries" @@ fun () -> Scope.compute_summaries program_scope
  in
  let subs =
    Obs.span "analysis.dataflow" @@ fun () ->
    List.concat_map
      (fun (mu : Rca_fortran.Ast.module_unit) ->
        List.map
          (fun (s : Rca_fortran.Ast.subprogram) ->
            let sa_scope =
              Scope.of_subprogram program_scope summaries ~module_:mu.Rca_fortran.Ast.m_name s
            in
            let sa_cfg = Cfg.build s in
            let facts = Defuse.of_cfg sa_scope sa_cfg in
            let sa_flow = Dataflow.solve sa_scope sa_cfg facts in
            Obs.incr "analysis.subprograms";
            Obs.incr ~by:(Cfg.n_blocks sa_cfg) "analysis.blocks";
            {
              sa_module = mu.Rca_fortran.Ast.m_name;
              sa_name = s.Rca_fortran.Ast.s_name;
              sa_scope;
              sa_cfg;
              sa_flow;
            })
          mu.Rca_fortran.Ast.m_subprograms)
      prog
  in
  let diags =
    Obs.span "analysis.diagnostics" @@ fun () ->
    List.concat_map (fun sa -> Diagnostics.of_sub sa.sa_flow) subs
  in
  let strict_diags =
    if not strict_types then []
    else
      let ty =
        Obs.span "analysis.typecheck" @@ fun () ->
        List.concat_map (fun sa -> Typecheck.of_sub sa.sa_scope) subs
      in
      let calls =
        Obs.span "analysis.callcheck" @@ fun () ->
        List.concat_map (fun sa -> Callcheck.of_sub sa.sa_scope) subs
      in
      ty @ calls
  in
  let diags = Diagnostics.sort_diags (diags @ strict_diags) in
  Obs.incr ~by:(List.length diags) "analysis.diagnostics";
  { program_scope; resolution; summaries; subs; diags; strict_types }

let find_sub t ~module_ ~sub =
  List.find_opt (fun sa -> sa.sa_module = module_ && sa.sa_name = sub) t.subs

(* ---- static dead nodes --------------------------------------------------------- *)

(* Metagraph keys of variables whose value is provably irrelevant: never
   read anywhere in their subprogram (not even by a havoc site) and not
   escaping it.  Such a variable's node can only have incoming edges, so
   dropping it cannot change any backward slice. *)
let dead_var_keys (t : t) : (string * string * string) list =
  List.concat_map
    (fun sa ->
      let used = Dataflow.used_vars sa.sa_flow in
      List.filter_map
        (fun (v : Scope.var) ->
          if
            (not (Scope.escapes v))
            && (not (Dataflow.bs_get used v.Scope.v_id))
            && Dataflow.var_defined sa.sa_flow v
          then Some (Scope.metagraph_key sa.sa_scope v)
          else None)
        (Scope.vars sa.sa_scope))
    t.subs
  |> List.sort_uniq compare

(* The same set resolved against a concrete metagraph, ready for
   [Pipeline.run ?static_dead] (which re-checks out-degree and target
   membership before actually pruning). *)
let dead_node_ids (t : t) (mg : MG.t) : int list =
  List.filter_map
    (fun (module_, sub, name) -> MG.find_node mg ~module_ ~sub ~name)
    (dead_var_keys t)
  |> List.sort_uniq compare

(* ---- oracle -------------------------------------------------------------------- *)

let check_oracle (t : t) (mg : MG.t) : Oracle.report = Oracle.check t.program_scope mg

(* ---- report -------------------------------------------------------------------- *)

(* The stable lint report; when an oracle report is supplied its summary
   is embedded under "oracle". *)
let report_json ?oracle (t : t) =
  let module J = Rca_obs.Jsonio in
  let extra =
    ("subprograms", J.num (List.length t.subs))
    :: ("symbols", J.num (Resolve.n_symbols t.resolution))
    :: ("strict_types", J.Bool t.strict_types)
    ::
    (match oracle with Some r -> [ ("oracle", Oracle.summary_json r) ] | None -> [])
  in
  Diagnostics.report_json ~extra t.diags

let errors t = List.filter (fun d -> d.Diagnostics.severity = Diagnostics.Error) t.diags
