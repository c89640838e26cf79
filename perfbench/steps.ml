(* The user paths of the program, split into the public calls they are made
   of so that the traced runs can time each layer from here.  Each function
   reproduces one library entry point step for step — [fixture] is
   Fixture.make, [select] is Harness.select_affected, [harness_run] is
   Harness.run — and the workloads check that the results are identical
   to the entry point's. *)

open Rca_experiments
open Rca_synth
module MG = Rca_metagraph.Metagraph

(* Obs span names inside Pipeline.run that are layers of their own. *)
let obs_layers =
  [
    ("frozen.freeze", "core.freeze");
    ("slice.of_internals", "core.slice");
    ("gn.step", "graph.gn_step");
    ("greedy.partition", "graph.greedy");
    ("centrality.eigenvector", "graph.eigenvector");
  ]

(* Library counters read from the Obs recorder, summed over a traced run. *)
let obs_counts : (string, int) Hashtbl.t = Hashtbl.create 8

let pipeline f =
  Span.with_ "core.pipeline" (fun () ->
      let v = Span.with_obs ~rename:obs_layers f in
      if !Span.enabled then begin
        let bump k by =
          Hashtbl.replace obs_counts k
            (by + Option.value ~default:0 (Hashtbl.find_opt obs_counts k))
        in
        bump "graph.gn_recomputes" (Rca_obs.Obs.span_count "gn.recompute");
        bump "graph.sources_rescored" (Rca_obs.Obs.counter_value "gn.sources_rescored")
      end;
      v)

let fixture ?(inject = fun s -> s) (config : Config.t) : Fixture.t =
  let clean_sources = Span.with_ "synth.generate" (fun () -> Model.generate config) in
  let exp_sources = inject clean_sources in
  let build sources =
    Span.with_ "fortran.parse" (fun () ->
        Model.build_filter (Model.parse_program ~strict:false sources) ~driver:"cam_driver")
  in
  let clean_program = build clean_sources in
  let exp_program = build exp_sources in
  let coverage_report, covered_program =
    Span.with_ "coverage.probe" (fun () ->
        let cov = Rca_coverage.Coverage.create () in
        let probe_opts = { (Model.default_opts config) with Model.nsteps = 2 } in
        ignore
          (Model.run_machine ~machine_hooks:(Rca_coverage.Coverage.attach cov) exp_program
             probe_opts);
        ( Rca_coverage.Coverage.report exp_program cov,
          Rca_coverage.Coverage.filter_program exp_program cov ))
  in
  let mg = Span.with_ "metagraph.build" (fun () -> MG.build covered_program) in
  let built_names =
    List.map (fun m -> m.Rca_fortran.Ast.m_name) exp_program |> List.sort_uniq compare
  in
  let module_loc =
    List.filter_map
      (fun (file, src) ->
        let name = Fixture.module_name_of_file file in
        if List.mem name built_names then Some (name, Rca_fortran.Source.count_code_lines src)
        else None)
      exp_sources.Model.files
  in
  {
    Fixture.config;
    clean_sources;
    exp_sources;
    clean_program;
    exp_program;
    covered_program;
    coverage_report;
    mg;
    module_loc;
  }

let interp_run program opts = Span.with_ "interp.run" (fun () -> Model.run program opts)

let select (spec : Harness.spec) (p : Harness.params) (fx : Fixture.t) : Harness.selection =
  let ensemble =
    Array.init p.Harness.ensemble_members (fun member ->
        interp_run fx.Fixture.clean_program (Model.default_opts ~member fx.Fixture.config))
  in
  let ect =
    Span.with_ "ect.fit" (fun () -> Rca_ect.Ect.fit ~var_names:Model.output_names ensemble)
  in
  let experimental =
    Array.init p.Harness.experimental_members (fun i ->
        interp_run fx.Fixture.exp_program
          (spec.Harness.opts (Model.default_opts ~member:(1000 + i) fx.Fixture.config)))
  in
  let verdict =
    Span.with_ "ect.evaluate" (fun () ->
        Rca_ect.Ect.evaluate ect
          (Array.sub experimental 0 (min 3 (Array.length experimental))))
  in
  let names = Model.output_names in
  let median =
    Span.with_ "stats.median_distance" (fun () ->
        Rca_stats.Select.median_distance ~names ~ensemble ~experimental)
  in
  let lasso =
    Span.with_ "stats.lasso" (fun () ->
        Rca_stats.Select.lasso ~target:spec.Harness.selection_target ~names ~ensemble
          ~experimental ())
  in
  let affected =
    Span.with_ "harness.choose_affected" (fun () ->
        Harness.choose_affected ~median_selected:median ~lasso_selected:lasso
          ~selection_target:spec.Harness.selection_target)
  in
  {
    Harness.sel_ect_verdict = verdict.Rca_ect.Ect.verdict;
    sel_median = median;
    sel_lasso = lasso;
    sel_affected = affected;
  }

(* Harness.run with its defaults: simulated sampling, no static pruning,
   runtime-sampling cross-check on. *)
let harness_run (spec : Harness.spec) (p : Harness.params) : Harness.report =
  let fixture = fixture ~inject:spec.Harness.inject p.Harness.config in
  let sel = select spec p fixture in
  let mg = fixture.Fixture.mg in
  let bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals in
  let keep_module = if spec.Harness.restrict_to_cam then Outputs.is_cam_module else fun _ -> true in
  let simulated = Rca_core.Detector.reachability mg ~bug_nodes in
  let pipeline =
    pipeline (fun () ->
        Rca_core.Pipeline.run ~keep_module ~min_cluster:4 ~m_sample:p.Harness.m_sample
          ?gn_approx:p.Harness.gn_approx ~stop_size:p.Harness.stop_size
          ~partitioner:p.Harness.partitioner ~domains:p.Harness.domains ~static_dead:[] mg
          ~outputs:sel.Harness.sel_affected ~detect:simulated)
  in
  let result = pipeline.Rca_core.Pipeline.result in
  let sub = Rca_core.Slice.subgraph pipeline.Rca_core.Pipeline.slice in
  let sampled = List.concat_map (fun it -> it.Rca_core.Refine.sampled) result.Rca_core.Refine.iterations in
  let final = result.Rca_core.Refine.final_nodes in
  let sampling_agreement =
    match result.Rca_core.Refine.iterations with
    | [] -> None
    | it :: _ ->
        Some
          (Span.with_ "interp.agreement" (fun () ->
               Sampling.agreement simulated
                 (fun s -> Sampling.detector ~fixture ~opts:spec.Harness.opts s)
                 it.Rca_core.Refine.sampled))
  in
  {
    Harness.spec;
    ect_verdict = sel.Harness.sel_ect_verdict;
    median_selected = sel.Harness.sel_median;
    lasso_selected = sel.Harness.sel_lasso;
    affected_outputs = sel.Harness.sel_affected;
    slice_nodes = Rca_graph.Digraph.n sub.Rca_graph.Digraph.graph;
    slice_edges = Rca_graph.Digraph.m sub.Rca_graph.Digraph.graph;
    bug_node_names = Rca_core.Pipeline.describe_nodes mg bug_nodes;
    pipeline;
    bugs_located = List.exists (fun b -> List.mem b final || List.mem b sampled) bug_nodes;
    sampling_agreement;
    analysis = None;
    fixture;
  }

(* --- per-layer metrics ----------------------------------------------------- *)

(* The per-layer metrics every traced run derives from its spans; the
   workloads add their own result sizes and serve figures. *)
let layer_metrics (spans : Span.t list) =
  let total = Span.total_ms spans and count = Span.count spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) spans;
  let inside_pipeline (s : Span.t) =
    match Hashtbl.find_opt by_id s.Span.parent with
    | Some p -> p.Span.name = "core.pipeline"
    | None -> false
  in
  let pipeline_part name =
    List.fold_left
      (fun acc (s : Span.t) ->
        if s.Span.name = name && inside_pipeline s then acc +. Span.ms_between s.Span.t0 s.Span.t1
        else acc)
      0.0 spans
  in
  let roots = List.filter (fun (s : Span.t) -> s.Span.parent < 0) spans in
  let root_ns = List.fold_left (fun acc (s : Span.t) -> Int64.add acc (Int64.sub s.Span.t1 s.Span.t0)) 0L roots in
  let covered_ns =
    List.fold_left
      (fun acc (s : Span.t) ->
        match Hashtbl.find_opt by_id s.Span.parent with
        | Some p when p.Span.parent < 0 -> Int64.add acc (Int64.sub s.Span.t1 s.Span.t0)
        | _ -> acc)
      0L spans
  in
  let counted k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt obs_counts k)) in
  [
    ("synth.generate_ms", total "synth.generate");
    ("fortran.parse_ms", total "fortran.parse");
    ("coverage.probe_ms", total "coverage.probe");
    ("metagraph.build_ms", total "metagraph.build");
    ("interp.runs", float_of_int (count "interp.run" + count "interp.agreement"));
    ("interp.run_ms_p50", Common.median (Span.durations_ms spans "interp.run"));
    ("interp.busy_ms", total "interp.run" +. total "interp.agreement");
    ("ect.fit_ms", total "ect.fit");
    ("ect.evaluate_ms", total "ect.evaluate");
    ("stats.median_distance_ms", total "stats.median_distance");
    ("stats.lasso_ms", total "stats.lasso");
    ("core.freeze_ms", total "core.freeze");
    ("core.slice_ms", total "core.slice");
    ( "core.refine_ms",
      total "core.pipeline" -. pipeline_part "core.freeze" -. pipeline_part "core.slice" );
    ("graph.gn_step_ms", total "graph.gn_step");
    ("graph.gn_recomputes", counted "graph.gn_recomputes");
    ("graph.sources_rescored", counted "graph.sources_rescored");
    ("graph.greedy_ms", total "graph.greedy");
    ("graph.eigenvector_ms", total "graph.eigenvector");
    ( "trace.unattributed_frac",
      if root_ns > 0L then Int64.to_float (Int64.sub root_ns covered_ns) /. Int64.to_float root_ns
      else 0.0 );
  ]

(* The library counters a traced run adds to the exact ones. *)
let traced_counters spans =
  Common.exact
    (List.filter
       (fun (k, _) -> List.mem k [ "interp.runs"; "graph.gn_recomputes"; "graph.sources_rescored" ])
       (layer_metrics spans))

(* Result sizes summed over a list of pipeline answers. *)
let result_sizes (answers : Oracle.answer list) =
  let sum f = float_of_int (List.fold_left (fun acc a -> acc + f a) 0 answers) in
  [
    ("core.slice_nodes", sum (fun a -> a.Oracle.slice));
    ("core.iterations", sum (fun a -> a.Oracle.iterations));
    ("core.final_nodes", sum (fun a -> a.Oracle.final));
    ("core.sampled_sites", sum (fun a -> a.Oracle.sampled));
  ]

let graph_sizes (mgs : MG.t list) =
  [
    ("metagraph.nodes", float_of_int (List.fold_left (fun acc mg -> acc + MG.n_nodes mg) 0 mgs));
    ( "metagraph.arcs",
      float_of_int
        (List.fold_left (fun acc mg -> acc + Rca_graph.Digraph.m mg.MG.graph) 0 mgs) );
  ]
