(* climate-rca command-line interface.

   Subcommands mirror the paper's workflow:
     generate     emit the synthetic model source tree
     stats        build-filter, coverage and metagraph statistics
     modules      module ranking by quotient-graph centrality (Section 6.5)
     experiment   run one of the six experiments end to end (Section 6)
     compile      persist the built model as a binary snapshot
     serve        query daemon over a loaded snapshot (line JSON protocol)
     query        one-shot client for a running serve daemon
     table1       selective AVX2/FMA disablement (Table 1)
     table2       selected outputs and internal counterparts (Table 2)
     figures      degree-distribution and centrality figure data (Figs 4-11) *)

open Cmdliner
open Rca_experiments

let scale_label config =
  if config = Rca_synth.Config.tiny then "tiny"
  else if config = Rca_synth.Config.small then "small"
  else if config = Rca_synth.Config.huge then "huge"
  else "paper"

let config_of_string = function
  | "tiny" -> Ok Rca_synth.Config.tiny
  | "small" -> Ok Rca_synth.Config.small
  | "paper" -> Ok Rca_synth.Config.paper
  | "huge" -> Ok Rca_synth.Config.huge
  | s -> Error (`Msg (Printf.sprintf "unknown scale %S (tiny|small|paper|huge)" s))

let config_conv =
  Arg.conv
    ((fun s -> config_of_string s), fun ppf c -> Format.fprintf ppf "%s" (scale_label c))

let scale_arg =
  Arg.(
    value
    & opt config_conv Rca_synth.Config.small
    & info [ "s"; "scale" ] ~docv:"SCALE" ~doc:"Model scale: tiny, small, paper or huge.")

(* Detector names parse through the one shared helper
   (Refine.partitioner_of_string) so this flag and bench/main's --detector
   accept the same vocabulary. *)
let partitioner_conv =
  Arg.conv
    ( (fun s ->
        match Rca_core.Refine.partitioner_of_string s with
        | Some p -> Ok p
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown detector %S (%s)" s
                    Rca_core.Refine.partitioner_names))),
      fun ppf p -> Format.fprintf ppf "%s" (Rca_core.Refine.partitioner_string p) )

let detector_arg =
  Arg.(
    value
    & opt partitioner_conv Rca_core.Refine.Girvan_newman
    & info [ "detector" ] ~docv:"NAME"
        ~doc:
          ("Community detector for the refinement's step 5, one of "
          ^ Rca_core.Refine.partitioner_names
          ^ ": $(b,gn) is the paper's exact incremental Girvan-Newman, $(b,greedy) \
             deterministic modularity-greedy agglomeration, $(b,lp) label propagation."))

let members_arg =
  Arg.(
    value
    & opt int 20
    & info [ "members" ] ~docv:"N" ~doc:"Control ensemble size.")

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domain-pool size for the refinement's community-detection and centrality hot \
           paths.  1 (the default) is fully sequential; any value yields the same \
           results.")

(* --- generate ----------------------------------------------------------------- *)

let generate_cmd =
  let run config outdir =
    let srcs = Rca_synth.Model.generate config in
    (match outdir with
    | None ->
        List.iter
          (fun (file, src) ->
            Printf.printf "! ===== %s =====\n%s\n" file src)
          srcs.Rca_synth.Model.files
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (file, src) ->
            let oc = open_out (Filename.concat dir file) in
            output_string oc src;
            close_out oc)
          srcs.Rca_synth.Model.files;
        Printf.printf "wrote %d files to %s\n" (List.length srcs.Rca_synth.Model.files) dir);
    0
  in
  let outdir =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Write the source tree to $(docv).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit the synthetic CAM-like Fortran source tree")
    Term.(const run $ scale_arg $ outdir)

(* --- stats --------------------------------------------------------------------- *)

let stats_cmd =
  let run config =
    let fixture = Fixture.make config in
    let total = List.length fixture.Fixture.clean_sources.Rca_synth.Model.files in
    let built = List.length fixture.Fixture.exp_program in
    Printf.printf "source tree: %d modules, %d code lines\n" total
      (List.fold_left
         (fun a (_, s) -> a + Rca_fortran.Source.count_code_lines s)
         0 fixture.Fixture.clean_sources.Rca_synth.Model.files);
    Printf.printf "build filter (KGen role): %d of %d modules compiled\n" built total;
    Format.printf "coverage (codecov role): %a@." Rca_coverage.Coverage.pp_report
      fixture.Fixture.coverage_report;
    let mg = fixture.Fixture.mg in
    Printf.printf "metagraph: %d nodes, %d edges\n"
      (Rca_metagraph.Metagraph.n_nodes mg)
      (Rca_graph.Digraph.m mg.Rca_metagraph.Metagraph.graph);
    let st = mg.Rca_metagraph.Metagraph.stats in
    Printf.printf
      "parser chain: %d assignments (%d structured, %d relaxed, %d scraped, %d unhandled)\n"
      st.Rca_metagraph.Metagraph.assignments_total st.Rca_metagraph.Metagraph.parsed_primary
      st.Rca_metagraph.Metagraph.parsed_relaxed st.Rca_metagraph.Metagraph.parsed_scraped
      st.Rca_metagraph.Metagraph.unhandled;
    Format.printf "%a@."
      Figures.pp_degree_figure (Figures.fig4 mg);
    0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Pipeline statistics: build filter, coverage, metagraph")
    Term.(const run $ scale_arg)

(* --- modules --------------------------------------------------------------------- *)

let modules_cmd =
  let run config k =
    let fixture = Fixture.make config in
    let qn, qe = Rca_core.Module_rank.quotient_summary fixture.Fixture.mg in
    Printf.printf "module quotient graph: %d nodes, %d edges\n" qn qe;
    Printf.printf "%-4s %-24s %s\n" "rank" "module" "centrality";
    List.iteri
      (fun i e ->
        if i < k then
          Printf.printf "%-4d %-24s %.4f\n" (i + 1) e.Rca_core.Module_rank.module_name
            e.Rca_core.Module_rank.score)
      (Rca_core.Module_rank.rank fixture.Fixture.mg);
    0
  in
  let k = Arg.(value & opt int 20 & info [ "k"; "top" ] ~docv:"K" ~doc:"Rows to print.") in
  Cmd.v
    (Cmd.info "modules" ~doc:"Rank modules by quotient-graph eigenvector centrality")
    Term.(const run $ scale_arg $ k)

(* --- lint ------------------------------------------------------------------------- *)

let lint_cmd =
  let run config report_path no_oracle strict_types =
    let fixture = Fixture.make config in
    let an =
      Rca_analysis.Analysis.analyze ~strict_types fixture.Fixture.covered_program
    in
    if strict_types then
      Printf.printf "strict types: %d symbols resolved\n"
        (Rca_analysis.Resolve.n_symbols an.Rca_analysis.Analysis.resolution);
    let oracle =
      if no_oracle then None
      else Some (Rca_analysis.Analysis.check_oracle an fixture.Fixture.mg)
    in
    let diags = an.Rca_analysis.Analysis.diags in
    let module D = Rca_analysis.Diagnostics in
    Printf.printf "analyzed %d subprograms: %d diagnostics (%d errors, %d warnings, %d info)\n"
      (List.length an.Rca_analysis.Analysis.subs)
      (List.length diags)
      (D.count_severity diags D.Error)
      (D.count_severity diags D.Warning)
      (D.count_severity diags D.Info);
    List.iter
      (fun k ->
        let n = D.count_kind diags k in
        if n > 0 then Printf.printf "  %-22s %d\n" (D.kind_name k) n)
      D.all_kinds;
    List.iter
      (fun d ->
        if d.D.severity = D.Error then
          Printf.printf "error: %s/%s:%d %s\n" d.D.dmodule d.D.dsub d.D.line d.D.message)
      diags;
    let oracle_bad =
      match oracle with
      | None -> false
      | Some r ->
          Printf.printf
            "oracle: %d def-use pairs vs %d metagraph edges: %d mismatches, %d orphans\n"
            r.Rca_analysis.Oracle.rp_pairs r.Rca_analysis.Oracle.rp_edges
            (List.length r.Rca_analysis.Oracle.rp_mismatches)
            (List.length r.Rca_analysis.Oracle.rp_orphans);
          List.iter print_endline (Rca_analysis.Oracle.report_lines r);
          not (Rca_analysis.Oracle.ok r)
    in
    (match report_path with
    | None -> ()
    | Some path ->
        Rca_obs.Jsonio.to_file path (Rca_analysis.Analysis.report_json ?oracle an);
        Printf.printf "report written to %s\n" path);
    if D.has_errors diags || oracle_bad then 1 else 0
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"PATH" ~doc:"Write the JSON lint report to $(docv).")
  in
  let no_oracle_arg =
    Arg.(
      value & flag
      & info [ "no-oracle" ]
          ~doc:"Skip the differential def-use/metagraph cross-validation.")
  in
  let strict_types_arg =
    Arg.(
      value & flag
      & info [ "strict-types" ]
          ~doc:
            "Also run the resolver-backed type checker and interprocedural \
             call-contract checker (type/rank mismatches, arity, intent at call \
             sites, implicit-typing fallbacks).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static dataflow lint of the generated synthetic model (CFG + reaching \
          definitions), cross-validated against the metagraph.  Exits nonzero on \
          error-severity findings or any def-use/metagraph mismatch.")
    Term.(const run $ scale_arg $ report_arg $ no_oracle_arg $ strict_types_arg)

(* --- experiment ------------------------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Record the run's pipeline spans and counters (lib/obs) and write them as \
           Chrome trace-event JSON to $(docv) — load in chrome://tracing or Perfetto.  \
           Tracing never changes results.")

let experiment_cmd =
  let run config members runtime partitioner domains trace static_prune analysis_report
      name =
    match Experiments.find name with
    | None ->
        Printf.eprintf "unknown experiment %S (wsubbug|rand-mt|goffgratch|avx2|avx2-full|randombug|dyn3bug)\n" name;
        1
    | Some spec ->
        let p =
          {
            (Harness.default_params config) with
            Harness.ensemble_members = members;
            detector = (if runtime then Harness.Runtime else Harness.Simulated);
            partitioner;
            domains;
            static_prune = static_prune || analysis_report <> None;
          }
        in
        if trace <> None then Rca_obs.Obs.enable ();
        let r = Harness.run spec p in
        (match trace with
        | None -> ()
        | Some path ->
            Rca_obs.Obs.disable ();
            Rca_obs.Obs.write_chrome_trace path;
            Printf.printf "chrome trace written to %s\n" path);
        (match (analysis_report, r.Harness.analysis) with
        | Some path, Some an ->
            let oracle = Rca_analysis.Analysis.check_oracle an r.Harness.fixture.Fixture.mg in
            Rca_obs.Jsonio.to_file path (Rca_analysis.Analysis.report_json ~oracle an);
            Printf.printf "analysis report written to %s\n" path
        | _ -> ());
        Format.printf "%a@." Harness.pp r;
        if spec.Harness.name = "AVX2" then
          Format.printf "%a@." Avx2_kernel.pp (Avx2_kernel.analyze r);
        0
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Experiment name.")
  in
  let runtime_arg =
    Arg.(
      value & flag
      & info [ "runtime-sampling" ]
          ~doc:
            "Drive the iterative refinement with genuine runtime sampling instead of the \
             paper's simulated (reachability) sampling.")
  in
  let static_prune_arg =
    Arg.(
      value & flag
      & info [ "static-prune" ]
          ~doc:
            "Run the static dataflow analyzer over the covered program and prune \
             statically-dead metagraph nodes before slicing.  Observationally safe: \
             results are identical with and without it.")
  in
  let analysis_report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "analysis-report" ] ~docv:"PATH"
          ~doc:
            "Write the static-analysis JSON report (diagnostics + oracle summary) to \
             $(docv); implies the analysis runs even without $(b,--static-prune).")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one paper experiment end to end")
    Term.(
      const run $ scale_arg $ members_arg $ runtime_arg $ detector_arg $ domains_arg
      $ trace_arg $ static_prune_arg $ analysis_report_arg $ name_arg)

(* --- campaign ---------------------------------------------------------------------- *)

let campaign_cmd =
  let run config seed members max_per_family partitioner domains trace scorecard
      min_precision max_crashed =
    let p =
      {
        (Rca_faults.Campaign.default_params ~scale_label:(scale_label config) config) with
        Rca_faults.Campaign.corpus =
          {
            (Rca_faults.Corpus.default_params config) with
            Rca_faults.Corpus.seed;
            max_per_family;
          };
        ensemble_members = members;
        partitioner;
        domains;
      }
    in
    if trace <> None then Rca_obs.Obs.enable ();
    let t = Rca_faults.Campaign.run p in
    (match trace with
    | None -> ()
    | Some path ->
        Rca_obs.Obs.disable ();
        Rca_obs.Obs.write_chrome_trace path;
        Printf.printf "chrome trace written to %s\n" path);
    Format.printf "%a@." Rca_faults.Campaign.pp t;
    (match scorecard with
    | None -> ()
    | Some path ->
        Rca_obs.Jsonio.to_file path (Rca_faults.Campaign.scorecard_json t);
        Printf.printf "scorecard written to %s\n" path);
    let overall = t.Rca_faults.Campaign.overall in
    let precision = overall.Rca_faults.Campaign.fs_pipeline.Rca_faults.Campaign.precision in
    let crashed = overall.Rca_faults.Campaign.fs_crashed in
    if crashed > max_crashed then begin
      Printf.eprintf "campaign: %d faults crashed (max allowed %d)\n" crashed max_crashed;
      1
    end
    else if precision < min_precision then begin
      Printf.eprintf "campaign: overall pipeline precision %.4f below floor %.4f\n"
        precision min_precision;
      1
    end
    else 0
  in
  let seed_arg =
    Arg.(
      value
      & opt int (Rca_faults.Corpus.default_params Rca_synth.Config.tiny).Rca_faults.Corpus.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "SplitMix64 seed for fault sampling and campaign ordering.  Two runs with \
             the same seed produce byte-identical scorecards.")
  in
  let campaign_members_arg =
    Arg.(
      value & opt int 12
      & info [ "members" ] ~docv:"N" ~doc:"Control ensemble size.")
  in
  let per_family_arg =
    Arg.(
      value & opt int 6
      & info [ "max-per-family" ] ~docv:"N"
          ~doc:"Cap on faults drawn from each family (seeded subsampling).")
  in
  let scorecard_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scorecard" ] ~docv:"PATH"
          ~doc:"Write the deterministic JSON scorecard to $(docv).")
  in
  let min_precision_arg =
    Arg.(
      value & opt float 0.0
      & info [ "min-precision" ] ~docv:"P"
          ~doc:
            "Exit nonzero when overall pipeline localization precision (macro-averaged \
             over detected faults) falls below $(docv).")
  in
  let max_crashed_arg =
    Arg.(
      value & opt int 0
      & info [ "max-crashed" ] ~docv:"N"
          ~doc:"Exit nonzero when more than $(docv) faults crash the pipeline (default 0).")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Fault-injection campaign: mine a parameterized bug corpus from the synthetic \
          model (FMA toggles, PRNG substitution, off-by-one bounds, transposed indices, \
          dropped intent guards, lint-guided stale values, coefficient typos), run the \
          full detect/select/slice/refine pipeline per fault, and score localization \
          precision/recall/F1 against ground truth — alongside a graph-free \
          anomaly-score baseline.")
    Term.(
      const run $ scale_arg $ seed_arg $ campaign_members_arg $ per_family_arg
      $ detector_arg $ domains_arg $ trace_arg $ scorecard_arg $ min_precision_arg
      $ max_crashed_arg)

(* --- compile / serve / query -------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Loopback TCP port (overrides $(b,--socket)).")

let addr_of ~socket ~port : Rca_serve.Server.addr =
  match port with
  | Some p -> `Tcp p
  | None -> `Unix (Option.value ~default:"rca.sock" socket)

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let compile_cmd =
  let run config experiment members output =
    let now () = Rca_obs.Obs.monotonic_ns () in
    let t0 = now () in
    let build spec_opt =
      match spec_opt with
      | None ->
          let fixture = Fixture.make config in
          (fixture, "", None, [], [])
      | Some spec ->
          let fixture = Fixture.make ~inject:spec.Harness.inject config in
          let p =
            { (Harness.default_params config) with Harness.ensemble_members = members }
          in
          (* the same selection machinery a single-shot run uses, so a
             served default query answers exactly what `rca_main
             experiment` would *)
          let sel = Harness.select_affected spec p fixture in
          let bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals in
          let keep_modules =
            if spec.Harness.restrict_to_cam then
              Some
                (Array.to_list fixture.Fixture.mg.Rca_metagraph.Metagraph.node_meta
                |> List.map (fun nd -> nd.Rca_metagraph.Metagraph.module_)
                |> List.sort_uniq compare
                |> List.filter Rca_synth.Outputs.is_cam_module)
            else None
          in
          (fixture, spec.Harness.name, keep_modules, bug_nodes, sel.Harness.sel_affected)
    in
    let spec_opt =
      match experiment with
      | None -> Ok None
      | Some name -> (
          match Experiments.find name with
          | Some spec -> Ok (Some spec)
          | None -> Error name)
    in
    match spec_opt with
    | Error name ->
        Printf.eprintf "unknown experiment %S\n" name;
        1
    | Ok spec_opt ->
        let fixture, exp_name, keep_modules, bug_nodes, default_targets = build spec_opt in
        let t_build = ms_between t0 (now ()) in
        let mg = fixture.Fixture.mg in
        let snap =
          {
            Rca_serve.Snapshot.version = Rca_serve.Snapshot.current_version;
            fingerprint =
              Printf.sprintf "climate-rca scale=%s experiment=%s nodes=%d edges=%d"
                (scale_label config) exp_name
                (Rca_metagraph.Metagraph.n_nodes mg)
                (Rca_graph.Digraph.m mg.Rca_metagraph.Metagraph.graph);
            scale = scale_label config;
            experiment = exp_name;
            mg;
            frozen = Rca_core.Frozen.freeze mg.Rca_metagraph.Metagraph.graph;
            keep_modules;
            bug_nodes;
            default_targets;
          }
        in
        let t1 = now () in
        Rca_serve.Snapshot.save output snap;
        let t_save = ms_between t1 (now ()) in
        let t2 = now () in
        (match Rca_serve.Snapshot.load output with
        | Error msg ->
            Printf.eprintf "verification reload failed: %s\n" msg;
            exit 1
        | Ok _ -> ());
        let t_load = ms_between t2 (now ()) in
        Printf.printf "compiled %s to %s\n" snap.Rca_serve.Snapshot.fingerprint output;
        if default_targets <> [] then
          Printf.printf "default targets: %s\n" (String.concat ", " default_targets);
        Printf.printf "build %.1f ms, save %.1f ms, load %.1f ms (load speedup %.0fx)\n"
          t_build t_save t_load
          (if t_load > 0.0 then t_build /. t_load else Float.infinity);
        0
  in
  let experiment_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "experiment" ] ~docv:"NAME"
          ~doc:
            "Bake an experiment's context into the snapshot: run discrepancy detection \
             and variable selection to fix the default query targets, record the \
             injected bug nodes for the simulated sampling detector, and store the \
             module restriction.  Without it the snapshot has no defaults and queries \
             must name targets.")
  in
  let output_arg =
    Arg.(
      value
      & opt string "model.rcasnap"
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Snapshot file to write.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Build the model once and persist it as a versioned, checksummed binary \
          snapshot that $(b,rca_main serve) loads in milliseconds.  Results computed \
          from a loaded snapshot are byte-identical to a fresh build.")
    Term.(const run $ scale_arg $ experiment_arg $ members_arg $ output_arg)

let serve_cmd =
  let run snapshot socket port cache workers queue cache_path cache_save =
    match Rca_serve.Snapshot.load snapshot with
    | Error msg ->
        Printf.eprintf "cannot load %s: %s\n" snapshot msg;
        1
    | Ok snap ->
        let addr = addr_of ~socket ~port in
        let where =
          match addr with
          | `Unix path -> Printf.sprintf "unix:%s" path
          | `Tcp p -> Printf.sprintf "tcp:127.0.0.1:%d" p
        in
        let on_ready () =
          Printf.printf "serving %s on %s (cache %d, workers %d, queue %d%s)\n%!"
            snap.Rca_serve.Snapshot.fingerprint where cache workers queue
            (match cache_path with
            | None -> ""
            | Some p ->
                Printf.sprintf ", cache sidecar %s%s" p
                  (match cache_save with
                  | None -> ""
                  | Some s -> Printf.sprintf " every %gs" s))
        in
        match
          Rca_serve.Server.serve ~cache_capacity:cache ~workers
            ~queue_capacity:queue ?cache_path ?cache_save_every:cache_save ~on_ready addr snap
        with
        | exception Sys_error msg ->
            Printf.eprintf "cannot serve: %s\n" msg;
            1
        | stats ->
            Printf.printf
              "served %d (errors %d, cache hits %d, misses %d, coalesced %d, inline %d, \
               warm-start entries %d, cache saves %d)\n"
              stats.Rca_serve.Server.served stats.Rca_serve.Server.errors
              stats.Rca_serve.Server.cache_hits stats.Rca_serve.Server.cache_misses
              stats.Rca_serve.Server.coalesced stats.Rca_serve.Server.inline_runs
              stats.Rca_serve.Server.warm_entries stats.Rca_serve.Server.cache_saves;
            0
  in
  let snapshot_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SNAPSHOT" ~doc:"Snapshot file from $(b,rca_main compile).")
  in
  let cache_arg =
    Arg.(
      value & opt int 64
      & info [ "cache" ] ~docv:"N" ~doc:"LRU capacity for cached query answers.")
  in
  let workers_arg =
    let at_least_one =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 1 -> Ok n
            | _ -> Error (`Msg (Printf.sprintf "invalid worker count %S (at least 1)" s))),
          Format.pp_print_int )
    in
    Arg.(
      value
      & opt at_least_one 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Compute worker domains (at least 1) draining the reactor's work queue, so a \
             slow query never blocks other clients.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bound on queued compute jobs; beyond it new jobs run inline as \
             backpressure.")
  in
  let cache_path_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-path" ] ~docv:"PATH"
          ~doc:
            "Persisted-cache sidecar file: loaded at startup to answer warm after a \
             restart (entries stamped for a different snapshot are ignored), saved on \
             graceful shutdown.")
  in
  let cache_save_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "cache-save" ] ~docv:"SECONDS"
          ~doc:
            "Also save the cache sidecar every SECONDS while serving (requires \
             $(b,--cache-path)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a compiled snapshot over a line-delimited JSON protocol (Unix socket by \
          default, TCP with $(b,--port)).  One immutable model is shared across all \
          requests; query compute runs on worker domains so a slow query never stalls \
          the socket loop, answers are cached (optionally persisted across restarts \
          with $(b,--cache-path)) and identical concurrent requests coalesce onto one \
          computation.  Runs until a shutdown request.")
    Term.(
      const run $ snapshot_arg $ socket_arg $ port_arg $ cache_arg $ workers_arg
      $ queue_arg $ cache_path_arg $ cache_save_arg)

let query_cmd =
  let run socket port op targets detector gn_approx =
    let addr = addr_of ~socket ~port in
    match Rca_serve.Client.connect addr with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect: %s\n" (Unix.error_message e);
        1
    | conn ->
        let module J = Rca_serve.Jsonio in
        let fields = ref [ ("op", J.Str op) ] in
        let add k v = fields := !fields @ [ (k, v) ] in
        (match targets with
        | None -> ()
        | Some ts ->
            add "targets"
              (J.Arr
                 (String.split_on_char ',' ts
                 |> List.filter_map (fun s ->
                        let s = String.trim s in
                        if s = "" then None else Some (J.Str s)))));
        Option.iter (fun d -> add "detector" (J.Str d)) detector;
        Option.iter (fun g -> add "gn_approx" (J.num g)) gn_approx;
        let outcome =
          match Rca_serve.Client.request conn (J.Obj !fields) with
          | Ok reply ->
              print_endline (J.to_string reply);
              if J.member "status" reply = Some (J.Str "ok") then 0 else 1
          | Error msg ->
              Printf.eprintf "request failed: %s\n" msg;
              1
        in
        Rca_serve.Client.close conn;
        outcome
  in
  let op_arg =
    Arg.(
      value & opt string "query"
      & info [ "op" ] ~docv:"OP" ~doc:"Operation: query, ping, stats or shutdown.")
  in
  let targets_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "targets" ] ~docv:"A,B"
          ~doc:
            "Comma-separated output labels to slice on (default: the snapshot's \
             compiled-in targets).")
  in
  let detector_name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "detector" ] ~docv:"NAME"
          ~doc:("Community detector (" ^ Rca_core.Refine.partitioner_names ^ ")."))
  in
  let gn_approx_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "gn-approx" ] ~docv:"K"
          ~doc:"Approximate Girvan-Newman betweenness with $(docv) pivot sources.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request to a running $(b,rca_main serve) daemon and print the reply.")
    Term.(
      const run $ socket_arg $ port_arg $ op_arg $ targets_arg $ detector_name_arg
      $ gn_approx_arg)

(* --- table1 ------------------------------------------------------------------------ *)

let table1_cmd =
  let run config members =
    let p = { (Table1.default_params config) with Table1.ensemble_members = members } in
    Format.printf "%a@." Table1.pp (Table1.run p);
    0
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Selective AVX2/FMA disablement failure rates (Table 1)")
    Term.(const run $ scale_arg $ members_arg)

(* --- table2 ------------------------------------------------------------------------ *)

let table2_cmd =
  let run config =
    let fixture = Fixture.make config in
    let mg = fixture.Fixture.mg in
    Printf.printf "%-12s %-14s %s\n" "output" "internal" "module (from outfld instrumentation)";
    List.iter
      (fun e ->
        let recovered = Rca_metagraph.Metagraph.io_internal_names mg e.Rca_synth.Outputs.output in
        Printf.printf "%-12s %-14s %s%s\n" e.Rca_synth.Outputs.output
          e.Rca_synth.Outputs.internal e.Rca_synth.Outputs.module_
          (if List.mem e.Rca_synth.Outputs.internal recovered then ""
           else "  [MISMATCH: recovered " ^ String.concat "," recovered ^ "]"))
      Rca_synth.Outputs.catalogue;
    0
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Output variables and their internal counterparts (Table 2)")
    Term.(const run $ scale_arg)

(* --- figures ------------------------------------------------------------------------ *)

let figures_cmd =
  let run config =
    let fixture = Fixture.make config in
    let mg = fixture.Fixture.mg in
    Format.printf "%a@." Figures.pp_degree_figure (Figures.fig4 mg);
    (* GOFFGRATCH slice for figs 10 and 11 *)
    let bugged = Harness.run ~validate_sampling:false Experiments.goffgratch
        { (Harness.default_params config) with Harness.ensemble_members = 15 }
    in
    let slice = bugged.Harness.pipeline.Rca_core.Pipeline.slice in
    Format.printf "%a@." Figures.pp_degree_figure (Figures.fig10 slice);
    Format.printf "%a@." Figures.pp_centrality_figure (Figures.fig11 slice);
    0
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Degree-distribution and centrality figure data (Figs 4, 9-11)")
    Term.(const run $ scale_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "rca_main" ~version:"1.0.0"
       ~doc:"Root cause analysis for large Fortran code bases (HPDC'19 reproduction)")
    [
      generate_cmd; stats_cmd; modules_cmd; lint_cmd; experiment_cmd; campaign_cmd;
      compile_cmd; serve_cmd; query_cmd; table1_cmd; table2_cmd; figures_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
