(* Shared experiment fixture: generate the model (optionally with a bug
   injected), apply the build filter (KGen's role), record coverage over a
   two-step probe run (codecov's role), filter, and compile the metagraph.

   The metagraph is always built from the *experimental* (possibly bugged)
   source — the paper analyzes the code base in which the discrepancy
   lives — while the control ensemble runs the clean source. *)

open Rca_synth
module MG = Rca_metagraph.Metagraph

type t = {
  config : Config.t;
  clean_sources : Model.sources;
  exp_sources : Model.sources;
  clean_program : Rca_fortran.Ast.program;  (* build-filtered, clean *)
  exp_program : Rca_fortran.Ast.program;  (* build-filtered, injected *)
  covered_program : Rca_fortran.Ast.program;  (* exp, coverage-filtered *)
  coverage_report : Rca_coverage.Coverage.report;
  mg : MG.t;
  module_loc : (string * int) list;  (* module -> code lines, built modules *)
}

let module_name_of_file file =
  match String.index_opt file '.' with
  | Some i -> String.sub file 0 i
  | None -> file

let make ?(inject = fun s -> s) (config : Config.t) : t =
  let clean_sources = Model.generate config in
  let exp_sources = inject clean_sources in
  let exp_program =
    Model.build_filter (Model.parse_program ~strict:false exp_sources) ~driver:"cam_driver"
  in
  (* coverage probe: two time steps of the experimental build.  It runs
     before the clean build is parsed, so the interpreter's translated
     code and the clean AST are never live at once: the AST reuses the
     probe's memory instead of raising the heap's high-water mark *)
  let cov = Rca_coverage.Coverage.create () in
  let probe_opts = { (Model.default_opts config) with Model.nsteps = 2 } in
  ignore
    (Model.run_machine
       ~machine_hooks:(Rca_coverage.Coverage.attach cov)
       exp_program probe_opts);
  let clean_program =
    Model.build_filter (Model.parse_program ~strict:false clean_sources) ~driver:"cam_driver"
  in
  let coverage_report = Rca_coverage.Coverage.report exp_program cov in
  let covered_program = Rca_coverage.Coverage.filter_program exp_program cov in
  let mg = MG.build covered_program in
  let built_names =
    List.map (fun m -> m.Rca_fortran.Ast.m_name) exp_program |> List.sort_uniq compare
  in
  let module_loc =
    List.filter_map
      (fun (file, src) ->
        let name = module_name_of_file file in
        if List.mem name built_names then
          Some (name, Rca_fortran.Source.count_code_lines src)
        else None)
      exp_sources.Model.files
  in
  {
    config;
    clean_sources;
    exp_sources;
    clean_program;
    exp_program;
    covered_program;
    coverage_report;
    mg;
    module_loc;
  }

(* Control ensemble on the clean build. *)
let control_ensemble t ~members =
  Model.ensemble ~members t.clean_program t.config

(* Experimental runs on the injected build, with a run-option transform
   (FMA flags, PRNG swap, ...). *)
let experimental_runs t ~members ~(opts : Model.run_opts -> Model.run_opts) =
  Array.init members (fun i ->
      Model.run t.exp_program (opts (Model.default_opts ~member:(1000 + i) t.config)))

(* Bug node lookup: metagraph ids whose canonical name matches, optionally
   restricted to one module. *)
let bug_nodes t ~canonicals =
  List.concat_map
    (fun (module_opt, canonical) ->
      MG.nodes_with_canonical t.mg canonical
      |> List.filter (fun id ->
             match module_opt with
             | None -> true
             | Some m -> (MG.node t.mg id).MG.module_ = m))
    canonicals
  |> List.sort_uniq compare
