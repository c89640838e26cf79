(* Second-wave tests: parser corner cases, interpreter semantics not
   covered by the first suite, graph algorithm variants, sampling stream
   semantics, and cross-library property tests. *)

open Rca_fortran
module G = Rca_graph
module MG = Rca_metagraph.Metagraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))

let parse ?(strict = true) src = Parser.parse_file ~strict ~file:"t.F90" src

(* --- parser corners ---------------------------------------------------------- *)

let double_precision_decl () =
  match parse "module m\ndouble precision :: x\nend module m" with
  | [ mu ] -> (
      match mu.Ast.m_decls with
      | [ d ] -> check_bool "treated as real" true (d.Ast.d_type = Ast.Treal)
      | _ -> Alcotest.fail "one decl expected")
  | _ -> Alcotest.fail "one module expected"

let dimension_attribute_skipped () =
  match parse "module m\nreal(r8), dimension(10) :: x\nend module m" with
  | [ mu ] -> check_int "decl parsed" 1 (List.length mu.Ast.m_decls)
  | _ -> Alcotest.fail "one module expected"

let multiple_entities_with_init () =
  match parse "module m\nreal(r8), parameter :: a = 1.0, b = 2.0, c = 3.0\nend module m" with
  | [ mu ] ->
      check_int "three decls" 3 (List.length mu.Ast.m_decls);
      check_bool "all params" true (List.for_all (fun d -> d.Ast.d_param) mu.Ast.m_decls)
  | _ -> Alcotest.fail "one module expected"

let elseif_single_token () =
  let src =
    "module m\nreal(r8) :: x\ncontains\nsubroutine s(v)\nreal(r8), intent(in) :: v\nif (v > 1.0) then\nx = 1.0\nelseif (v > 0.0) then\nx = 0.5\nelse\nx = 0.0\nend if\nend subroutine\nend module m"
  in
  match parse src with
  | [ mu ] -> (
      let s = List.hd mu.Ast.m_subprograms in
      match s.Ast.s_body with
      | [ { node = Ast.If (branches, els); _ } ] ->
          check_int "two branches" 2 (List.length branches);
          check_int "else" 1 (List.length els)
      | _ -> Alcotest.fail "expected if")
  | _ -> Alcotest.fail "one module expected"

let endif_enddo_single_tokens () =
  let src =
    "module m\nreal(r8) :: x\ncontains\nsubroutine s()\ninteger :: i\ndo i = 1, 3\nif (i == 2) then\nx = x + 1.0\nendif\nenddo\nend subroutine\nend module m"
  in
  match parse src with
  | [ mu ] -> check_int "parsed" 1 (List.length mu.Ast.m_subprograms)
  | _ -> Alcotest.fail "one module expected"

let pow_with_negative_exponent () =
  match Parser.parse_expression "a ** -2" with
  | Ast.Ebin (Ast.Pow, _, Ast.Eun (Ast.Neg, Ast.Eint 2)) -> ()
  | _ -> Alcotest.fail "expected pow with negated exponent"

let interface_with_explicit_body_skipped () =
  let src =
    "module m\ninterface\nsubroutine external_thing(x)\nreal(r8) :: x\nend subroutine\nend interface\nend module m"
  in
  match parse ~strict:false src with
  | [ mu ] -> check_int "anonymous interface recorded" 1 (List.length mu.Ast.m_interfaces)
  | _ -> Alcotest.fail "one module expected"

let print_statement_parses () =
  match (Parser.parse_statement "print *, 'value', x, 42").node with
  | Ast.Print [ Ast.Estring "value"; _; Ast.Eint 42 ] -> ()
  | _ -> Alcotest.fail "print parse"

let select_case_parses_and_prints () =
  let src =
    "module m\nreal(r8) :: x\ncontains\nsubroutine s(k)\ninteger, intent(in) :: k\nselect case (k)\ncase (1)\nx = 1.0\ncase (2, 3)\nx = 2.0\ncase default\nx = 0.0\nend select\nend subroutine\nend module m"
  in
  match parse src with
  | [ mu ] -> (
      let sp = List.hd mu.Ast.m_subprograms in
      match sp.Ast.s_body with
      | [ { node = Ast.Select (_, cases, default); _ } ] ->
          check_int "two cases" 2 (List.length cases);
          check_int "default" 1 (List.length default);
          (* pretty round trip *)
          let text = Pretty.module_to_string mu in
          (match parse text with
          | [ mu' ] ->
              check_int "round trip"
                (Ast.count_stmts (List.hd mu.Ast.m_subprograms).Ast.s_body)
                (Ast.count_stmts (List.hd mu'.Ast.m_subprograms).Ast.s_body)
          | _ -> Alcotest.fail "reparse")
      | _ -> Alcotest.fail "expected select")
  | _ -> Alcotest.fail "one module"

let count_stmts_recurses () =
  let src =
    "module m\nreal(r8) :: x\ncontains\nsubroutine s()\ninteger :: i\ndo i = 1, 2\nif (x > 0.0) then\nx = 1.0\nelse\nx = 2.0\nend if\nend do\nend subroutine\nend module m"
  in
  match parse src with
  | [ mu ] ->
      let s = List.hd mu.Ast.m_subprograms in
      (* do + if + two assignments *)
      check_int "statement count" 4 (Ast.count_stmts s.Ast.s_body)
  | _ -> Alcotest.fail "one module"

(* --- interpreter corners ------------------------------------------------------ *)

open Rca_interp

let run_src src entry =
  let m = Machine.create (parse src) in
  ignore (Machine.invoke m ~module_:"m" ~sub:entry ~args:[]);
  m

let getf m name =
  match Machine.get_module_var m ~module_:"m" ~name with
  | Machine.Vreal f -> f
  | Machine.Vint i -> float_of_int i
  | _ -> Alcotest.fail "scalar expected"

let select_case_executes () =
  let src =
    "module m\nreal(r8) :: x, y, z\ncontains\nsubroutine pick(k)\ninteger, intent(in) :: k\nselect case (k)\ncase (1)\nx = 10.0\ncase (2, 3)\nx = 20.0\ncase default\nx = -1.0\nend select\nend subroutine\nsubroutine go()\ncall pick(1)\ny = x\ncall pick(3)\nz = x\ncall pick(9)\nend subroutine\nend module m"
  in
  let m = run_src src "go" in
  check_float "case 1" 10.0 (getf m "y");
  check_float "case list" 20.0 (getf m "z");
  check_float "default" (-1.0) (getf m "x")

let select_case_in_metagraph () =
  let src =
    "module m\nreal(r8) :: x, a, b\ncontains\nsubroutine s(k)\ninteger, intent(in) :: k\nselect case (k)\ncase (1)\nx = a\ncase default\nx = b\nend select\nend subroutine\nend module m"
  in
  let mg = MG.build (parse src) in
  let find c = List.hd (MG.nodes_with_canonical mg c) in
  check_bool "a->x" true (G.Digraph.mem_edge mg.MG.graph (find "a") (find "x"));
  check_bool "b->x" true (G.Digraph.mem_edge mg.MG.graph (find "b") (find "x"))

let merge_and_sign () =
  let m =
    run_src
      "module m\nreal(r8) :: a, b, c\ncontains\nsubroutine go()\na = merge(1.0, 2.0, 3 > 2)\nb = sign(5.0, -0.1)\nc = mod(7.5, 2.0)\nend subroutine\nend module m"
      "go"
  in
  check_float "merge picks true branch" 1.0 (getf m "a");
  check_float "sign transfers" (-5.0) (getf m "b");
  check_float "float mod" 1.5 (getf m "c")

let nint_floor_int () =
  let m =
    run_src
      "module m\ninteger :: a, b, c\ncontains\nsubroutine go()\na = nint(2.6)\nb = floor(2.6)\nc = int(2.6)\nend subroutine\nend module m"
      "go"
  in
  check_float "nint rounds" 3.0 (getf m "a");
  check_float "floor" 2.0 (getf m "b");
  check_float "int truncates" 2.0 (getf m "c")

let string_comparison_in_if () =
  let m =
    run_src
      "module m\nreal(r8) :: x\ncharacter(len=8) :: name\ncontains\nsubroutine go()\nname = 'abc'\nif (name == 'abc') then\nx = 1.0\nelse\nx = 2.0\nend if\nend subroutine\nend module m"
      "go"
  in
  check_float "string equality" 1.0 (getf m "x")

let print_goes_to_log () =
  let m =
    run_src
      "module m\ncontains\nsubroutine go()\nprint *, 'hello', 42\nend subroutine\nend module m"
      "go"
  in
  Alcotest.(check string) "log" "hello 42\n" (Machine.printed m)

let whole_array_copy () =
  let m =
    run_src
      "module m\nreal(r8) :: a(3), b(3), total\ncontains\nsubroutine go()\ninteger :: i\ndo i = 1, 3\nb(i) = real(i)\nend do\na = b\ntotal = sum(a)\nend subroutine\nend module m"
      "go"
  in
  check_float "copied" 6.0 (getf m "total")

let nested_function_calls_execute () =
  let m =
    run_src
      {|
module m
  real(r8) :: out
contains
  function inner(x) result(r)
    real(r8), intent(in) :: x
    real(r8) :: r
    r = x + 1.0
  end function inner
  function outer(x) result(r)
    real(r8), intent(in) :: x
    real(r8) :: r
    r = inner(x) * 2.0
  end function outer
  subroutine go()
    out = outer(inner(1.0))
  end subroutine go
end module m
|}
      "go"
  in
  (* inner(1)=2; outer(2)=inner(2)*2=6 *)
  check_float "nested" 6.0 (getf m "out")

let formal_binding_fires_assign_hook () =
  let prog =
    parse
      "module m\nreal(r8) :: y\ncontains\nsubroutine callee(arg)\nreal(r8), intent(in) :: arg\ny = arg\nend subroutine\nsubroutine go()\ncall callee(3.5)\nend subroutine\nend module m"
  in
  let m = Machine.create prog in
  let seen = ref [] in
  m.Machine.hooks.Machine.on_assign <-
    Some (fun ~module_:_ ~sub ~line:_ ~var ~canonical:_ v -> seen := (sub, var, v) :: !seen);
  ignore (Machine.invoke m ~module_:"m" ~sub:"go" ~args:[]);
  check_bool "formal binding event" true (List.mem ("callee", "arg", 3.5) !seen)

let invoke_arity_checked () =
  let prog = parse "module m\ncontains\nsubroutine go(x)\nreal(r8), intent(in) :: x\nend subroutine\nend module m" in
  let m = Machine.create prog in
  match Machine.invoke m ~module_:"m" ~sub:"go" ~args:[] with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected arity error"

(* --- graph variants -------------------------------------------------------------- *)

let label_propagation_deterministic () =
  let g = G.Gen.two_clusters ~seed:5 ~size:10 ~p_intra:0.6 ~bridges:1 in
  let p1 = G.Community.label_propagation g in
  let p2 = G.Community.label_propagation g in
  check_bool "same labels" true (p1.G.Community.labels = p2.G.Community.labels)

let girvan_newman_max_removals_budget () =
  let g = G.Gen.complete ~n:8 in
  (* with a budget of 1 removal a clique cannot split: partition stays whole *)
  let step = G.Community.girvan_newman_step ~max_removals:1 g in
  check_int "still one community" 1
    (G.Community.community_count step.G.Community.partition)

let refine_with_alternative_partitioners () =
  let mg =
    MG.build
      (parse
         "module m\nreal(r8) :: a, b, c, d, e, f\ncontains\nsubroutine s()\nb = a\nc = b + a\nd = c\ne = d + c\nf = e\nend subroutine\nend module m")
  in
  let initial = List.init (MG.n_nodes mg) (fun i -> i) in
  List.iter
    (fun partitioner ->
      let r =
        Rca_core.Refine.refine mg ~initial ~detect:Rca_core.Detector.never ~stop_size:1
          ~max_iterations:3 ~partitioner ~min_community:2
      in
      check_bool "terminates" true
        (List.length r.Rca_core.Refine.final_nodes <= List.length initial))
    [
      Rca_core.Refine.Girvan_newman;
      Rca_core.Refine.Modularity_greedy;
      Rca_core.Refine.Label_propagation;
    ]

(* --- stats corners ----------------------------------------------------------------- *)

let quantile_rejects_bad_q () =
  Alcotest.check_raises "q too big"
    (Invalid_argument "Descriptive.quantile: q out of range") (fun () ->
      ignore (Rca_stats.Descriptive.quantile [| 1.0 |] 1.5))

let pca_transform_shape () =
  let rng = Rca_rng.Splitmix.create 4 in
  let data =
    Rca_stats.Matrix.init ~rows:20 ~cols:6 (fun _ _ -> Rca_rng.Prng.gaussian rng)
  in
  let p = Rca_stats.Pca.fit ~n_components:3 data in
  let scores = Rca_stats.Pca.transform p data in
  check_int "rows" 20 (Rca_stats.Matrix.rows scores);
  check_int "cols" 3 (Rca_stats.Matrix.cols scores)

let ect_variable_scores_rank_shifted () =
  let rng = Rca_rng.Splitmix.create 8 in
  let names = [| "a"; "b"; "c" |] in
  let ens = Rca_stats.Matrix.init ~rows:30 ~cols:3 (fun _ _ -> Rca_rng.Prng.gaussian rng) in
  let t = Rca_ect.Ect.fit ~var_names:names ens in
  let row = [| 0.0; 25.0; 0.0 |] in
  (match Rca_ect.Ect.variable_scores t row with
  | (top, score) :: _ ->
      Alcotest.(check string) "b most anomalous" "b" top;
      check_bool "large z" true (score > 5.0)
  | [] -> Alcotest.fail "empty scores")

let logistic_proba_bounds () =
  let rng = Rca_rng.Splitmix.create 6 in
  let x = Rca_stats.Matrix.init ~rows:40 ~cols:3 (fun _ _ -> Rca_rng.Prng.gaussian rng) in
  let y = Array.init 40 (fun i -> if i < 20 then 0.0 else 1.0) in
  let m = Rca_stats.Logistic.fit ~lambda:0.1 x y in
  Array.iter
    (fun row ->
      let p = Rca_stats.Logistic.predict_proba m row in
      check_bool "in [0,1]" true (p >= 0.0 && p <= 1.0))
    x

(* --- sampling stream semantics -------------------------------------------------------- *)

let sampling_stream_catches_overwritten_difference () =
  (* a node whose final value is identical in both runs but whose earlier
     sample differs must still be flagged (FLiT-style semantics) *)
  let config = Rca_synth.Config.tiny in
  let fixture =
    Rca_experiments.Fixture.make
      ~inject:
        (Rca_synth.Model.inject ~file:"microp_aero.F90"
           ~from_:"0.20_r8 * sqrt(tke(i, k))" ~to_:"2.00_r8 * sqrt(tke(i, k))")
      config
  in
  let wsub =
    List.filter
      (fun id -> (MG.node fixture.Rca_experiments.Fixture.mg id).MG.module_ = "microp_aero")
      (MG.nodes_with_canonical fixture.Rca_experiments.Fixture.mg "wsub")
  in
  let cmp =
    Rca_experiments.Sampling.compare_runs ~fixture ~opts:(fun o -> o) wsub
  in
  check_bool "wsub stream differs" true
    (List.for_all (fun c -> c.Rca_experiments.Sampling.differs) cmp)

let sampling_control_vs_control_quiet () =
  (* no injection, identical configuration: nothing should differ *)
  let config = Rca_synth.Config.tiny in
  let fixture = Rca_experiments.Fixture.make config in
  let mg = fixture.Rca_experiments.Fixture.mg in
  let watched =
    List.concat_map (fun c -> MG.nodes_with_canonical mg c) [ "tlat"; "cld"; "flwds"; "u" ]
  in
  let cmp = Rca_experiments.Sampling.compare_runs ~fixture ~opts:(fun o -> o) watched in
  check_bool "nothing differs" true
    (List.for_all (fun c -> not c.Rca_experiments.Sampling.differs) cmp)

(* --- adverse API usage ------------------------------------------------------------ *)

let slice_unknown_output_is_empty () =
  let mg = MG.build (parse "module m\nreal(r8) :: x\ncontains\nsubroutine s()\nx = 1.0\nend subroutine\nend module m") in
  let s = Rca_core.Slice.of_outputs mg [ "no_such_output" ] in
  check_int "empty slice" 0 (Rca_core.Slice.size s)

let refine_on_empty_initial () =
  let mg = MG.build (parse "module m\nreal(r8) :: x\ncontains\nsubroutine s()\nx = 1.0\nend subroutine\nend module m") in
  let r = Rca_core.Refine.refine mg ~initial:[] ~detect:Rca_core.Detector.never in
  check_bool "converged empty" true (r.Rca_core.Refine.outcome = Rca_core.Refine.Converged);
  check_int "no nodes" 0 (List.length r.Rca_core.Refine.final_nodes)

let pipeline_empty_outputs () =
  let mg = MG.build (parse "module m\nreal(r8) :: x\ncontains\nsubroutine s()\nx = 1.0\nend subroutine\nend module m") in
  let t = Rca_core.Pipeline.run mg ~outputs:[] ~detect:Rca_core.Detector.never in
  check_int "no candidates" 0 (List.length (Rca_core.Pipeline.candidates mg t))

let machine_reports_unknown_module () =
  let m = Machine.create (parse "module m\nend module m") in
  (match Machine.get_module_var m ~module_:"nope" ~name:"x" with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected error");
  match Machine.invoke m ~module_:"m" ~sub:"nope" ~args:[] with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected error"

let prng_choose_empty_rejected () =
  let g = Rca_rng.Splitmix.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty list") (fun () ->
      ignore (Rca_rng.Prng.choose g ([] : int list)))

(* --- properties ------------------------------------------------------------------------ *)

let graph_gen =
  QCheck2.Gen.(
    let* n = int_range 4 30 in
    let* m = int_range n (3 * n) in
    let* seed = int_range 0 1_000_000 in
    return (G.Gen.gnm ~seed ~n ~m))

let prop_refine_final_subset_of_initial =
  QCheck2.Test.make ~name:"refinement never invents nodes" ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let src =
        Printf.sprintf
          "module m\nreal(r8) :: v0, v1, v2, v3, v4, v5\ncontains\nsubroutine s()\nv1 = v0 * 2.0\nv2 = v1 + v0\nv3 = v%d + v1\nv4 = v3 * v2\nv5 = v4 + v%d\nend subroutine\nend module m"
          (seed mod 3) (seed mod 4)
      in
      let mg = MG.build (parse src) in
      let initial = List.init (MG.n_nodes mg) (fun i -> i) in
      let detect = if seed mod 2 = 0 then Rca_core.Detector.never else fun s -> s in
      let r =
        Rca_core.Refine.refine mg ~initial ~detect ~stop_size:1 ~max_iterations:4
      in
      List.for_all (fun v -> List.mem v initial) r.Rca_core.Refine.final_nodes)

let prop_betweenness_nonnegative =
  QCheck2.Test.make ~name:"betweenness nonnegative" ~count:60 graph_gen (fun g ->
      let csr = G.Csr.of_digraph g in
      let edge_bc = Array.make csr.G.Csr.m 0.0 in
      G.Betweenness.accumulate ~alive:(Bytes.make csr.G.Csr.m '\001') csr
        (G.Betweenness.make_scratch csr) (Array.init csr.G.Csr.n Fun.id) ~edge_bc;
      Array.for_all (fun x -> x >= 0.0) edge_bc)

let prop_gn_partition_covers =
  QCheck2.Test.make ~name:"G-N partition covers all nodes" ~count:20 graph_gen (fun g ->
      let step = G.Community.girvan_newman_step ~max_removals:20 g in
      let p = step.G.Community.partition in
      List.sort compare (List.concat p.G.Community.communities) = G.Digraph.nodes g)

let prop_slice_contains_targets =
  QCheck2.Test.make ~name:"slice always contains its targets" ~count:40
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let src =
        Printf.sprintf
          "module m\nreal(r8) :: a, b, c, target_%d\ncontains\nsubroutine s()\nb = a\nc = b\ntarget_%d = c\nend subroutine\nend module m"
          seed seed
      in
      let mg = MG.build (parse src) in
      let name = Printf.sprintf "target_%d" seed in
      let s = Rca_core.Slice.of_internals mg [ name ] in
      List.for_all (fun t -> Rca_core.Slice.contains s t) s.Rca_core.Slice.targets
      && Rca_core.Slice.size s = 4)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_refine_final_subset_of_initial;
      prop_betweenness_nonnegative;
      prop_gn_partition_covers;
      prop_slice_contains_targets;
    ]

let () =
  Alcotest.run "more"
    [
      ( "parser",
        [
          Alcotest.test_case "double precision" `Quick double_precision_decl;
          Alcotest.test_case "dimension attr" `Quick dimension_attribute_skipped;
          Alcotest.test_case "multi entities" `Quick multiple_entities_with_init;
          Alcotest.test_case "elseif" `Quick elseif_single_token;
          Alcotest.test_case "endif/enddo" `Quick endif_enddo_single_tokens;
          Alcotest.test_case "pow neg exponent" `Quick pow_with_negative_exponent;
          Alcotest.test_case "explicit interface" `Quick interface_with_explicit_body_skipped;
          Alcotest.test_case "print" `Quick print_statement_parses;
          Alcotest.test_case "select case" `Quick select_case_parses_and_prints;
          Alcotest.test_case "count stmts" `Quick count_stmts_recurses;
        ] );
      ( "interp",
        [
          Alcotest.test_case "select executes" `Quick select_case_executes;
          Alcotest.test_case "select metagraph" `Quick select_case_in_metagraph;
          Alcotest.test_case "merge/sign/mod" `Quick merge_and_sign;
          Alcotest.test_case "nint/floor/int" `Quick nint_floor_int;
          Alcotest.test_case "string compare" `Quick string_comparison_in_if;
          Alcotest.test_case "print log" `Quick print_goes_to_log;
          Alcotest.test_case "array copy" `Quick whole_array_copy;
          Alcotest.test_case "nested functions" `Quick nested_function_calls_execute;
          Alcotest.test_case "formal binding hook" `Quick formal_binding_fires_assign_hook;
          Alcotest.test_case "arity check" `Quick invoke_arity_checked;
        ] );
      ( "graph",
        [
          Alcotest.test_case "label prop deterministic" `Quick label_propagation_deterministic;
          Alcotest.test_case "gn budget" `Quick girvan_newman_max_removals_budget;
          Alcotest.test_case "refine partitioners" `Quick refine_with_alternative_partitioners;
        ] );
      ( "stats",
        [
          Alcotest.test_case "quantile bad q" `Quick quantile_rejects_bad_q;
          Alcotest.test_case "pca shape" `Quick pca_transform_shape;
          Alcotest.test_case "variable scores" `Quick ect_variable_scores_rank_shifted;
          Alcotest.test_case "proba bounds" `Quick logistic_proba_bounds;
        ] );
      ( "adverse",
        [
          Alcotest.test_case "unknown output" `Quick slice_unknown_output_is_empty;
          Alcotest.test_case "empty initial" `Quick refine_on_empty_initial;
          Alcotest.test_case "empty outputs" `Quick pipeline_empty_outputs;
          Alcotest.test_case "unknown module/sub" `Quick machine_reports_unknown_module;
          Alcotest.test_case "choose empty" `Quick prng_choose_empty_rejected;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "stream catches overwrite" `Slow sampling_stream_catches_overwritten_difference;
          Alcotest.test_case "control quiet" `Slow sampling_control_vs_control_quiet;
        ] );
      ("properties", qcheck_cases);
    ]
