(* Tests for rca_core (slicing, detectors, Algorithm 5.4 refinement,
   module ranking) and integration tests running the paper's experiments
   end-to-end on the tiny synthetic model. *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph
open Rca_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build src = MG.build (Rca_fortran.Parser.parse_file ~strict:false ~file:"t.F90" src)

(* A small program with two clusters (physics-like and dynamics-like)
   bridged through a state variable, an isolated diagnostic, and an
   outfld mapping. *)
let two_cluster_src =
  {|
module state_m
  real(r8) :: t, u
end module state_m

module phys_m
  use state_m
  real(r8) :: p1, p2, p3, p4, heating
contains
  subroutine phys_run()
    p1 = t * 2.0
    p2 = p1 + t
    p3 = p1 * p2
    p4 = p3 + p2 + p1
    heating = p4 * 0.5
    t = t + heating
    call outfld('heat', heating)
  end subroutine phys_run
end module phys_m

module dyn_m
  use state_m
  real(r8) :: d1, d2, d3, momentum
contains
  subroutine dyn_run()
    d1 = u * 0.9
    d2 = d1 + u
    d3 = d2 * d1
    momentum = d3 + d2
    u = u + momentum * 0.01
    t = t + u * 0.001
    call outfld('mom', momentum)
  end subroutine dyn_run
end module dyn_m

module iso_m
  real(r8) :: lonely_in, lonely
contains
  subroutine iso_run()
    lonely = lonely_in * 3.0
    call outfld('lone', lonely)
  end subroutine iso_run
end module iso_m
|}

let mg2 = lazy (build two_cluster_src)

let find mg ~module_ ~canonical =
  match
    List.filter
      (fun id -> (MG.node mg id).MG.module_ = module_)
      (MG.nodes_with_canonical mg canonical)
  with
  | [ id ] -> id
  | _ -> Alcotest.failf "node %s.%s not found/ambiguous" module_ canonical

(* --- Slice ----------------------------------------------------------------------- *)

let slice_isolated_variable () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_internals mg [ "lonely" ] in
  check_int "two nodes" 2 (Slice.size s);
  check_bool "contains lonely" true (Slice.contains s (find mg ~module_:"iso_m" ~canonical:"lonely"))

let slice_follows_ancestors () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_internals mg [ "heating" ] in
  (* heating <- p4 <- ... <- t <- u-side (t += u*0.001) : everything except
     the isolated module *)
  check_bool "contains physics" true
    (Slice.contains s (find mg ~module_:"phys_m" ~canonical:"p1"));
  check_bool "contains dynamics via t" true
    (Slice.contains s (find mg ~module_:"dyn_m" ~canonical:"momentum"));
  check_bool "excludes isolated" false
    (Slice.contains s (find mg ~module_:"iso_m" ~canonical:"lonely"))

let slice_restriction_cuts_modules () =
  let mg = Lazy.force mg2 in
  let s =
    Slice.of_internals ~keep_module:(fun m -> m <> "dyn_m") mg [ "heating" ]
  in
  check_bool "no dynamics nodes" true
    (List.for_all (fun id -> (MG.node mg id).MG.module_ <> "dyn_m") s.Slice.nodes)

let slice_of_outputs_uses_io_map () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_outputs mg [ "mom" ] in
  check_bool "momentum targeted" true
    (List.mem (find mg ~module_:"dyn_m" ~canonical:"momentum") s.Slice.targets);
  (* dynamics side only: physics never feeds u *)
  check_bool "no physics" true
    (List.for_all (fun id -> (MG.node mg id).MG.module_ <> "phys_m") s.Slice.nodes)

let slice_min_cluster_drops_residue () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_internals ~min_cluster:3 mg [ "lonely"; "heating" ] in
  (* the 2-node lonely cluster is dropped *)
  check_bool "lonely dropped" false
    (Slice.contains s (find mg ~module_:"iso_m" ~canonical:"lonely"))

(* --- Detector --------------------------------------------------------------------- *)

let reachability_detector () =
  let mg = Lazy.force mg2 in
  let bug = find mg ~module_:"dyn_m" ~canonical:"d1" in
  let detect = Detector.reachability mg ~bug_nodes:[ bug ] in
  let momentum = find mg ~module_:"dyn_m" ~canonical:"momentum" in
  let p1 = find mg ~module_:"phys_m" ~canonical:"p1" in
  let t = find mg ~module_:"state_m" ~canonical:"t" in
  Alcotest.(check (list int)) "momentum and t reachable, p1 too via t"
    (List.sort compare [ momentum; p1; t ])
    (List.sort compare (detect [ momentum; p1; t ]));
  (* heating is downstream of t as well: everything physics reachable *)
  let lonely = find mg ~module_:"iso_m" ~canonical:"lonely" in
  Alcotest.(check (list int)) "lonely unreachable" [] (detect [ lonely ])

let set_detector () =
  let d = Detector.of_differing_set [ 3; 5 ] in
  Alcotest.(check (list int)) "filters" [ 3; 5 ] (d [ 1; 3; 5; 7 ]);
  Alcotest.(check (list int)) "never" [] (Detector.never [ 1; 2 ])

(* --- Refine ----------------------------------------------------------------------- *)

let refine_converges_on_small_graph () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_internals mg [ "lonely" ] in
  let r =
    Refine.refine mg ~initial:s.Slice.nodes ~detect:Detector.never ~stop_size:30
  in
  check_bool "converged immediately" true (r.Refine.outcome = Refine.Converged);
  check_int "kept nodes" 2 (List.length r.Refine.final_nodes)

let refine_8a_discards_influencers () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_internals mg [ "heating" ] in
  let r =
    Refine.refine mg ~initial:s.Slice.nodes ~detect:Detector.never ~stop_size:2
      ~max_iterations:3
  in
  (* nothing ever detected: each iteration removes the sampled nodes'
     ancestor closure *)
  check_bool "made progress" true
    (List.length r.Refine.final_nodes < Slice.size s);
  check_bool "has iterations" true (r.Refine.iterations <> [])

let refine_8b_keeps_bug_side () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_internals mg [ "heating" ] in
  let bug = find mg ~module_:"dyn_m" ~canonical:"d1" in
  let detect = Detector.reachability mg ~bug_nodes:[ bug ] in
  let r =
    Refine.refine mg ~initial:s.Slice.nodes ~detect ~stop_size:2 ~max_iterations:5
  in
  (* the bug node must never be excluded *)
  check_bool "bug retained or converged" true
    (List.mem bug r.Refine.final_nodes || r.Refine.outcome = Refine.Converged)

let refine_fixed_point_detected () =
  (* fully connected core: detection keeps everything -> fixed point *)
  let src =
    {|
module m
  real(r8) :: a, b, c, d, e
contains
  subroutine s()
    a = b + c + d + e
    b = a + c + d
    c = a + b + e
    d = a + b + c
    e = a + d + c
  end subroutine s
end module m
|}
  in
  let mg = build src in
  let all = List.init (MG.n_nodes mg) (fun i -> i) in
  let detect sampled = sampled in
  (* everything differs *)
  let r = Refine.refine mg ~initial:all ~detect ~stop_size:2 ~max_iterations:5 in
  check_bool "fixed point" true (r.Refine.outcome = Refine.Fixed_point)

let refine_choose_when_stuck_narrows () =
  (* fully connected core: a plain 8b step cannot shrink it, but the
     single-node narrowing fallback (the paper's Section 6.3 proposal)
     picks the detected node with the smallest ancestry and refines *)
  let src =
    {|
module m
  real(r8) :: a, b, c, d, tip
contains
  subroutine s()
    a = b + c + d
    b = a + c + d
    c = a + b + d
    d = a + b + c
    tip = a
  end subroutine s
end module m
|}
  in
  let mg = build src in
  let all = List.init (MG.n_nodes mg) (fun i -> i) in
  let tip = find mg ~module_:"m" ~canonical:"tip" in
  let a = find mg ~module_:"m" ~canonical:"a" in
  let stuck =
    Refine.refine mg ~initial:all ~detect:(fun s -> s) ~stop_size:2 ~max_iterations:5
  in
  check_bool "without fallback: fixed point" true (stuck.Refine.outcome = Refine.Fixed_point);
  (* magnitude chooser: tip has the greatest observed difference *)
  let magnitude v = if v = tip then 10.0 else 1.0 in
  let narrowed =
    Refine.refine mg ~initial:all ~detect:(fun s -> s) ~stop_size:2 ~max_iterations:5
      ~choose_when_stuck:(fun _nodes detected -> Refine.by_magnitude magnitude detected)
  in
  check_bool "with fallback: progressed" true
    (List.length narrowed.Refine.final_nodes < List.length all);
  check_bool "tip ancestry kept" true
    (List.mem a narrowed.Refine.final_nodes || List.mem tip narrowed.Refine.final_nodes)

let smallest_ancestry_chooser () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_internals mg [ "heating" ] in
  let d1 = find mg ~module_:"dyn_m" ~canonical:"d1" in
  let heating = find mg ~module_:"phys_m" ~canonical:"heating" in
  (* d1's in-slice ancestry (u-side only) is smaller than heating's *)
  Alcotest.(check (option int)) "picks d1" (Some d1)
    (Refine.smallest_ancestry ~frozen:(Frozen.freeze mg.MG.graph) s.Slice.nodes [ d1; heating ])

let refine_skips_synthetic_sampling_sites () =
  let src =
    "module m\nreal(r8) :: a, b, c\ncontains\nsubroutine s()\nb = min(a, 1.0)\nc = min(b, 2.0)\nend subroutine\nend module m"
  in
  let mg = build src in
  let all = List.init (MG.n_nodes mg) (fun i -> i) in
  let sampled = Refine.central_nodes mg ~m_sample:10 ~frozen:(Frozen.freeze mg.MG.graph) all in
  check_bool "no synthetic nodes sampled" true
    (List.for_all (fun id -> not (MG.node mg id).MG.synthetic) sampled)

let refine_reports_sizes () =
  let mg = Lazy.force mg2 in
  let s = Slice.of_internals mg [ "heating" ] in
  let r =
    Refine.refine mg ~initial:s.Slice.nodes ~detect:Detector.never ~stop_size:2
      ~max_iterations:1
  in
  match r.Refine.iterations with
  | it :: _ ->
      check_int "node count matches" (Slice.size s) it.Refine.n_nodes;
      check_bool "sampled nonempty" true (it.Refine.sampled <> [])
  | [] -> Alcotest.fail "expected an iteration"

(* --- Module rank ------------------------------------------------------------------- *)

let module_rank_orders_by_centrality () =
  let mg = Lazy.force mg2 in
  let ranking = Module_rank.rank mg in
  check_bool "all modules present" true (List.length ranking >= 4);
  (* state_m bridges everything: must rank first or second *)
  let top2 = List.filteri (fun i _ -> i < 2) ranking |> List.map (fun e -> e.Module_rank.module_name) in
  check_bool "state module central" true (List.mem "state_m" top2)

let module_rank_by_loc () =
  let locs = [ ("a", 10); ("b", 300); ("c", 50) ] in
  Alcotest.(check (list string)) "largest two" [ "b"; "c" ] (Module_rank.rank_by_loc locs 2)

let quotient_summary_sizes () =
  let mg = Lazy.force mg2 in
  let n, m = Module_rank.quotient_summary mg in
  check_int "four modules with nodes" 4 n;
  check_bool "has inter-module edges" true (m > 0)

(* --- Pipeline ---------------------------------------------------------------------- *)

let pipeline_end_to_end () =
  let mg = Lazy.force mg2 in
  let bug = find mg ~module_:"dyn_m" ~canonical:"d1" in
  let detect = Detector.reachability mg ~bug_nodes:[ bug ] in
  let t = Pipeline.run ~min_cluster:1 ~stop_size:3 mg ~outputs:[ "mom" ] ~detect in
  check_bool "slice nonempty" true (Slice.size t.Pipeline.slice > 0);
  let located = Pipeline.located_bugs mg t ~bug_nodes:[ bug ] in
  check_bool "bug located" true (located <> [])

(* --- integration: experiments on the tiny model ------------------------------------- *)

open Rca_experiments

let tiny_params =
  lazy
    { (Harness.default_params Rca_synth.Config.tiny) with
      Harness.ensemble_members = 15;
      experimental_members = 6 }

let wsubbug_end_to_end () =
  let r = Harness.run Experiments.wsubbug (Lazy.force tiny_params) in
  Alcotest.(check string) "ect fails" "Fail" (Rca_ect.Ect.verdict_string r.Harness.ect_verdict);
  (* the paper's hallmark: median distance ranks wsub orders of magnitude
     above the runner-up *)
  (match r.Harness.median_selected with
  | top :: rest ->
      Alcotest.(check string) "wsub first" "wsub" top.Rca_stats.Select.name;
      (match rest with
      | second :: _ ->
          check_bool ">1000x" true
            (top.Rca_stats.Select.score > 1000.0 *. second.Rca_stats.Select.score)
      | [] -> ())
  | [] -> Alcotest.fail "selection empty");
  check_bool "tiny isolated slice" true (r.Harness.slice_nodes <= 20);
  check_bool "bug located" true r.Harness.bugs_located;
  (* the tiny slice can converge before any sampling iteration *)
  (match r.Harness.sampling_agreement with
  | None -> ()
  | Some a -> check_bool "detectors agree" true (a >= 0.8))

let randombug_end_to_end () =
  let r = Harness.run Experiments.randombug (Lazy.force tiny_params) in
  Alcotest.(check string) "ect fails" "Fail" (Rca_ect.Ect.verdict_string r.Harness.ect_verdict);
  check_bool "omega selected" true
    (List.mem "omega" (List.map (fun v -> v.Rca_stats.Select.name) r.Harness.median_selected));
  check_bool "bug located" true r.Harness.bugs_located

let rand_mt_end_to_end () =
  let r = Harness.run Experiments.rand_mt (Lazy.force tiny_params) in
  Alcotest.(check string) "ect fails" "Fail" (Rca_ect.Ect.verdict_string r.Harness.ect_verdict);
  (* the PRNG swap must surface the radiative flux outputs *)
  check_bool "flux outputs selected" true
    (List.exists (fun n -> List.mem n [ "flds"; "flns"; "fsds"; "sols" ]) r.Harness.affected_outputs);
  check_bool "bug located" true r.Harness.bugs_located

let goffgratch_end_to_end () =
  let r = Harness.run Experiments.goffgratch (Lazy.force tiny_params) in
  Alcotest.(check string) "ect fails" "Fail" (Rca_ect.Ect.verdict_string r.Harness.ect_verdict);
  check_bool "bug located" true r.Harness.bugs_located;
  check_bool "multi-iteration or fixed point" true (Harness.iteration_count r >= 1)

let avx2_end_to_end () =
  let r = Harness.run Experiments.avx2 (Lazy.force tiny_params) in
  Alcotest.(check string) "ect fails" "Fail" (Rca_ect.Ect.verdict_string r.Harness.ect_verdict);
  check_bool "bug located" true r.Harness.bugs_located

let dyn3bug_end_to_end () =
  let r = Harness.run Experiments.dyn3bug (Lazy.force tiny_params) in
  Alcotest.(check string) "ect fails" "Fail" (Rca_ect.Ect.verdict_string r.Harness.ect_verdict);
  check_bool "z3 among top selected" true
    (List.exists (fun v -> v.Rca_stats.Select.name = "z3")
       (Rca_stats.Select.take 3 r.Harness.median_selected));
  check_bool "bug located" true r.Harness.bugs_located

let consistent_run_passes () =
  (* no injection, no configuration change: the ECT must pass *)
  let p = Lazy.force tiny_params in
  let fixture = Fixture.make p.Harness.config in
  let ens = Fixture.control_ensemble fixture ~members:p.Harness.ensemble_members in
  let ect = Rca_ect.Ect.fit ~var_names:Rca_synth.Model.output_names ens in
  let test = Fixture.experimental_runs fixture ~members:3 ~opts:(fun o -> o) in
  Alcotest.(check string) "pass" "Pass"
    (Rca_ect.Ect.verdict_string (Rca_ect.Ect.evaluate ect test).Rca_ect.Ect.verdict)

let avx2_kernel_flags () =
  let fixture = Fixture.make Rca_synth.Config.tiny in
  let flags = Avx2_kernel.kgen_flags fixture in
  let names = List.map (fun d -> d.Rca_interp.Kernel.var) flags in
  (* the energy-fixer consumers must be flagged *)
  List.iter
    (fun expected -> check_bool (expected ^ " flagged") true (List.mem expected names))
    [ "tlat"; "nctend"; "nitend"; "qvlat"; "qniic"; "efix" ];
  (* and something unrelated to the fixer must not be *)
  check_bool "icefrac not flagged" false (List.mem "icefrac" names)

let table1_tiny_shape () =
  let p =
    { (Table1.default_params Rca_synth.Config.tiny) with
      Table1.ensemble_members = 12;
      pool_members = 6;
      trials = 6;
      k = 14;
      random_samples = 2 }
  in
  let r = Table1.run p in
  match r.Table1.rows with
  | [ all_on; _largest; _random; central; all_off ] ->
      check_bool "all-on fails" true (all_on.Table1.failure_rate > 0.7);
      check_bool "central-off low" true
        (central.Table1.failure_rate < all_on.Table1.failure_rate);
      check_bool "all-off lowest" true (all_off.Table1.failure_rate <= 0.2)
  | _ -> Alcotest.fail "expected five rows"

let ablation_variants_locate () =
  let rows =
    Ablation.run
      ~variants:
        [
          {
            Ablation.label = "paper";
            partitioner = Some Refine.Girvan_newman;
            measure = Refine.Eigenvector_in;
            m_sample = 5;
          };
          {
            Ablation.label = "flat";
            partitioner = None;
            measure = Refine.Pagerank;
            m_sample = 5;
          };
        ]
      Rca_synth.Config.tiny
  in
  check_int "rows = variants x cases" (2 * 5) (List.length rows);
  (* every variant locates the isolated WSUBBUG *)
  List.iter
    (fun r ->
      if r.Ablation.experiment = "WSUBBUG" then
        check_bool (r.Ablation.variant ^ " locates wsubbug") true r.Ablation.located)
    rows

let coverage_report_shape () =
  let fixture = Fixture.make Rca_synth.Config.tiny in
  let rep = fixture.Fixture.coverage_report in
  check_bool "some modules unexecuted" true
    (rep.Rca_coverage.Coverage.modules_executed < rep.Rca_coverage.Coverage.modules_total);
  (* at the tiny scale roughly half the subprograms are dead; the paper's
     60% shows up at the larger configs *)
  check_bool "many subprograms unexecuted" true
    (rep.Rca_coverage.Coverage.subprograms_executed * 10
    < rep.Rca_coverage.Coverage.subprograms_total * 7)

let figures_well_formed () =
  let fixture = Fixture.make Rca_synth.Config.tiny in
  let fig4 = Figures.fig4 fixture.Fixture.mg in
  check_bool "histogram nonempty" true (fig4.Figures.histogram <> []);
  let slice = Slice.of_outputs fixture.Fixture.mg [ "aqsnow"; "cloud" ] in
  let fig10 = Figures.fig10 slice in
  check_bool "slice histogram nonempty" true (fig10.Figures.histogram <> []);
  let fig11 = Figures.fig11 slice in
  check_bool "eigen series covers slice" true
    (List.length fig11.Figures.eigen_series = Slice.size slice);
  check_bool "hashimoto shorter or equal (isolated nodes drop)" true
    (List.length fig11.Figures.hashimoto_series <= List.length fig11.Figures.eigen_series)

let () =
  Alcotest.run "rca_core"
    [
      ( "slice",
        [
          Alcotest.test_case "isolated" `Quick slice_isolated_variable;
          Alcotest.test_case "ancestors" `Quick slice_follows_ancestors;
          Alcotest.test_case "module restriction" `Quick slice_restriction_cuts_modules;
          Alcotest.test_case "outputs via io map" `Quick slice_of_outputs_uses_io_map;
          Alcotest.test_case "min cluster" `Quick slice_min_cluster_drops_residue;
        ] );
      ( "detector",
        [
          Alcotest.test_case "reachability" `Quick reachability_detector;
          Alcotest.test_case "set detector" `Quick set_detector;
        ] );
      ( "refine",
        [
          Alcotest.test_case "converges" `Quick refine_converges_on_small_graph;
          Alcotest.test_case "8a discards" `Quick refine_8a_discards_influencers;
          Alcotest.test_case "8b keeps bug side" `Quick refine_8b_keeps_bug_side;
          Alcotest.test_case "fixed point" `Quick refine_fixed_point_detected;
          Alcotest.test_case "stuck fallback narrows" `Quick refine_choose_when_stuck_narrows;
          Alcotest.test_case "smallest ancestry" `Quick smallest_ancestry_chooser;
          Alcotest.test_case "synthetic not sampled" `Quick refine_skips_synthetic_sampling_sites;
          Alcotest.test_case "iteration reports" `Quick refine_reports_sizes;
        ] );
      ( "module rank",
        [
          Alcotest.test_case "centrality order" `Quick module_rank_orders_by_centrality;
          Alcotest.test_case "by loc" `Quick module_rank_by_loc;
          Alcotest.test_case "quotient" `Quick quotient_summary_sizes;
        ] );
      ("pipeline", [ Alcotest.test_case "end to end" `Quick pipeline_end_to_end ]);
      ( "experiments",
        [
          Alcotest.test_case "WSUBBUG" `Slow wsubbug_end_to_end;
          Alcotest.test_case "RANDOMBUG" `Slow randombug_end_to_end;
          Alcotest.test_case "RAND-MT" `Slow rand_mt_end_to_end;
          Alcotest.test_case "GOFFGRATCH" `Slow goffgratch_end_to_end;
          Alcotest.test_case "AVX2" `Slow avx2_end_to_end;
          Alcotest.test_case "DYN3BUG" `Slow dyn3bug_end_to_end;
          Alcotest.test_case "consistent passes" `Slow consistent_run_passes;
          Alcotest.test_case "AVX2 kernel flags" `Slow avx2_kernel_flags;
          Alcotest.test_case "Table 1 shape" `Slow table1_tiny_shape;
          Alcotest.test_case "ablation" `Slow ablation_variants_locate;
          Alcotest.test_case "coverage shape" `Quick coverage_report_shape;
          Alcotest.test_case "figures" `Quick figures_well_formed;
        ] );
    ]
