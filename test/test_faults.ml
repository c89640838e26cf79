(* Tests for the fault-injection campaign stack: the single-occurrence
   injection API, the mined corpus's invariants, scorecard determinism,
   Pipeline.located_bugs edge cases, and coverage on zero-trip loops and
   unreachable code. *)

open Rca_synth
open Rca_faults
module MG = Rca_metagraph.Metagraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tiny = Config.tiny
let srcs = lazy (Model.generate tiny)
let fixture = lazy (Rca_experiments.Fixture.make tiny)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

let file_text s file = List.assoc file s.Model.files

(* a synthetic one-file source tree so the tests control the text exactly *)
let toy text = { (Lazy.force srcs) with Model.files = [ ("toy.F90", text) ] }

(* --- Model.inject: exactly one occurrence ----------------------------------- *)

let inject_absent_pattern () =
  check_bool "absent pattern raises" true
    (raises_invalid (fun () ->
         Model.inject ~file:"toy.F90" ~from_:"missing" ~to_:"x" (toy "a b c")));
  check_bool "unknown file raises" true
    (raises_invalid (fun () ->
         Model.inject ~file:"nope.F90" ~from_:"a" ~to_:"x" (toy "a")))

let inject_duplicate_pattern_raises () =
  let s = toy "x = 1.0\ny = 1.0\n" in
  check_bool "ambiguous pattern raises" true
    (raises_invalid (fun () -> Model.inject ~file:"toy.F90" ~from_:"1.0" ~to_:"2.0" s))

let inject_overlapping_counted_without_overlap () =
  (* "aaaa" holds two non-overlapping "aa" (positions 0 and 2), not three *)
  let s = toy "aaaa" in
  check_bool "two occurrences are ambiguous" true
    (raises_invalid (fun () -> Model.inject ~file:"toy.F90" ~from_:"aa" ~to_:"b" s));
  (* "aaa" in "aaaa" occurs exactly once under the same scan *)
  let once = Model.inject ~file:"toy.F90" ~from_:"aaa" ~to_:"b" s in
  check_string "single occurrence is replaced" "ba" (file_text once "toy.F90")

let inject_line_contract () =
  let s = toy "one\ntwo\nthree\n" in
  let patched =
    Model.inject_line ~file:"toy.F90" ~line:2 ~f:(fun l -> "! " ^ l) s
  in
  check_string "line rewritten" "one\n! two\nthree\n" (file_text patched "toy.F90");
  check_bool "unknown file raises" true
    (raises_invalid (fun () ->
         Model.inject_line ~file:"nope.F90" ~line:1 ~f:(fun l -> l ^ "x") s));
  check_bool "line out of range raises" true
    (raises_invalid (fun () ->
         Model.inject_line ~file:"toy.F90" ~line:99 ~f:(fun l -> l ^ "x") s));
  check_bool "no-op rewrite raises" true
    (raises_invalid (fun () -> Model.inject_line ~file:"toy.F90" ~line:2 ~f:Fun.id s))

(* --- corpus invariants ------------------------------------------------------ *)

let corpus = lazy (Corpus.generate (Corpus.default_params tiny))

let corpus_meets_campaign_floor () =
  let c = Lazy.force corpus in
  let faults = c.Corpus.faults in
  check_bool "at least 25 faults" true (List.length faults >= 25);
  let families =
    List.sort_uniq compare (List.map (fun f -> f.Fault.family) faults)
  in
  check_bool "at least 5 families" true (List.length families >= 5)

let corpus_ids_unique_and_ground_truth_resolves () =
  let c = Lazy.force corpus in
  let faults = c.Corpus.faults in
  let ids = List.map (fun f -> f.Fault.id) faults in
  check_int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  let mg = c.Corpus.fixture.Rca_experiments.Fixture.mg in
  List.iter
    (fun f ->
      check_bool
        (f.Fault.id ^ " ground truth resolves on the clean metagraph")
        true
        (Fault.resolve_expected mg f <> []);
      (* source faults name a real file and line; config faults neither *)
      if Fault.is_source_fault f then begin
        let text = file_text (Lazy.force srcs) f.Fault.file in
        let n_lines = List.length (String.split_on_char '\n' text) in
        check_bool (f.Fault.id ^ " line in range") true
          (f.Fault.line >= 1 && f.Fault.line <= n_lines)
      end
      else check_int (f.Fault.id ^ " config fault has no line") 0 f.Fault.line)
    faults

let corpus_same_seed_identical () =
  let p = Corpus.default_params tiny in
  let a = Corpus.generate p and b = Corpus.generate p in
  check_bool "same fault ids in the same order" true
    (List.map (fun f -> f.Fault.id) a.Corpus.faults
    = List.map (fun f -> f.Fault.id) b.Corpus.faults)

let corpus_injections_apply () =
  let c = Lazy.force corpus in
  List.iter
    (fun f ->
      if Fault.is_source_fault f then
        let bugged = f.Fault.inject (Lazy.force srcs) in
        check_bool (f.Fault.id ^ " changes the source") true
          (file_text bugged f.Fault.file <> file_text (Lazy.force srcs) f.Fault.file))
    c.Corpus.faults

(* Satellite acceptance: the intent_guard family must be visible to the
   static call-contract checker — injecting the fault and re-linting with
   strict types flags at least one call site passing a protected actual
   into the now-written formal. *)
let intent_guard_flagged_by_callcheck () =
  let module A = Rca_analysis.Analysis in
  let module D = Rca_analysis.Diagnostics in
  let c = Lazy.force corpus in
  let guards =
    List.filter (fun f -> f.Fault.family = Fault.Intent_guard) c.Corpus.faults
  in
  check_bool "corpus mined intent_guard faults" true (guards <> []);
  let fx = Lazy.force fixture in
  let trips (f : Fault.t) =
    let bugged = f.Fault.inject fx.Rca_experiments.Fixture.clean_sources in
    let an = A.analyze ~strict_types:true (Model.parse_program bugged) in
    List.exists (fun d -> d.D.kind = D.Intent_at_call_site) an.A.diags
  in
  let flagged = List.filter trips guards in
  check_bool "at least one fault trips the call-site intent check" true (flagged <> []);
  (* the clean model must not: zero strict errors without a fault *)
  let clean = A.analyze ~strict_types:true (Model.parse_program fx.Rca_experiments.Fixture.clean_sources) in
  check_int "clean model has no strict errors" 0 (List.length (A.errors clean))

(* --- campaign determinism --------------------------------------------------- *)

let mini_params () =
  let p = Campaign.default_params tiny in
  {
    p with
    Campaign.corpus =
      {
        p.Campaign.corpus with
        Corpus.families = [ Fault.Prng; Fault.Intent_guard ];
        Corpus.max_per_family = 2;
      };
  }

let campaign_same_seed_byte_identical () =
  let p = mini_params () in
  let a = Campaign.run p and b = Campaign.run p in
  let scorecard t = Rca_obs.Jsonio.to_string (Campaign.scorecard_json t) in
  let sa = scorecard a and sb = scorecard b in
  check_bool "non-empty corpus" true (a.Campaign.results <> []);
  check_int "no crashes" 0 a.Campaign.overall.Campaign.fs_crashed;
  check_string "byte-identical scorecards" sa sb

(* --- Pipeline.located_bugs edge cases --------------------------------------- *)

(* A pipeline value with an explicit final set and per-iteration
   detections: located_bugs is a pure membership question over those. *)
let mk_pipeline mg ~final ~detected_per_iteration =
  let open Rca_core in
  let slice =
    { Slice.mg; nodes = final; targets = []; node_set = Hashtbl.create 4 }
  in
  let iteration detected =
    {
      Refine.nodes = final;
      n_nodes = List.length final;
      n_edges = 0;
      communities = [ final ];
      sampled_by_community = [ detected ];
      sampled = detected;
      detected;
    }
  in
  {
    Pipeline.slice;
    result =
      {
        Refine.iterations = List.map iteration detected_per_iteration;
        final_nodes = final;
        outcome = Refine.Converged;
      };
  }

let located_bugs_empty_bug_set () =
  let mg = (Lazy.force fixture).Rca_experiments.Fixture.mg in
  let pl = mk_pipeline mg ~final:[ 1; 2; 3 ] ~detected_per_iteration:[ [ 1 ] ] in
  check_bool "empty bug set locates nothing" true
    (Rca_core.Pipeline.located_bugs mg pl ~bug_nodes:[] = [])

let located_bugs_outside_slice () =
  let mg = (Lazy.force fixture).Rca_experiments.Fixture.mg in
  let pl = mk_pipeline mg ~final:[ 1; 2; 3 ] ~detected_per_iteration:[ [ 2 ] ] in
  (* a bug node that survived in neither the final set nor any detection *)
  check_bool "bug outside the slice is not located" true
    (Rca_core.Pipeline.located_bugs mg pl ~bug_nodes:[ 10_000 ] = [])

let located_bugs_multiple_in_one_community () =
  let mg = (Lazy.force fixture).Rca_experiments.Fixture.mg in
  let pl = mk_pipeline mg ~final:[ 4; 5; 6 ] ~detected_per_iteration:[ [] ] in
  (* both bugs sit in the single final community; input order is kept *)
  check_bool "both located, order preserved" true
    (Rca_core.Pipeline.located_bugs mg pl ~bug_nodes:[ 6; 4 ] = [ 6; 4 ])

let located_bugs_detected_only () =
  let mg = (Lazy.force fixture).Rca_experiments.Fixture.mg in
  let pl = mk_pipeline mg ~final:[] ~detected_per_iteration:[ [ 7 ]; [] ] in
  check_bool "a sampled-and-detected bug counts as located" true
    (Rca_core.Pipeline.located_bugs mg pl ~bug_nodes:[ 7 ] = [ 7 ])

(* --- coverage: zero-trip loops and unreachable code -------------------------- *)

let cov_src =
  {|module covmod
  real(r8) :: acc
contains
  subroutine go()
    integer :: i
    acc = 0.0_r8
    do i = 1, 0
      acc = acc + 1.0_r8
    end do
    if (acc > 100.0_r8) then
      acc = acc + 2.0_r8
    end if
  end subroutine go
  subroutine never()
    acc = acc + 3.0_r8
  end subroutine never
end module covmod
|}

(* physical line numbers in [cov_src] *)
let line_init = 6
let line_zero_trip_body = 8
let line_dead_branch = 11
let line_never_body = 15

let cov_report = lazy (
  let prog = Rca_fortran.Parser.parse_file ~strict:true ~file:"covmod.F90" cov_src in
  let machine = Rca_interp.Machine.create prog in
  let cov =
    Rca_coverage.Coverage.record
      ~drive:(fun m ->
        ignore (Rca_interp.Machine.invoke m ~module_:"covmod" ~sub:"go" ~args:[]))
      machine
  in
  (prog, cov))

let coverage_zero_trip_loop () =
  let _, cov = Lazy.force cov_report in
  let executed line =
    Rca_coverage.Coverage.line_executed cov ~module_:"covmod" ~sub:"go" ~line
  in
  check_bool "straight-line statement executed" true (executed line_init);
  check_bool "zero-trip loop body never executed" false (executed line_zero_trip_body);
  check_bool "false-branch body never executed" false (executed line_dead_branch)

let coverage_unreachable_subprogram () =
  let prog, cov = Lazy.force cov_report in
  check_bool "module executed" true (Rca_coverage.Coverage.module_executed cov "covmod");
  check_bool "called subprogram executed" true
    (Rca_coverage.Coverage.subprogram_executed cov ~module_:"covmod" ~sub:"go");
  check_bool "uncalled subprogram not executed" false
    (Rca_coverage.Coverage.subprogram_executed cov ~module_:"covmod" ~sub:"never");
  check_bool "unreachable body line not executed" false
    (Rca_coverage.Coverage.line_executed cov ~module_:"covmod" ~sub:"never"
       ~line:line_never_body);
  let rep = Rca_coverage.Coverage.report prog cov in
  check_int "one of two subprograms executed" 1
    rep.Rca_coverage.Coverage.subprograms_executed;
  check_int "two subprograms total" 2 rep.Rca_coverage.Coverage.subprograms_total;
  let filtered = Rca_coverage.Coverage.filter_program prog cov in
  match filtered with
  | [ m ] ->
      check_bool "filtered program keeps only the executed subprogram" true
        (List.exists (fun s -> s.Rca_fortran.Ast.s_name = "go")
           m.Rca_fortran.Ast.m_subprograms
        && not
             (List.exists
                (fun s ->
                  s.Rca_fortran.Ast.s_name = "never"
                  && s.Rca_fortran.Ast.s_body <> [])
                m.Rca_fortran.Ast.m_subprograms))
  | _ -> Alcotest.fail "expected one module after filtering"

(* --- score_sets ---------------------------------------------------------------- *)

(* The hash-set scorer must equal the quadratic List.mem reference on
   every input, including duplicate candidates (deduped) and duplicate
   expected entries (recall still divides by the raw expected length). *)
let score_sets_reference ~expected ~candidates =
  let cands = List.sort_uniq compare candidates in
  let inter = List.length (List.filter (fun c -> List.mem c expected) cands) in
  let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let precision = ratio inter (List.length cands) in
  let recall = ratio inter (List.length expected) in
  let f1 =
    if precision +. recall = 0.0 then 0.0
    else 2.0 *. precision *. recall /. (precision +. recall)
  in
  (precision, recall, f1)

let score_triple s =
  Rca_faults.Campaign.(s.precision, s.recall, s.f1)

let score_sets_matches_reference () =
  let cases =
    [
      ([], []);
      ([ "a" ], []);
      ([], [ "a" ]);
      ([ "a"; "b" ], [ "b"; "a" ]);
      ([ "a"; "b"; "c" ], [ "b"; "b"; "d"; "b" ]);
      ([ "a"; "a"; "b" ], [ "a" ]);  (* duplicate expected entries *)
      ([ "x" ], [ "y"; "z" ]);
    ]
  in
  List.iter
    (fun (expected, candidates) ->
      Alcotest.(check (triple (float 0.0) (float 0.0) (float 0.0)))
        (Printf.sprintf "expected=[%s] candidates=[%s]" (String.concat ";" expected)
           (String.concat ";" candidates))
        (score_sets_reference ~expected ~candidates)
        (score_triple (Rca_faults.Campaign.score_sets ~expected ~candidates)))
    cases

let score_sets_qcheck =
  QCheck.Test.make ~name:"score_sets = List.mem reference" ~count:500
    QCheck.(pair (small_list (int_bound 20)) (small_list (int_bound 20)))
    (fun (expected, candidates) ->
      score_sets_reference ~expected ~candidates
      = score_triple (Rca_faults.Campaign.score_sets ~expected ~candidates))

(* --- suite ------------------------------------------------------------------- *)

let () =
  Alcotest.run "rca_faults"
    [
      ( "inject",
        [
          Alcotest.test_case "absent pattern" `Quick inject_absent_pattern;
          Alcotest.test_case "duplicate pattern" `Quick inject_duplicate_pattern_raises;
          Alcotest.test_case "overlapping pattern" `Quick
            inject_overlapping_counted_without_overlap;
          Alcotest.test_case "inject_line contract" `Quick inject_line_contract;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "campaign floor" `Quick corpus_meets_campaign_floor;
          Alcotest.test_case "ids and ground truth" `Quick
            corpus_ids_unique_and_ground_truth_resolves;
          Alcotest.test_case "same-seed determinism" `Quick corpus_same_seed_identical;
          Alcotest.test_case "injections apply" `Quick corpus_injections_apply;
          Alcotest.test_case "intent_guard visible to callcheck" `Quick
            intent_guard_flagged_by_callcheck;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "same-seed scorecards byte-identical" `Slow
            campaign_same_seed_byte_identical;
        ] );
      ( "score",
        [
          Alcotest.test_case "score_sets reference cases" `Quick score_sets_matches_reference;
          QCheck_alcotest.to_alcotest score_sets_qcheck;
        ] );
      ( "located_bugs",
        [
          Alcotest.test_case "empty bug set" `Quick located_bugs_empty_bug_set;
          Alcotest.test_case "bug outside slice" `Quick located_bugs_outside_slice;
          Alcotest.test_case "multiple bugs, one community" `Quick
            located_bugs_multiple_in_one_community;
          Alcotest.test_case "detected-only bug" `Quick located_bugs_detected_only;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "zero-trip loop" `Quick coverage_zero_trip_loop;
          Alcotest.test_case "unreachable code" `Quick coverage_unreachable_subprogram;
        ] );
    ]
