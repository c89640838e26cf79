(* Tests for rca_analysis: CFG construction, reaching-definitions and
   liveness fixed points, the diagnostics engine (each kind seeded and
   clean), conservative havoc for Unparsed statements, the differential
   metagraph oracle, observational safety of static pruning, name-level
   agreement between Rca_fortran.Visibility and the resolver, and a
   mutation fuzz of the Fortran front end. *)

open Rca_fortran
module A = Rca_analysis.Analysis
module Cfg = Rca_analysis.Cfg
module Dataflow = Rca_analysis.Dataflow
module Defuse = Rca_analysis.Defuse
module D = Rca_analysis.Diagnostics
module Oracle = Rca_analysis.Oracle
module MG = Rca_metagraph.Metagraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse src = Parser.parse_file ~strict:false ~file:"t.F90" src

let analyze src = A.analyze (parse src)

let diags src = (analyze src).A.diags

let of_kind k ds = List.filter (fun d -> d.D.kind = k) ds

let flow_of src ~sub =
  match A.find_sub (analyze src) ~module_:"m" ~sub with
  | Some sa -> sa.A.sa_flow
  | None -> Alcotest.failf "subprogram %s not analyzed" sub

let cfg_of src ~sub =
  match A.find_sub (analyze src) ~module_:"m" ~sub with
  | Some sa -> sa.A.sa_cfg
  | None -> Alcotest.failf "subprogram %s not analyzed" sub

let block_with (cfg : Cfg.t) pred =
  let found = ref None in
  Array.iteri
    (fun i instrs -> if Array.exists pred instrs && !found = None then found := Some i)
    cfg.Cfg.blocks;
  match !found with Some i -> i | None -> Alcotest.fail "no block matches"

(* --- CFG shape ---------------------------------------------------------------- *)

let cfg_straight_line () =
  let cfg =
    cfg_of ~sub:"s"
      "module m\ncontains\nsubroutine s()\nreal(r8) :: a, b\na = 1.0\nb = a\na = b\nend subroutine\nend module m"
  in
  check_int "three instructions" 3 (Cfg.n_instrs cfg);
  Alcotest.(check (list int)) "nothing unreachable" [] (Cfg.unreachable_lines cfg)

let cfg_if_else_branches () =
  let cfg =
    cfg_of ~sub:"s"
      "module m\nreal(r8) :: x, y\ncontains\nsubroutine s()\nif (x > 0.0) then\ny = 1.0\nelse\ny = 2.0\nend if\nx = y\nend subroutine\nend module m"
  in
  (* Cond + two branch assigns + join assign *)
  check_int "instructions" 4 (Cfg.n_instrs cfg);
  let cond = block_with cfg (function Cfg.Cond _ -> true | _ -> false) in
  check_int "condition block forks" 2 (List.length cfg.Cfg.succ.(cond));
  Alcotest.(check (list int)) "nothing unreachable" [] (Cfg.unreachable_lines cfg)

let cfg_do_loop_edges () =
  let cfg =
    cfg_of ~sub:"s"
      "module m\nreal(r8) :: acc\ncontains\nsubroutine s()\ninteger :: i\ndo i = 1, 10\nacc = acc + 1.0\nend do\nacc = acc * 2.0\nend subroutine\nend module m"
  in
  let head = block_with cfg (function Cfg.Do_header _ -> true | _ -> false) in
  (* zero-trip: the header reaches both the body and the code after *)
  check_int "header forks" 2 (List.length cfg.Cfg.succ.(head));
  check_bool "header has a back edge" true (List.length cfg.Cfg.pred.(head) >= 2);
  Alcotest.(check (list int)) "all reachable" [] (Cfg.unreachable_lines cfg)

let cfg_early_return_unreachable () =
  let cfg =
    cfg_of ~sub:"s"
      "module m\ncontains\nsubroutine s()\nreal(r8) :: x\nx = 1.0\nreturn\nx = 2.0\nend subroutine\nend module m"
  in
  Alcotest.(check (list int)) "statement after return" [ 7 ] (Cfg.unreachable_lines cfg)

let cfg_exit_unreachable_tail () =
  let cfg =
    cfg_of ~sub:"s"
      "module m\nreal(r8) :: a, b\ncontains\nsubroutine s()\ninteger :: i\ndo i = 1, 5\nexit\na = 1.0\nend do\nb = 2.0\nend subroutine\nend module m"
  in
  (* a = 1.0 (line 8) is dead; b = 2.0 (line 10) is reached via the exit *)
  Alcotest.(check (list int)) "only the post-exit body line" [ 8 ]
    (Cfg.unreachable_lines cfg)

(* --- dataflow fixed points ------------------------------------------------------ *)

let du_chain_on_kernel () =
  let flow =
    flow_of ~sub:"s"
      "module m\ncontains\nsubroutine s(x, y)\nreal(r8), intent(in) :: x\nreal(r8), intent(out) :: y\nreal(r8) :: t\nt = x + 1.0\ny = t * 2.0\nend subroutine\nend module m"
  in
  let chains = Dataflow.du_chains flow in
  check_bool "def t@7 reaches use t@8" true
    (List.exists
       (fun { Dataflow.du_def; du_use } ->
         du_def.Defuse.d_var.Rca_analysis.Scope.v_name = "t"
         && du_def.Defuse.d_line = 7 && du_use.Defuse.u_line = 8)
       chains)

let liveness_at_exit_is_escape_set () =
  let flow =
    flow_of ~sub:"s"
      "module m\ncontains\nsubroutine s(x, y)\nreal(r8), intent(in) :: x\nreal(r8), intent(out) :: y\nreal(r8) :: t\nt = x + 1.0\ny = t * 2.0\nend subroutine\nend module m"
  in
  let live = Dataflow.live_out_names flow flow.Dataflow.cfg.Cfg.exit_ in
  check_bool "intent(out) live at exit" true (List.mem "y" live);
  check_bool "local dead at exit" false (List.mem "t" live)

let loop_carried_value_not_dead () =
  let ds =
    diags
      "module m\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: acc\ninteger :: i\nacc = 0.0\ndo i = 1, 4\nacc = acc + 1.0\nend do\ny = acc\nend subroutine\nend module m"
  in
  check_int "no findings on the accumulation kernel" 0 (List.length ds)

(* --- diagnostics: each kind seeded + clean -------------------------------------- *)

let use_before_def_definite () =
  let ds =
    diags
      "module m\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: t\ny = t\nend subroutine\nend module m"
  in
  match of_kind D.Use_before_def ds with
  | [ d ] ->
      check_bool "error severity" true (d.D.severity = D.Error);
      check_int "line" 6 d.D.line;
      Alcotest.(check string) "variable" "t" d.D.var
  | _ -> Alcotest.fail "expected exactly one use-before-def"

let use_before_def_clean () =
  let ds =
    diags
      "module m\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: t\nt = 1.0\ny = t\nend subroutine\nend module m"
  in
  check_int "no uninit findings" 0
    (List.length (of_kind D.Use_before_def ds) + List.length (of_kind D.Use_maybe_uninit ds))

let maybe_uninit_on_one_branch () =
  let ds =
    diags
      "module m\ncontains\nsubroutine s(x, y)\nreal(r8), intent(in) :: x\nreal(r8), intent(out) :: y\nreal(r8) :: t\nif (x > 0.0) then\nt = 1.0\nend if\ny = t\nend subroutine\nend module m"
  in
  (match of_kind D.Use_maybe_uninit ds with
  | [ d ] ->
      check_bool "warning severity" true (d.D.severity = D.Warning);
      check_int "line" 10 d.D.line
  | _ -> Alcotest.fail "expected exactly one maybe-uninit");
  check_int "not a definite error" 0 (List.length (of_kind D.Use_before_def ds))

let maybe_uninit_clean_when_both_branches_assign () =
  let ds =
    diags
      "module m\ncontains\nsubroutine s(x, y)\nreal(r8), intent(in) :: x\nreal(r8), intent(out) :: y\nreal(r8) :: t\nif (x > 0.0) then\nt = 1.0\nelse\nt = 2.0\nend if\ny = t\nend subroutine\nend module m"
  in
  check_int "no uninit findings" 0
    (List.length (of_kind D.Use_before_def ds) + List.length (of_kind D.Use_maybe_uninit ds))

let dead_assignment_detected () =
  let ds =
    diags
      "module m\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: t\nt = 1.0\nt = 2.0\ny = t\nend subroutine\nend module m"
  in
  match of_kind D.Dead_assignment ds with
  | [ d ] ->
      check_int "overwritten store" 6 d.D.line;
      Alcotest.(check string) "variable" "t" d.D.var
  | _ -> Alcotest.fail "expected exactly one dead assignment"

let unused_and_shadowed () =
  let ds =
    diags
      "module m\nreal(r8) :: w\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: w\nreal(r8) :: unused_v\nw = 1.0\ny = w\nend subroutine\nend module m"
  in
  (match of_kind D.Unused_variable ds with
  | [ d ] -> Alcotest.(check string) "unused variable" "unused_v" d.D.var
  | _ -> Alcotest.fail "expected exactly one unused variable");
  match of_kind D.Shadowed_variable ds with
  | [ d ] ->
      Alcotest.(check string) "shadowing local" "w" d.D.var;
      check_bool "info severity" true (d.D.severity = D.Info)
  | _ -> Alcotest.fail "expected exactly one shadowed variable"

let write_to_intent_in () =
  let ds =
    diags
      "module m\nreal(r8) :: g\ncontains\nsubroutine s(x)\nreal(r8), intent(in) :: x\nx = 3.0\ng = x\nend subroutine\nend module m"
  in
  match of_kind D.Write_to_intent_in ds with
  | [ d ] ->
      check_bool "error severity" true (d.D.severity = D.Error);
      check_int "line" 6 d.D.line
  | _ -> Alcotest.fail "expected exactly one intent(in) write"

let intent_out_never_set () =
  let seeded =
    diags
      "module m\nreal(r8) :: g\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\ng = 1.0\nend subroutine\nend module m"
  in
  (match of_kind D.Intent_out_never_set seeded with
  | [ d ] -> Alcotest.(check string) "variable" "y" d.D.var
  | _ -> Alcotest.fail "expected exactly one intent(out) finding");
  let clean =
    diags
      "module m\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\ny = 1.0\nend subroutine\nend module m"
  in
  check_int "assigned intent(out) is fine" 0
    (List.length (of_kind D.Intent_out_never_set clean))

let unreachable_reported () =
  let ds =
    diags
      "module m\ncontains\nsubroutine s()\nreal(r8) :: x\nx = 1.0\nreturn\nx = 2.0\nend subroutine\nend module m"
  in
  match of_kind D.Unreachable_code ds with
  | [ d ] -> check_int "line" 7 d.D.line
  | _ -> Alcotest.fail "expected exactly one unreachable finding"

(* --- interprocedural summaries --------------------------------------------------- *)

let call_site_defines_actual () =
  (* `call setval(a)` must count as a definition of `a`: no use-before-def
     on the later read.  Both via declared intent(out) and via the
     read/write summary of an intent-free callee. *)
  let ds =
    diags
      "module m\ncontains\nsubroutine setval(v)\nreal(r8), intent(out) :: v\nv = 3.0\nend subroutine\nsubroutine noint(v)\nreal(r8) :: v\nv = 4.0\nend subroutine\nsubroutine use_it(r, q)\nreal(r8), intent(out) :: r, q\nreal(r8) :: a, b\ncall setval(a)\ncall noint(b)\nr = a\nq = b\nend subroutine\nend module m"
  in
  check_int "no uninit findings" 0
    (List.length (of_kind D.Use_before_def ds) + List.length (of_kind D.Use_maybe_uninit ds))

let missing_call_makes_use_before_def () =
  let ds =
    diags
      "module m\ncontains\nsubroutine setval(v)\nreal(r8), intent(out) :: v\nv = 3.0\nend subroutine\nsubroutine use_it(r)\nreal(r8), intent(out) :: r\nreal(r8) :: a\nr = a\nend subroutine\nend module m"
  in
  check_int "definite use-before-def" 1 (List.length (of_kind D.Use_before_def ds))

(* --- Unparsed statements are conservative havoc ---------------------------------- *)

let unparsed_is_conservative () =
  (* `where` defeats the parser.  The havoc model must (a) not report its
     reads as use-before-def and (b) keep earlier stores alive. *)
  let ds =
    diags
      "module m\ncontains\nsubroutine s()\nreal(r8) :: q(4), qt(4)\nqt = 0.0\nwhere (q > 0.0) qt = qt + q * 0.5\nend subroutine\nend module m"
  in
  check_int "no findings at all" 0 (List.length ds)

(* --- differential oracle ---------------------------------------------------------- *)

let oracle_green_on_synth_model () =
  let fixture = Rca_experiments.Fixture.make Rca_synth.Config.tiny in
  let an = A.analyze fixture.Rca_experiments.Fixture.covered_program in
  let rep = A.check_oracle an fixture.Rca_experiments.Fixture.mg in
  check_bool "no mismatches, no orphans" true (Oracle.ok rep);
  check_bool "pairs derived" true (rep.Oracle.rp_pairs > 0);
  check_int "every edge explained" rep.Oracle.rp_edges rep.Oracle.rp_pairs

let analyze_scope prog = (A.analyze prog).A.program_scope

let oracle_mismatch_has_provenance () =
  let prog = parse "module m\nreal(r8) :: x, y\ncontains\nsubroutine s()\ny = x\nend subroutine\nend module m" in
  let mg = MG.build prog in
  let x =
    match MG.find_node mg ~module_:"m" ~sub:"" ~name:"x" with
    | Some id -> id
    | None -> Alcotest.fail "x node missing"
  in
  (* dropping x's edges leaves the static pair x -> y unexplained *)
  let pruned = Rca_oracle.List_engine.without_nodes mg ~dead:[ x ] in
  let rep = Oracle.check (analyze_scope prog) pruned in
  match rep.Oracle.rp_mismatches with
  | [ m ] ->
      Alcotest.(check string) "file" "t.F90" m.Oracle.mis_pair.Oracle.p_file;
      check_int "line" 5 m.Oracle.mis_pair.Oracle.p_line
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms)

(* --- static pruning --------------------------------------------------------------- *)

let dead_var_detection_is_precise () =
  let an =
    analyze
      "module m\nreal(r8) :: out_v\ncontains\nsubroutine s()\nreal(r8) :: deadl, livel\ndeadl = 1.0\nlivel = 2.0\nout_v = livel\nend subroutine\nend module m"
  in
  Alcotest.(check (list (triple string string string)))
    "only the never-read local" [ ("m", "s", "deadl") ] (A.dead_var_keys an)

let static_prune_observationally_safe () =
  (* Acceptance criterion: the GOFFGRATCH pipeline outcome is identical
     with and without static dead-node pruning. *)
  let open Rca_experiments in
  let params =
    {
      (Harness.default_params Rca_synth.Config.tiny) with
      Harness.ensemble_members = 15;
      experimental_members = 6;
    }
  in
  let base = Harness.run ~validate_sampling:false Experiments.goffgratch params in
  let pruned =
    Harness.run ~validate_sampling:false Experiments.goffgratch
      { params with Harness.static_prune = true }
  in
  check_int "slice nodes" base.Harness.slice_nodes pruned.Harness.slice_nodes;
  check_int "slice edges" base.Harness.slice_edges pruned.Harness.slice_edges;
  check_int "refine iterations" (Harness.iteration_count base) (Harness.iteration_count pruned);
  Alcotest.(check (list int)) "final candidate set"
    (List.sort compare base.Harness.pipeline.Rca_core.Pipeline.result.Rca_core.Refine.final_nodes)
    (List.sort compare pruned.Harness.pipeline.Rca_core.Pipeline.result.Rca_core.Refine.final_nodes);
  check_bool "bugs located" base.Harness.bugs_located pruned.Harness.bugs_located;
  check_bool "analysis attached when pruning" true (pruned.Harness.analysis <> None)

(* --- report ------------------------------------------------------------------------ *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let json_report_is_stable () =
  let an =
    analyze
      "module m\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: t\ny = t\nend subroutine\nend module m"
  in
  let module J = Rca_obs.Jsonio in
  let json = A.report_json an in
  check_bool "has version" true (Option.bind (J.member "version" json) J.int_opt = Some 2);
  let finding =
    Option.bind (J.member "diagnostics" json) J.list_opt
    |> Option.value ~default:[]
    |> List.find_opt (fun d -> J.member "kind" d = Some (J.Str "use-before-def"))
  in
  check_bool "has the finding" true (finding <> None);
  check_bool "has symbol field" true (Option.bind finding (J.member "symbol") <> None);
  check_bool "has def provenance" true (Option.bind finding (J.member "def_file") <> None)

(* --- resolver: adversarial scoping ------------------------------------------------ *)

module R = Rca_analysis.Resolve

let analyze_strict src = A.analyze ~strict_types:true (parse src)

let resolution src = (analyze src).A.resolution

let resolver_dummy_arg_shadows_module_var () =
  let res =
    resolution
      "module m\nreal(r8) :: x\ncontains\nsubroutine s(x)\nreal(r8), intent(in) :: x\nend subroutine\nend module m"
  in
  let formal =
    match R.lookup_var res ~module_:"m" ~sub:"s" "x" with
    | Some s -> s
    | None -> Alcotest.fail "dummy arg did not resolve"
  in
  let modvar =
    match R.module_var res ~module_:"m" "x" with
    | Some s -> s
    | None -> Alcotest.fail "module var did not resolve"
  in
  check_bool "inside the sub, x is the formal" true
    (match formal.R.sym_kind with R.Sformal (Some Ast.In) -> true | _ -> false);
  check_bool "module scope still holds its own x" true
    (match modvar.R.sym_kind with R.Smodule_var { owner = "m"; _ } -> true | _ -> false);
  check_bool "two distinct symbols" true (formal.R.sym_id <> modvar.R.sym_id);
  check_int "formal def site" 5 formal.R.sym_line;
  check_int "module var def site" 2 modvar.R.sym_line

let resolver_import_redeclared_locally () =
  let src =
    "module a\nreal(r8) :: v\ncontains\nsubroutine nop()\nend subroutine\nend module a\nmodule m\nuse a\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: v\nv = 1.0\ny = v\nend subroutine\nend module m"
  in
  let res = resolution src in
  (* the local declaration wins inside the sub; the import stays visible
     at module scope with its def site in module a *)
  check_bool "local v wins in the sub" true
    (match R.lookup_var res ~module_:"m" ~sub:"s" "v" with
    | Some { R.sym_kind = R.Slocal _; sym_sub = "s"; _ } -> true
    | _ -> false);
  check_bool "import still visible at module scope, owned by a" true
    (match R.module_var res ~module_:"m" "v" with
    | Some { R.sym_kind = R.Smodule_var { owner = "a"; _ }; _ } -> true
    | _ -> false);
  match of_kind D.Shadowed_import (diags src) with
  | [ d ] ->
      Alcotest.(check string) "shadowing local" "v" d.D.var;
      check_bool "info severity" true (d.D.severity = D.Info)
  | ds -> Alcotest.failf "expected one shadowed-import, got %d" (List.length ds)

let resolver_same_named_locals_distinct () =
  let res =
    resolution
      "module m\ncontains\nsubroutine s1()\nreal(r8) :: tmp\ntmp = 1.0\nend subroutine\nsubroutine s2()\ninteger :: tmp\ntmp = 2\nend subroutine\nend module m"
  in
  let t1 =
    match R.lookup_local res ~module_:"m" ~sub:"s1" "tmp" with
    | Some s -> s
    | None -> Alcotest.fail "tmp in s1 missing"
  in
  let t2 =
    match R.lookup_local res ~module_:"m" ~sub:"s2" "tmp" with
    | Some s -> s
    | None -> Alcotest.fail "tmp in s2 missing"
  in
  check_bool "distinct symbols" true (t1.R.sym_id <> t2.R.sym_id);
  Alcotest.(check string) "scoped to s1" "s1" t1.R.sym_sub;
  Alcotest.(check string) "scoped to s2" "s2" t2.R.sym_sub;
  Alcotest.(check (option string)) "s1's tmp is real" (Some "real")
    (Option.map R.ty_str t1.R.sym_ty);
  Alcotest.(check (option string)) "s2's tmp is integer" (Some "integer")
    (Option.map R.ty_str t2.R.sym_ty)

let resolver_undeclared_name_goes_implicit () =
  let src =
    "module m\nreal(r8) :: g\ncontains\nsubroutine s()\ng = undeclared_r + i_count\nend subroutine\nend module m"
  in
  let an = analyze_strict src in
  let res = an.A.resolution in
  (* implicits never count as visible variables... *)
  check_bool "not visible to lookup_var" true
    (R.lookup_var res ~module_:"m" ~sub:"s" "undeclared_r" = None);
  (* ...but the pre-walk interned them with Fortran implicit types *)
  let imps = R.implicits_of_sub res ~module_:"m" ~sub:"s" in
  check_int "two implicit symbols" 2 (List.length imps);
  let ty_of name =
    match List.find_opt (fun s -> s.R.sym_name = name) imps with
    | Some { R.sym_ty = Some t; _ } -> R.ty_str t
    | _ -> Alcotest.failf "implicit %s missing" name
  in
  Alcotest.(check string) "i..n rule" "integer" (ty_of "i_count");
  Alcotest.(check string) "default real" "real" (ty_of "undeclared_r");
  check_int "strict mode warns per implicit" 2
    (List.length (of_kind D.Undeclared_implicit an.A.diags))

let resolver_signature_roundtrip () =
  (* resolved -> pretty-printed -> reparsed -> re-resolved must keep the
     same line-number-free symbol structure *)
  let fixture = Rca_experiments.Fixture.make Rca_synth.Config.tiny in
  let prog = fixture.Rca_experiments.Fixture.clean_program in
  let sig1 = R.signature (R.program prog) in
  let text = Pretty.program_to_string prog in
  let prog2 = Parser.parse_file ~strict:false ~file:"roundtrip.F90" text in
  let sig2 = R.signature (R.program prog2) in
  check_int "symbol population preserved" (List.length sig1) (List.length sig2);
  check_bool "identical structural signature" true (sig1 = sig2)

(* --- strict types: typecheck -------------------------------------------------------- *)

let strict_kind k src = of_kind k (analyze_strict src).A.diags

let typecheck_assignment_mismatch () =
  let src =
    "module m\ncontains\nsubroutine s()\nreal(r8) :: x\nlogical :: flag\nflag = .true.\nx = flag\nend subroutine\nend module m"
  in
  (match strict_kind D.Type_mismatch src with
  | [ d ] ->
      check_bool "error severity" true (d.D.severity = D.Error);
      check_int "line" 7 d.D.line
  | ds -> Alcotest.failf "expected one type-mismatch, got %d" (List.length ds));
  (* without --strict-types the checker does not run at all *)
  check_int "gated behind strict mode" 0 (List.length (of_kind D.Type_mismatch (diags src)))

let typecheck_rank_mismatch () =
  let src =
    "module m\ncontains\nsubroutine s()\nreal(r8) :: a(10)\nreal(r8) :: b(10,10)\nb = 0.0\na = b\nend subroutine\nend module m"
  in
  match strict_kind D.Type_mismatch src with
  | [ d ] -> check_int "rank conflict line" 7 d.D.line
  | ds -> Alcotest.failf "expected one rank mismatch, got %d" (List.length ds)

let typecheck_broadcast_is_clean () =
  (* scalar -> array broadcast, int <-> real conversion, unknown-typed
     intrinsics: all legal, zero strict findings *)
  let src =
    "module m\ncontains\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: a(10)\ninteger :: i\na = 0.0\ndo i = 1, 10\na(i) = sqrt(real(i))\nend do\ny = a(1) + i\nend subroutine\nend module m"
  in
  let an = analyze_strict src in
  check_int "no strict errors" 0 (List.length (A.errors an))

(* --- strict types: callcheck -------------------------------------------------------- *)

let callcheck_arity_mismatch () =
  let src =
    "module m\ncontains\nsubroutine callee(a, b)\nreal(r8), intent(in) :: a, b\nend subroutine\nsubroutine s()\nreal(r8) :: x\nx = 1.0\ncall callee(x)\nend subroutine\nend module m"
  in
  match strict_kind D.Arity_mismatch src with
  | [ d ] ->
      check_bool "error severity" true (d.D.severity = D.Error);
      check_int "call site" 9 d.D.line;
      (* provenance points at the callee's definition, not the call *)
      check_int "callee def site" 3 d.D.def_line
  | ds -> Alcotest.failf "expected one arity mismatch, got %d" (List.length ds)

let callcheck_argument_type_mismatch () =
  let src =
    "module m\ncontains\nsubroutine callee(flag)\nlogical, intent(in) :: flag\nend subroutine\nsubroutine s()\nreal(r8) :: x\nx = 1.0\ncall callee(x)\nend subroutine\nend module m"
  in
  match strict_kind D.Type_mismatch src with
  | [ d ] -> check_int "call site" 9 d.D.line
  | ds -> Alcotest.failf "expected one argument type mismatch, got %d" (List.length ds)

let callcheck_intent_at_call_site () =
  (* three protected actuals against a written formal: a literal, the
     caller's own intent(in) formal, and a module-level named constant *)
  let src =
    "module m\nreal(r8), parameter :: pc = 2.0_r8\ncontains\nsubroutine callee(a)\nreal(r8), intent(inout) :: a\na = a + 1.0\nend subroutine\nsubroutine s(z)\nreal(r8), intent(in) :: z\ncall callee(1.0)\ncall callee(z)\ncall callee(pc)\nend subroutine\nend module m"
  in
  let hits = strict_kind D.Intent_at_call_site src in
  check_int "all three protected actuals flagged" 3 (List.length hits);
  let has needle =
    List.exists (fun d -> contains_substring d.D.message needle) hits
  in
  check_bool "literal actual" true (has "is not a variable");
  check_bool "caller's intent(in) formal" true (has "intent(in) argument 'z'");
  check_bool "module named constant" true (has "named constant 'pc'")

let callcheck_writable_actual_is_clean () =
  let src =
    "module m\ncontains\nsubroutine callee(a)\nreal(r8), intent(inout) :: a\na = a + 1.0\nend subroutine\nsubroutine s(y)\nreal(r8), intent(out) :: y\nreal(r8) :: t\nt = 0.0\ncall callee(t)\ny = t\nend subroutine\nend module m"
  in
  check_int "no intent findings" 0 (List.length (strict_kind D.Intent_at_call_site src))

(* ---- visibility: builder side against oracle side ---------------------------- *)

module Model = Rca_synth.Model

(* Every name either side's module tables can hold: declarations,
   subprograms, named interfaces and only-list local names. *)
let candidate_names (prog : Ast.program) =
  let names = Hashtbl.create 1024 in
  let add n = Hashtbl.replace names n () in
  List.iter
    (fun (mu : Ast.module_unit) ->
      List.iter (fun (d : Ast.decl) -> add d.Ast.d_name) mu.Ast.m_decls;
      List.iter (fun (s : Ast.subprogram) -> add s.Ast.s_name) mu.Ast.m_subprograms;
      List.iter (fun (i : Ast.interface_def) -> add i.Ast.i_name) mu.Ast.m_interfaces;
      List.iter
        (fun (u : Ast.use_stmt) ->
          Option.iter (List.iter (fun (local, _) -> add local)) u.Ast.u_only)
        mu.Ast.m_uses)
    prog;
  Hashtbl.fold (fun n () acc -> n :: acc) names [] |> List.sort compare

let visibility_matches_resolver () =
  List.iter
    (fun (scale, config) ->
      let whole = Model.parse_program (Model.generate config) in
      List.iter
        (fun (label, prog) ->
          let vis = Visibility.of_program prog and res = R.program prog in
          let names = candidate_names prog in
          let vars = ref 0 and subs = ref 0 in
          List.iter
            (fun (mu : Ast.module_unit) ->
              let module_ = mu.Ast.m_name in
              let sc = Visibility.scope vis module_ in
              List.iter
                (fun name ->
                  let oracle_var =
                    Option.map
                      (fun (s : R.symbol) ->
                        match s.R.sym_kind with
                        | R.Smodule_var { owner; _ } -> (owner, s.R.sym_name)
                        | _ ->
                            Alcotest.failf "%s: %s.%s is not a module variable" scale module_ name)
                      (R.module_var res ~module_ name)
                  in
                  if Visibility.var sc name <> oracle_var then
                    Alcotest.failf "%s %s: %s.%s: Visibility.var differs from Resolve.module_var"
                      scale label module_ name;
                  let keys =
                    List.map
                      (fun (c : Visibility.callable) ->
                        (c.Visibility.c_module, c.Visibility.c_sub.Ast.s_name))
                      (Visibility.callables sc name)
                  in
                  if keys <> R.callables res ~module_ name then
                    Alcotest.failf
                      "%s %s: %s.%s: Visibility.callables differs from Resolve.callables" scale
                      label module_ name;
                  if oracle_var <> None then incr vars;
                  if keys <> [] then incr subs)
                names)
            prog;
          check_bool "some variables compared" true (!vars > 0);
          check_bool "some callables compared" true (!subs > 0))
        [ ("whole", whole); ("built", Model.build_filter whole ~driver:"cam_driver") ])
    Rca_synth.Config.[ ("tiny", tiny); ("small", small); ("paper", paper) ]

(* ---- Fortran-source fuzz --------------------------------------------------------- *)

module Machine = Rca_interp.Machine
module Tree = Rca_oracle.Tree_interp
module Prng = Rca_rng.Prng

let fuzz_tokens =
  [ "::"; "=>"; "="; "("; ")"; ","; "%"; "\n"; "&"; "!"; "'"; "use "; ", only: ";
    "module "; "end "; "subroutine "; "function "; "contains"; "interface ";
    "type("; "call "; "if ("; ") then"; "do i = 1, 2"; "real(r8) :: "; "integer :: ";
    "parameter"; "intent(in)"; "x"; "1"; "0.5"; "+"; "*"; ".and."; "(:)" ]

(* One to four edits: a byte deleted or replaced, a token inserted, or a
   span of up to 64 bytes deleted. *)
let mutate rng src =
  let edit s =
    let n = String.length s in
    if n = 0 then s
    else
      let i = Prng.int rng n in
      match Prng.int rng 4 with
      | 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | 1 ->
          let c = Char.chr (9 + Prng.int rng 118) in
          String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
      | 2 -> String.sub s 0 i ^ Prng.choose rng fuzz_tokens ^ String.sub s i (n - i)
      | _ ->
          let len = min (n - i) (1 + Prng.int rng 64) in
          String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (1 + Prng.int rng 4) src

let tiny_files () = (Model.generate Rca_synth.Config.tiny).Model.files

let fuzz_parser_single_files () =
  let rng = Rca_rng.Splitmix.create 20_260_519 in
  let files = Array.of_list (tiny_files ()) in
  let parsed = ref 0 in
  for case = 0 to 9_999 do
    let file, src = files.(case mod Array.length files) in
    let mutant = mutate rng src in
    match Parser.parse_file ~strict:false ~file mutant with
    | _ -> incr parsed
    | exception Parser.Parse_error _ -> ()
    | exception e ->
        Alcotest.failf "case %d (%s): parse raised %s on\n%s" case file
          (Printexc.to_string e) mutant
  done;
  check_bool "most mutants still parse" true (!parsed > 5_000)

let fuzz_whole_program () =
  let rng = Rca_rng.Splitmix.create 20_260_520 in
  let files = Array.of_list (tiny_files ()) in
  let parsed = Array.map (fun (file, src) -> Parser.parse_file ~strict:false ~file src) files in
  let cases = ref 0 and attempts = ref 0 in
  while !cases < 1_000 do
    let k = !attempts mod Array.length files in
    incr attempts;
    let file, src = files.(k) in
    let mutant = mutate rng src in
    match Parser.parse_file ~strict:false ~file mutant with
    | exception Parser.Parse_error _ -> ()
    | modules ->
        incr cases;
        let prog =
          List.concat (Array.to_list (Array.mapi (fun i p -> if i = k then modules else p) parsed))
        in
        let fail stage e =
          Alcotest.failf "case %d (%s): %s raised %s on\n%s" !cases file stage
            (Printexc.to_string e) mutant
        in
        (try ignore (Visibility.of_program prog) with e -> fail "Visibility.of_program" e);
        (try ignore (MG.build prog) with e -> fail "Metagraph.build" e);
        (try ignore (R.program prog) with e -> fail "Resolve.program" e);
        (* an initializer may call a function: bound the work a mutant buys *)
        match Machine.create ~max_steps:100_000 prog with
        | exception Machine.Runtime_error _ -> ()
        | exception e -> fail "Machine.create" e
        | m ->
            (* one model step on both engines: the same history and log, or
               the same class of failure *)
            let outcome create invoke history printed =
              match create () with
              | exception e -> Error (Printexc.exn_slot_name e |> Filename.extension)
              | t -> (
                  match invoke t with
                  | _ ->
                      let h = List.sort compare (history t) in
                      Ok (List.map (fun (k, v) -> (k, Int64.bits_of_float v)) h, printed t)
                  | exception e -> Error (Printexc.exn_slot_name e |> Filename.extension))
            in
            let args = [ Machine.Vint 1 ] in
            let machine =
              outcome (fun () -> m)
                (fun m -> Machine.invoke m ~module_:"cam_driver" ~sub:"cam_run" ~args)
                Machine.history Machine.printed
            and oracle =
              outcome
                (fun () -> Tree.create ~max_steps:100_000 prog)
                (fun t -> Tree.invoke t ~module_:"cam_driver" ~sub:"cam_run" ~args)
                Tree.history Tree.printed
            in
            if machine <> oracle then
              Alcotest.failf "case %d (%s): the engines disagree (%s vs %s) on\n%s" !cases file
                (match machine with Ok _ -> "ran" | Error e -> e)
                (match oracle with Ok _ -> "ran" | Error e -> e)
                mutant
  done

let () =
  Alcotest.run "rca_analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "straight line" `Quick cfg_straight_line;
          Alcotest.test_case "if/else" `Quick cfg_if_else_branches;
          Alcotest.test_case "do loop" `Quick cfg_do_loop_edges;
          Alcotest.test_case "early return" `Quick cfg_early_return_unreachable;
          Alcotest.test_case "exit" `Quick cfg_exit_unreachable_tail;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "def-use chain" `Quick du_chain_on_kernel;
          Alcotest.test_case "liveness at exit" `Quick liveness_at_exit_is_escape_set;
          Alcotest.test_case "loop-carried" `Quick loop_carried_value_not_dead;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "use-before-def" `Quick use_before_def_definite;
          Alcotest.test_case "use-before-def clean" `Quick use_before_def_clean;
          Alcotest.test_case "maybe-uninit" `Quick maybe_uninit_on_one_branch;
          Alcotest.test_case "maybe-uninit clean" `Quick maybe_uninit_clean_when_both_branches_assign;
          Alcotest.test_case "dead assignment" `Quick dead_assignment_detected;
          Alcotest.test_case "unused + shadowed" `Quick unused_and_shadowed;
          Alcotest.test_case "write to intent(in)" `Quick write_to_intent_in;
          Alcotest.test_case "intent(out) never set" `Quick intent_out_never_set;
          Alcotest.test_case "unreachable" `Quick unreachable_reported;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "call defines actual" `Quick call_site_defines_actual;
          Alcotest.test_case "missing call" `Quick missing_call_makes_use_before_def;
        ] );
      ( "havoc",
        [ Alcotest.test_case "unparsed conservative" `Quick unparsed_is_conservative ] );
      ( "oracle",
        [
          Alcotest.test_case "green on synth model" `Quick oracle_green_on_synth_model;
          Alcotest.test_case "mismatch provenance" `Quick oracle_mismatch_has_provenance;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "dead vars precise" `Quick dead_var_detection_is_precise;
          Alcotest.test_case "observational safety" `Quick static_prune_observationally_safe;
        ] );
      ( "report",
        [ Alcotest.test_case "json stable" `Quick json_report_is_stable ] );
      ( "resolver",
        [
          Alcotest.test_case "dummy arg shadows module var" `Quick
            resolver_dummy_arg_shadows_module_var;
          Alcotest.test_case "import redeclared locally" `Quick
            resolver_import_redeclared_locally;
          Alcotest.test_case "same-named locals distinct" `Quick
            resolver_same_named_locals_distinct;
          Alcotest.test_case "undeclared goes implicit" `Quick
            resolver_undeclared_name_goes_implicit;
          Alcotest.test_case "signature round-trip" `Quick resolver_signature_roundtrip;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "assignment mismatch" `Quick typecheck_assignment_mismatch;
          Alcotest.test_case "rank mismatch" `Quick typecheck_rank_mismatch;
          Alcotest.test_case "broadcast clean" `Quick typecheck_broadcast_is_clean;
        ] );
      ( "visibility",
        [
          Alcotest.test_case "builder side matches resolver" `Quick
            visibility_matches_resolver;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "parser on single files" `Quick fuzz_parser_single_files;
          Alcotest.test_case "whole program" `Quick fuzz_whole_program;
        ] );
      ( "callcheck",
        [
          Alcotest.test_case "arity mismatch" `Quick callcheck_arity_mismatch;
          Alcotest.test_case "argument type mismatch" `Quick
            callcheck_argument_type_mismatch;
          Alcotest.test_case "intent at call site" `Quick callcheck_intent_at_call_site;
          Alcotest.test_case "writable actual clean" `Quick
            callcheck_writable_actual_is_clean;
        ] );
    ]
