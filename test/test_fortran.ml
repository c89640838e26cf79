(* Tests for the rca_fortran library: source handling, lexer, parser,
   pretty-printer round trips and the relaxed fallback parsers. *)

open Rca_fortran

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_slist = Alcotest.(check (list string))

(* --- Source ----------------------------------------------------------------- *)

let logical_lines_basic () =
  let src = "a = 1\nb = 2\n\n! comment only\nc = 3" in
  let lines = Source.logical_lines src in
  check_int "count" 3 (List.length lines);
  check_slist "texts" [ "a = 1"; "b = 2"; "c = 3" ]
    (List.map (fun l -> l.Source.text) lines);
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 5 ]
    (List.map (fun l -> l.Source.line) lines)

let continuation_joining () =
  let src = "x = 1 + &\n    2 + &\n    3\ny = 4" in
  let lines = Source.logical_lines src in
  check_int "count" 2 (List.length lines);
  (match lines with
  | l :: _ ->
      check_str "joined" "x = 1 + 2 + 3" (String.concat " " (String.split_on_char ' ' l.Source.text |> List.filter (( <> ) "")));
      check_int "starts at 1" 1 l.Source.line
  | [] -> Alcotest.fail "no lines")

let continuation_leading_ampersand () =
  let src = "x = 1 + &\n  & 2" in
  match Source.logical_lines src with
  | [ l ] -> check_bool "no ampersand" false (String.contains l.Source.text '&')
  | _ -> Alcotest.fail "expected one logical line"

let comment_inside_string_kept () =
  let src = "s = 'not ! a comment' ! real comment" in
  match Source.logical_lines src with
  | [ l ] -> check_str "kept" "s = 'not ! a comment'" (String.trim l.Source.text)
  | _ -> Alcotest.fail "expected one line"

let code_line_count () =
  let src = "a = 1\n! pure comment\n\nb = 2" in
  check_int "code lines" 2 (Source.count_code_lines src);
  check_int "physical" 4 (Source.count_physical_lines src)

(* --- Lexer ------------------------------------------------------------------- *)

let lex str = Lexer.tokenize str

let lex_idents_case_folded () =
  match lex "Foo_Bar BAZ" with
  | [ Lexer.Ident "foo_bar"; Lexer.Ident "baz" ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat " " (List.map Lexer.token_to_string ts))

let lex_numbers () =
  (match lex "42" with
  | [ Lexer.Inum 42 ] -> ()
  | _ -> Alcotest.fail "int");
  (match lex "1.5" with
  | [ Lexer.Rnum f ] -> Alcotest.(check (float 1e-12)) "1.5" 1.5 f
  | _ -> Alcotest.fail "real");
  (match lex "1.0e-3" with
  | [ Lexer.Rnum f ] -> Alcotest.(check (float 1e-12)) "exp" 0.001 f
  | _ -> Alcotest.fail "exponent");
  (match lex "2.5d0" with
  | [ Lexer.Rnum f ] -> Alcotest.(check (float 1e-12)) "d-exp" 2.5 f
  | _ -> Alcotest.fail "d exponent");
  (match lex "8.1328e-3_r8" with
  | [ Lexer.Rnum f ] -> Alcotest.(check (float 1e-12)) "kind suffix" 8.1328e-3 f
  | _ -> Alcotest.fail "kind suffix");
  match lex ".5" with
  | [ Lexer.Rnum f ] -> Alcotest.(check (float 1e-12)) "leading dot" 0.5 f
  | _ -> Alcotest.fail "leading dot"

let lex_dotops () =
  match lex "a .and. .not. b .or. .true." with
  | [
   Lexer.Ident "a"; Lexer.Dotop "and"; Lexer.Dotop "not"; Lexer.Ident "b";
   Lexer.Dotop "or"; Lexer.Dotop "true";
  ] ->
      ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat " " (List.map Lexer.token_to_string ts))

let lex_two_char_ops () =
  match lex "a ** b == c /= d <= e >= f => g :: h // i" with
  | toks ->
      let ops = List.filter_map (function Lexer.Op o -> Some o | _ -> None) toks in
      check_slist "ops" [ "**"; "=="; "/="; "<="; ">="; "=>"; "::"; "//" ] ops

let lex_number_vs_dotop () =
  (* "1." followed by "and" must not merge: `1 .and.` style *)
  match lex "x = 1 .and. y" with
  | [ Lexer.Ident "x"; Lexer.Op "="; Lexer.Inum 1; Lexer.Dotop "and"; Lexer.Ident "y" ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat " " (List.map Lexer.token_to_string ts))

let lex_string_literals () =
  match lex "s = 'hello world'" with
  | [ Lexer.Ident "s"; Lexer.Op "="; Lexer.Str "hello world" ] -> ()
  | _ -> Alcotest.fail "string literal"

let lex_rejects_garbage () =
  Alcotest.check_raises "bad char"
    (Lexer.Lex_error "unexpected character '#' in \"a # b\"") (fun () ->
      ignore (lex "a # b"))

(* --- Expression parsing -------------------------------------------------------- *)

open Ast

let pe = Parser.parse_expression

let expr_roundtrip_equal msg text =
  let e = pe text in
  let e' = pe (Pretty.expr_str e) in
  Alcotest.(check bool) msg true (e = e')

let parse_precedence () =
  (match pe "1 + 2 * 3" with
  | Ebin (Add, Eint 1, Ebin (Mul, Eint 2, Eint 3)) -> ()
  | _ -> Alcotest.fail "mul binds tighter");
  (match pe "2 ** 3 ** 2" with
  | Ebin (Pow, Eint 2, Ebin (Pow, Eint 3, Eint 2)) -> ()
  | _ -> Alcotest.fail "pow right assoc");
  (match pe "-x ** 2" with
  | Eun (Neg, Ebin (Pow, _, _)) -> ()
  | _ -> Alcotest.fail "unary minus looser than pow");
  match pe "a .or. b .and. c" with
  | Ebin (Or, _, Ebin (And, _, _)) -> ()
  | _ -> Alcotest.fail "and binds tighter than or"

let parse_comparisons () =
  (match pe "a <= b" with
  | Ebin (Le, _, _) -> ()
  | _ -> Alcotest.fail "<=");
  match pe "a .lt. b" with
  | Ebin (Lt, _, _) -> ()
  | _ -> Alcotest.fail ".lt."

let parse_designators () =
  (match pe "state%omega" with
  | Edesig (Dmember (Dname "state", "omega")) -> ()
  | _ -> Alcotest.fail "member");
  (match pe "elem(ie)%derived%omega_p" with
  | Edesig (Dmember (Dmember (Dindex (Dname "elem", [ _ ]), "derived"), "omega_p")) -> ()
  | _ -> Alcotest.fail "chain");
  match pe "a(i, j+1)" with
  | Edesig (Dindex (Dname "a", [ _; Ebin (Add, _, _) ])) -> ()
  | _ -> Alcotest.fail "2d index"

let parse_ranges () =
  (match pe "a(:)" with
  | Edesig (Dindex (Dname "a", [ Erange (None, None) ])) -> ()
  | _ -> Alcotest.fail "full range");
  match pe "a(1:n)" with
  | Edesig (Dindex (Dname "a", [ Erange (Some (Eint 1), Some _) ])) -> ()
  | _ -> Alcotest.fail "bounded range"

let canonical_names () =
  let d =
    match pe "elem(ie)%derived%omega_p" with
    | Edesig d -> d
    | _ -> Alcotest.fail "designator"
  in
  check_str "canonical" "omega_p" (Ast.designator_canonical d);
  check_str "base" "elem" (Ast.designator_base d)

let expr_identifiers_collects () =
  let e = pe "alpha(b(c, d) * e(f(g + h)))" in
  check_slist "idents" [ "alpha"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
    (Ast.expr_identifiers e)

(* --- Statement parsing ----------------------------------------------------------- *)

let ps text = Parser.parse_statement text

let parse_assignment_stmt () =
  match (ps "x = y + 1").node with
  | Assign (Dname "x", Ebin (Add, _, _)) -> ()
  | _ -> Alcotest.fail "assignment"

let parse_call_stmt () =
  match (ps "call physics_update(state, dt)").node with
  | Call ("physics_update", [ _; _ ]) -> ()
  | _ -> Alcotest.fail "call"

let parse_one_line_if () =
  match (ps "if (x > 0) y = 1").node with
  | If ([ (Ebin (Gt, _, _), [ { node = Assign (Dname "y", Eint 1); _ } ]) ], []) -> ()
  | _ -> Alcotest.fail "one-line if"

let parse_tolerant_unparsed () =
  match (Parser.parse_statement ~strict:false "where (a > 0) a = 0").node with
  | Unparsed _ -> ()
  | _ -> Alcotest.fail "expected Unparsed"

let parse_strict_raises () =
  match ps "where (a > 0) a = 0" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

(* --- Module parsing --------------------------------------------------------------- *)

let sample_module =
  {|
module wv_saturation
  use shr_kind_mod, only: r8 => shr_kind_r8
  use physconst
  implicit none
  real(r8), parameter :: tboil = 373.16_r8
  real(r8) :: table(100)
  type svp_state
    real(r8) :: last_t
    integer :: calls
  end type svp_state
  interface svp
    module procedure svp_water, svp_ice
  end interface
contains
  elemental function goffgratch_svp(t) result(es)
    real(r8), intent(in) :: t
    real(r8) :: es
    real(r8) :: ps, e1
    ps = 1013.246_r8
    e1 = 11.344_r8 * (1.0_r8 - t / tboil)
    es = ps * e1 + 8.1328e-3_r8 * t
    if (es < 0.0_r8) then
      es = 0.0_r8
    end if
  end function goffgratch_svp

  subroutine update_table(n)
    integer, intent(in) :: n
    integer :: i
    do i = 1, n
      table(i) = goffgratch_svp(270.0_r8 + i)
    end do
  end subroutine update_table

  function svp_water(t) result(es)
    real(r8), intent(in) :: t
    real(r8) :: es
    es = goffgratch_svp(t)
  end function svp_water

  function svp_ice(t) result(es)
    real(r8), intent(in) :: t
    real(r8) :: es
    es = goffgratch_svp(t) * 0.9_r8
  end function svp_ice
end module wv_saturation
|}

let parse_sample_module () =
  match Parser.parse_file ~strict:true ~file:"wv_saturation.F90" sample_module with
  | [ m ] ->
      check_str "name" "wv_saturation" m.m_name;
      check_int "uses" 2 (List.length m.m_uses);
      (match m.m_uses with
      | [ u1; u2 ] ->
          check_str "use module" "shr_kind_mod" u1.u_module;
          (match u1.u_only with
          | Some [ ("r8", "shr_kind_r8") ] -> ()
          | _ -> Alcotest.fail "rename in only list");
          check_bool "use all" true (u2.u_only = None)
      | _ -> Alcotest.fail "uses");
      check_int "types" 1 (List.length m.m_types);
      check_int "type fields" 2 (List.length (List.hd m.m_types).t_fields);
      check_int "module decls" 2 (List.length m.m_decls);
      check_bool "tboil is parameter" true
        (List.exists (fun d -> d.d_name = "tboil" && d.d_param) m.m_decls);
      check_bool "table is array" true
        (List.exists (fun d -> d.d_name = "table" && d.d_dims <> []) m.m_decls);
      check_int "interfaces" 1 (List.length m.m_interfaces);
      check_slist "interface procs" [ "svp_water"; "svp_ice" ]
        (List.hd m.m_interfaces).i_procedures;
      check_int "subprograms" 4 (List.length m.m_subprograms);
      let f = Option.get (Ast.find_subprogram m "goffgratch_svp") in
      check_bool "elemental" true f.s_elemental;
      check_str "result" "es" (Ast.function_result_name f);
      check_slist "args" [ "t" ] f.s_args;
      check_int "local decls" 4 (List.length f.s_decls);
      let upd = Option.get (Ast.find_subprogram m "update_table") in
      (match upd.s_body with
      | [ { node = Do { var = "i"; _ }; _ } ] -> ()
      | _ -> Alcotest.fail "do loop body")
  | _ -> Alcotest.fail "expected one module"

let nested_control_flow () =
  let src =
    {|
module flow
contains
  subroutine s(a, b, n)
    real(r8), intent(inout) :: a(n)
    real(r8), intent(in) :: b
    integer, intent(in) :: n
    integer :: i, j
    do i = 1, n
      if (a(i) > b) then
        a(i) = b
      else if (a(i) < 0.0_r8) then
        do j = 1, 3
          a(i) = a(i) * 0.5_r8
        end do
      else
        a(i) = 0.0_r8
      end if
    end do
    do while (b > 0.0_r8)
      exit
    end do
  end subroutine s
end module flow
|}
  in
  match Parser.parse_file ~strict:true ~file:"flow.F90" src with
  | [ m ] -> (
      let s = Option.get (Ast.find_subprogram m "s") in
      match s.s_body with
      | [ { node = Do { body = [ { node = If (branches, els); _ } ]; _ }; _ };
          { node = Do_while (_, [ { node = Exit_loop; _ } ]); _ } ] ->
          check_int "branches" 2 (List.length branches);
          check_int "else" 1 (List.length els)
      | _ -> Alcotest.fail "unexpected structure")
  | _ -> Alcotest.fail "one module"

let multiple_modules_one_file () =
  let src = "module a\ncontains\nsubroutine s()\nx = 1\nend subroutine\nend module a\nmodule b\nend module b" in
  let mods = Parser.parse_file ~strict:false ~file:"two.F90" src in
  check_slist "names" [ "a"; "b" ] (List.map (fun m -> m.m_name) mods)

let tolerant_mode_keeps_unparsed () =
  let src =
    "module weird\ncontains\nsubroutine s()\nx = 1\nwhere (q > 0) q = 0\ny = 2\nend subroutine\nend module weird"
  in
  match Parser.parse_file ~file:"weird.F90" src with
  | [ m ] -> (
      let s = List.hd m.m_subprograms in
      match s.s_body with
      | [ { node = Assign _; _ }; { node = Unparsed raw; _ }; { node = Assign _; _ } ] ->
          check_bool "raw kept" true
            (String.length raw >= 5 && String.sub raw 0 5 = "where")
      | _ -> Alcotest.fail "expected unparsed in middle")
  | _ -> Alcotest.fail "one module"

(* A line the lexer rejects outside any statement — a derived-type
   component, an interface body — is a [Parse_error] at its own line,
   even in tolerant mode, not a lexer exception. *)
let lex_errors_are_parse_errors () =
  List.iter
    (fun (name, src) ->
      match Parser.parse_file ~file:"m.F90" src with
      | exception Parser.Parse_error (_, line) -> check_int name 3 line
      | _ -> Alcotest.failf "%s: expected Parse_error" name)
    [
      ("derived-type component", "module m\ntype t\nreal :: a @\nend type t\nend module m");
      ( "interface body",
        "module m\ninterface f\nmodule procedure a @\nend interface\nend module m" );
    ]

let line_numbers_recorded () =
  match Parser.parse_file ~strict:true ~file:"m.F90" sample_module with
  | [ m ] ->
      let f = Option.get (Ast.find_subprogram m "goffgratch_svp") in
      (match f.s_body with
      | st :: _ -> check_bool "line > 0" true (st.line > 0)
      | [] -> Alcotest.fail "body");
      check_bool "sub line > module line" true (f.s_line > m.m_line)
  | _ -> Alcotest.fail "one module"

let long_statement_parses () =
  (* the paper mentions a 3500-character CESM statement; build one *)
  let terms = List.init 400 (fun i -> Printf.sprintf "x%d * c(%d)" i i) in
  let text = "acc = " ^ String.concat " + " terms in
  check_bool "long" true (String.length text > 3500);
  match (ps text).node with
  | Assign (Dname "acc", _) -> ()
  | _ -> Alcotest.fail "long assignment"

(* --- Pretty round trip ------------------------------------------------------------- *)

let pretty_roundtrip_module () =
  match Parser.parse_file ~strict:true ~file:"m.F90" sample_module with
  | [ m ] -> (
      let text = Pretty.module_to_string m in
      match Parser.parse_file ~strict:true ~file:"m.F90" text with
      | [ m' ] ->
          check_str "name" m.m_name m'.m_name;
          check_int "same subprograms" (List.length m.m_subprograms)
            (List.length m'.m_subprograms);
          check_int "same decls" (List.length m.m_decls) (List.length m'.m_decls);
          (* statement structure identical module line numbers *)
          let strip_sub (s : subprogram) =
            (s.s_name, s.s_args, List.map (fun d -> d.d_name) s.s_decls,
             Ast.count_stmts s.s_body)
          in
          Alcotest.(check bool) "subprogram shapes" true
            (List.map strip_sub m.m_subprograms = List.map strip_sub m'.m_subprograms)
      | _ -> Alcotest.fail "reparse failed")
  | _ -> Alcotest.fail "one module"

let pretty_expr_roundtrips () =
  List.iter
    (fun t -> expr_roundtrip_equal t t)
    [
      "1 + 2 * 3";
      "a ** b ** c";
      "-x ** 2";
      "a .and. b .or. .not. c";
      "state%omega(i, k) + dp(i) / g";
      "min(a, max(b, c))";
      "(a + b) * (c - d)";
      "x <= y .and. z /= w";
    ]

(* --- Relaxed fallback ------------------------------------------------------------- *)

let relaxed_scrape () =
  check_slist "idents" [ "qc"; "i"; "k"; "berg"; "dum" ]
    (Relaxed.scrape_identifiers "qc(i,k) = qc(i,k) - berg * 1.5e-3_r8 + dum");
  check_slist "skips strings" [ "x"; "y" ]
    (Relaxed.scrape_identifiers "x = 'name with spaces' // y");
  check_slist "skips keywords" [ "a"; "b" ]
    (Relaxed.scrape_identifiers "if (a > 0) b = .true.")

let relaxed_split () =
  match Relaxed.split_assignment "state%q(i,k) = state%q(i,k) + dqdt * dt" with
  | Some r ->
      check_str "base" "state" r.Relaxed.lhs_base;
      check_str "canonical" "q" r.Relaxed.lhs_canonical;
      check_slist "rhs" [ "state"; "q"; "i"; "k"; "dqdt"; "dt" ] r.Relaxed.rhs_identifiers
  | None -> Alcotest.fail "expected split"

let relaxed_split_respects_parens () =
  (* '=' inside parens (array constructor-ish) is not the assignment '=' *)
  match Relaxed.split_assignment "a(f(x) + 1) = b" with
  | Some r -> check_str "base" "a" r.Relaxed.lhs_base
  | None -> Alcotest.fail "expected split"

let relaxed_split_none_for_conditions () =
  check_bool "== is not assignment" true (Relaxed.split_assignment "a == b" = None);
  check_bool "call is not assignment" true (Relaxed.split_assignment "call f(a, b)" = None)

let relaxed_deep_derived_type () =
  match Relaxed.split_assignment "elem(ie)%derived%omega_p(i,k) = wrk + 1" with
  | Some r ->
      check_str "canonical" "omega_p" r.Relaxed.lhs_canonical;
      check_str "base" "elem" r.Relaxed.lhs_base
  | None -> Alcotest.fail "expected split"

(* --- Visibility ------------------------------------------------------------------ *)

(* Module [a] owns two variables, a derived type, two subroutines and a
   named interface over them; the other modules import from it. *)
let visibility_src =
  {|
module a
  real(r8) :: x, y
  type pt
    real(r8) :: v
  end type pt
  interface gen
    module procedure f1, f2
  end interface
contains
  subroutine f1(p)
    real(r8) :: p
  end subroutine f1
  subroutine f2(p, q)
    real(r8) :: p, q
  end subroutine f2
end module a
module b
  use a, only: lx => x, f1, pt
end module b
module c
  use b
end module c
module d
  use b, only: lx, f1
  use a, only: nothere
end module d
module e
  use ghost
  use ghost2, only: z
  real(r8) :: w
end module e
module g
  use f
end module g
module f
  use a, only: y
  real(r8) :: y
end module f
|}

let visibility () =
  Visibility.of_program (Parser.parse_file ~strict:true ~file:"v.F90" visibility_src)

let var_of vis m name = Visibility.var (Visibility.scope vis m) name

let callable_keys vis m name =
  List.map
    (fun (c : Visibility.callable) -> c.Visibility.c_module ^ "." ^ c.Visibility.c_sub.s_name)
    (Visibility.callables (Visibility.scope vis m) name)

let check_var = Alcotest.(check (option (pair string string)))

let visibility_own_names () =
  let vis = visibility () in
  check_var "own variable" (Some ("a", "x")) (var_of vis "a" "x");
  check_slist "own subroutine" [ "a.f1" ] (callable_keys vis "a" "f1");
  check_slist "named interface" [ "a.f1"; "a.f2" ] (callable_keys vis "a" "gen");
  check_bool "own derived type" true
    (Visibility.derived_type (Visibility.scope vis "a") "pt" <> None);
  check_var "a procedure is not a variable" None (var_of vis "a" "gen");
  check_slist "a variable is not a procedure" [] (callable_keys vis "a" "x")

let visibility_only_rename () =
  let vis = visibility () in
  check_var "renamed import" (Some ("a", "x")) (var_of vis "b" "lx");
  check_var "remote name hidden" None (var_of vis "b" "x");
  check_var "unlisted name hidden" None (var_of vis "b" "y");
  check_slist "listed subroutine" [ "a.f1" ] (callable_keys vis "b" "f1");
  check_slist "unlisted interface" [] (callable_keys vis "b" "gen");
  check_bool "listed derived type" true
    (Visibility.derived_type (Visibility.scope vis "b") "pt" <> None)

let visibility_no_chained_use () =
  let vis = visibility () in
  check_var "b's import of x" None (var_of vis "c" "lx");
  check_slist "b's import of f1" [] (callable_keys vis "c" "f1");
  check_bool "b's import of pt" true
    (Visibility.derived_type (Visibility.scope vis "c") "pt" = None)

let visibility_only_unowned () =
  let vis = visibility () in
  check_var "import of an import" None (var_of vis "d" "lx");
  check_slist "import of an imported subroutine" [] (callable_keys vis "d" "f1");
  check_var "name nobody declares" None (var_of vis "d" "nothere")

let visibility_missing_module () =
  let vis = visibility () in
  check_var "own name kept" (Some ("e", "w")) (var_of vis "e" "w");
  check_var "nothing from a missing module" None (var_of vis "e" "z");
  check_var "module not in the program" None (var_of vis "ghost" "w")

let visibility_import_replaces_own () =
  let vis = visibility () in
  check_var "import wins" (Some ("a", "y")) (var_of vis "f" "y");
  (* a user of f takes what f declares, wherever f comes in the program *)
  check_var "f's own declaration is f's" (Some ("f", "y")) (var_of vis "g" "y")

(* --- qcheck properties -------------------------------------------------------------- *)

(* random expression generator *)
let rec gen_expr depth =
  let open QCheck2.Gen in
  if depth = 0 then
    oneof
      [
        map (fun i -> Eint i) (QCheck2.Gen.int_range 0 99);
        map (fun f -> Enum (Float.abs (Float.of_int (int_of_float (f *. 100.))) /. 7.0)) (float_bound_inclusive 10.0);
        oneofl [ Edesig (Dname "x"); Edesig (Dname "y"); Edesig (Dname "dum") ];
      ]
  else
    let sub = gen_expr (depth - 1) in
    oneof
      [
        map2 (fun a b -> Ebin (Add, a, b)) sub sub;
        map2 (fun a b -> Ebin (Mul, a, b)) sub sub;
        map2 (fun a b -> Ebin (Sub, a, b)) sub sub;
        map2 (fun a b -> Ebin (Div, a, b)) sub sub;
        map (fun a -> Eun (Neg, a)) sub;
        map (fun a -> Edesig (Dindex (Dname "arr", [ a ]))) sub;
        sub;
      ]

let prop_pretty_parse_roundtrip =
  QCheck2.Test.make ~name:"parse (pretty e) = e" ~count:300 (gen_expr 4) (fun e ->
      Parser.parse_expression (Pretty.expr_str e) = e)

let prop_scrape_subset_of_ast_idents =
  QCheck2.Test.make ~name:"relaxed scrape finds the AST identifiers" ~count:200
    (gen_expr 3) (fun e ->
      let text = "lhs = " ^ Pretty.expr_str e in
      match Relaxed.split_assignment text with
      | None -> false
      | Some r ->
          let ast_ids = Ast.expr_identifiers e in
          List.for_all (fun id -> List.mem id r.Relaxed.rhs_identifiers) ast_ids)

let prop_logical_lines_nonempty =
  QCheck2.Test.make ~name:"logical lines are trimmed and non-empty" ~count:200
    QCheck2.Gen.(small_list (oneofl [ "a = 1"; ""; "! c"; "b = 2 + &"; "3" ]))
    (fun frags ->
      let src = String.concat "\n" frags in
      List.for_all
        (fun l -> String.trim l.Source.text = l.Source.text && l.Source.text <> "")
        (Source.logical_lines src))

(* random statement generator for the statement/module-level round trip.
   Restricted to the printable subset: no Unparsed (raw text is free-form),
   and line numbers are stripped before comparing. *)
let mk node = { line = 0; node }

let rec gen_stmt depth =
  let open QCheck2.Gen in
  let assign =
    map2
      (fun d e -> mk (Assign (d, e)))
      (oneof
         [
           oneofl [ Dname "x"; Dname "y" ];
           map (fun e -> Dindex (Dname "arr", [ e ])) (gen_expr 1);
         ])
      (gen_expr 2)
  in
  if depth = 0 then assign
  else
    let body = list_size (int_range 1 3) (gen_stmt (depth - 1)) in
    oneof
      [
        assign;
        map2 (fun c b -> mk (If ([ (c, b) ], []))) (gen_expr 1) body;
        map3 (fun c b e -> mk (If ([ (c, b) ], e))) (gen_expr 1) body body;
        map3
          (fun lo hi b -> mk (Do { var = "i"; lo; hi; step = None; body = b }))
          (gen_expr 1) (gen_expr 1) body;
        map2 (fun c b -> mk (Do_while (c, b))) (gen_expr 1) body;
        map (fun args -> mk (Call ("update", args))) (list_size (int_range 1 2) (gen_expr 1));
        return (mk Return);
      ]

let rec strip_stmt st =
  let node =
    match st.node with
    | If (bs, els) ->
        If
          ( List.map (fun (c, b) -> (c, List.map strip_stmt b)) bs,
            List.map strip_stmt els )
    | Do d -> Do { d with body = List.map strip_stmt d.body }
    | Do_while (c, b) -> Do_while (c, List.map strip_stmt b)
    | Select (s, cs, d) ->
        Select
          ( s,
            List.map (fun (v, b) -> (v, List.map strip_stmt b)) cs,
            List.map strip_stmt d )
    | n -> n
  in
  { line = 0; node }

let prop_module_roundtrip =
  QCheck2.Test.make ~name:"pretty module re-parses to an equal AST" ~count:200
    QCheck2.Gen.(list_size (int_range 1 4) (gen_stmt 2))
    (fun body ->
      let decl name dims =
        {
          d_name = name;
          d_type = Treal;
          d_dims = dims;
          d_init = None;
          d_param = false;
          d_intent = None;
          d_line = 0;
        }
      in
      let sub =
        {
          s_name = "s";
          s_kind = Subroutine;
          s_args = [ "x"; "y" ];
          s_result = None;
          s_elemental = false;
          s_decls =
            [
              decl "x" [];
              decl "y" [];
              decl "arr" [ Eint 4 ];
              { (decl "i" []) with d_type = Tinteger };
              decl "dum" [];
            ];
          s_body = body;
          s_line = 0;
        }
      in
      let m =
        {
          m_name = "m";
          m_file = "gen.F90";
          m_uses = [];
          m_types = [];
          m_decls = [];
          m_interfaces = [];
          m_subprograms = [ sub ];
          m_line = 0;
        }
      in
      match Parser.parse_file ~strict:true ~file:"gen.F90" (Pretty.module_to_string m) with
      | [ m' ] -> (
          match m'.m_subprograms with
          | [ sub' ] ->
              sub'.s_name = "s"
              && sub'.s_args = sub.s_args
              && List.map (fun d -> d.d_name) sub'.s_decls
                 = List.map (fun d -> d.d_name) sub.s_decls
              && List.map strip_stmt sub'.s_body = List.map strip_stmt body
          | _ -> false)
      | _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pretty_parse_roundtrip;
      prop_scrape_subset_of_ast_idents;
      prop_logical_lines_nonempty;
      prop_module_roundtrip;
    ]

let () =
  Alcotest.run "rca_fortran"
    [
      ( "source",
        [
          Alcotest.test_case "logical lines" `Quick logical_lines_basic;
          Alcotest.test_case "continuation" `Quick continuation_joining;
          Alcotest.test_case "leading ampersand" `Quick continuation_leading_ampersand;
          Alcotest.test_case "comment in string" `Quick comment_inside_string_kept;
          Alcotest.test_case "code line count" `Quick code_line_count;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "case folding" `Quick lex_idents_case_folded;
          Alcotest.test_case "numbers" `Quick lex_numbers;
          Alcotest.test_case "dot operators" `Quick lex_dotops;
          Alcotest.test_case "two-char ops" `Quick lex_two_char_ops;
          Alcotest.test_case "number vs dotop" `Quick lex_number_vs_dotop;
          Alcotest.test_case "strings" `Quick lex_string_literals;
          Alcotest.test_case "garbage rejected" `Quick lex_rejects_garbage;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick parse_precedence;
          Alcotest.test_case "comparisons" `Quick parse_comparisons;
          Alcotest.test_case "designators" `Quick parse_designators;
          Alcotest.test_case "ranges" `Quick parse_ranges;
          Alcotest.test_case "canonical names" `Quick canonical_names;
          Alcotest.test_case "identifiers" `Quick expr_identifiers_collects;
        ] );
      ( "statements",
        [
          Alcotest.test_case "assignment" `Quick parse_assignment_stmt;
          Alcotest.test_case "call" `Quick parse_call_stmt;
          Alcotest.test_case "one-line if" `Quick parse_one_line_if;
          Alcotest.test_case "tolerant unparsed" `Quick parse_tolerant_unparsed;
          Alcotest.test_case "strict raises" `Quick parse_strict_raises;
          Alcotest.test_case "long statement" `Quick long_statement_parses;
        ] );
      ( "modules",
        [
          Alcotest.test_case "sample module" `Quick parse_sample_module;
          Alcotest.test_case "nested control flow" `Quick nested_control_flow;
          Alcotest.test_case "two modules" `Quick multiple_modules_one_file;
          Alcotest.test_case "tolerant keeps unparsed" `Quick tolerant_mode_keeps_unparsed;
          Alcotest.test_case "line numbers" `Quick line_numbers_recorded;
          Alcotest.test_case "lexer errors are parse errors" `Quick lex_errors_are_parse_errors;
        ] );
      ( "visibility",
        [
          Alcotest.test_case "own names and interface" `Quick visibility_own_names;
          Alcotest.test_case "only-list rename" `Quick visibility_only_rename;
          Alcotest.test_case "no chained use" `Quick visibility_no_chained_use;
          Alcotest.test_case "only-list unowned name" `Quick visibility_only_unowned;
          Alcotest.test_case "missing module" `Quick visibility_missing_module;
          Alcotest.test_case "import replaces own" `Quick visibility_import_replaces_own;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "module round trip" `Quick pretty_roundtrip_module;
          Alcotest.test_case "expr round trips" `Quick pretty_expr_roundtrips;
        ] );
      ( "relaxed",
        [
          Alcotest.test_case "scrape" `Quick relaxed_scrape;
          Alcotest.test_case "split" `Quick relaxed_split;
          Alcotest.test_case "parens" `Quick relaxed_split_respects_parens;
          Alcotest.test_case "non-assignments" `Quick relaxed_split_none_for_conditions;
          Alcotest.test_case "derived type" `Quick relaxed_deep_derived_type;
        ] );
      ("properties", qcheck_cases);
    ]
