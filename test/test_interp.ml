(* Tests for the rca_interp machine: evaluation semantics, call-by-
   reference, module elaboration, FMA contraction, hooks, history and
   kernel capture/replay. *)

open Rca_fortran
open Rca_interp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let parse src = Parser.parse_file ~strict:true ~file:"test.F90" src

let machine_of src = Machine.create (parse src)

let getf m ~module_ ~name =
  match Machine.get_module_var m ~module_ ~name with
  | Machine.Vreal f -> f
  | Machine.Vint i -> float_of_int i
  | _ -> Alcotest.fail "expected scalar"

(* --- basic execution --------------------------------------------------------- *)

let arith_src =
  {|
module arith
  real(r8) :: out1, out2, out3, out4
  integer :: iout
contains
  subroutine go()
    out1 = 1.5_r8 + 2.0_r8 * 3.0_r8
    out2 = 2.0_r8 ** 3 ** 2
    out3 = -2.0_r8 ** 2
    out4 = 7.0_r8 / 2.0_r8
    iout = 7 / 2
  end subroutine go
end module arith
|}

let basic_arithmetic () =
  let m = machine_of arith_src in
  ignore (Machine.invoke m ~module_:"arith" ~sub:"go" ~args:[]);
  check_float "precedence" 7.5 (getf m ~module_:"arith" ~name:"out1");
  check_float "pow right assoc" 512.0 (getf m ~module_:"arith" ~name:"out2");
  check_float "unary minus vs pow" (-4.0) (getf m ~module_:"arith" ~name:"out3");
  check_float "real division" 3.5 (getf m ~module_:"arith" ~name:"out4");
  check_float "integer division truncates" 3.0 (getf m ~module_:"arith" ~name:"iout")

let control_flow_src =
  {|
module flow
  real(r8) :: acc
  integer :: nloops
contains
  subroutine go(n)
    integer, intent(in) :: n
    integer :: i, j
    acc = 0.0_r8
    nloops = 0
    do i = 1, n
      if (mod(i, 2) == 0) then
        acc = acc + 2.0_r8
      else if (i == 3) then
        cycle
      else
        acc = acc + 1.0_r8
      end if
      nloops = nloops + 1
    end do
    do j = 10, 1, -3
      acc = acc + 0.25_r8
    end do
    do while (acc < 100.0_r8)
      acc = acc + 50.0_r8
      if (acc > 120.0_r8) exit
    end do
  end subroutine go
end module flow
|}

let control_flow () =
  let m = machine_of control_flow_src in
  ignore (Machine.invoke m ~module_:"flow" ~sub:"go" ~args:[ Machine.Vint 5 ]);
  (* i=1 odd +1; i=2 +2; i=3 cycle; i=4 +2; i=5 +1 => 6; 4 downward loops +1;
     then while: 7 -> 57 -> 107 (no exit since 107 <= 120 -> loop cond fails) *)
  check_float "acc" 107.0 (getf m ~module_:"flow" ~name:"acc");
  check_int "nloops skips cycle" 4
    (match Machine.get_module_var m ~module_:"flow" ~name:"nloops" with
    | Machine.Vint i -> i
    | _ -> -1)

let array_src =
  {|
module arrays
  integer, parameter :: n = 4
  real(r8) :: a(n), b(n, 2)
  real(r8) :: total, picked
contains
  subroutine go()
    integer :: i
    a = 1.0_r8
    a(2) = 5.0_r8
    do i = 1, n
      b(i, 1) = a(i) * 2.0_r8
      b(i, 2) = a(i) + 10.0_r8
    end do
    total = sum(a) + maxval(a) + minval(a) + size(a)
    picked = b(2, 1) + b(3, 2)
    a(:) = 0.5_r8
  end subroutine go
end module arrays
|}

let arrays () =
  let m = machine_of array_src in
  ignore (Machine.invoke m ~module_:"arrays" ~sub:"go" ~args:[]);
  (* sum = 1+5+1+1 = 8, maxval 5, minval 1, size 4 -> 18 *)
  check_float "reductions" 18.0 (getf m ~module_:"arrays" ~name:"total");
  check_float "2d elements" 21.0 (getf m ~module_:"arrays" ~name:"picked");
  (match Machine.get_module_var m ~module_:"arrays" ~name:"a" with
  | Machine.Varr arr -> Array.iter (fun x -> check_float "broadcast" 0.5 x) arr.Machine.data
  | _ -> Alcotest.fail "a should be an array")

let derived_src =
  {|
module phys_types
  integer, parameter :: pcols = 3
  type physics_state
    real(r8) :: t(pcols)
    real(r8) :: ps
  end type physics_state
end module phys_types

module driver
  use phys_types
  type(physics_state) :: state
  real(r8) :: got
contains
  subroutine go()
    integer :: i
    do i = 1, pcols
      state%t(i) = 270.0_r8 + i
    end do
    state%ps = 1000.0_r8
    got = state%t(2) + state%ps
  end subroutine go
end module driver
|}

let derived_types () =
  let m = machine_of derived_src in
  ignore (Machine.invoke m ~module_:"driver" ~sub:"go" ~args:[]);
  check_float "derived access" 1272.0 (getf m ~module_:"driver" ~name:"got")

let call_src =
  {|
module callee_mod
  real(r8) :: module_state
contains
  subroutine double_it(x)
    real(r8), intent(inout) :: x
    x = x * 2.0_r8
  end subroutine double_it

  function plus(a, b) result(c)
    real(r8), intent(in) :: a, b
    real(r8) :: c
    c = a + b
  end function plus

  elemental function square(x) result(y)
    real(r8), intent(in) :: x
    real(r8) :: y
    y = x * x
  end function square
end module callee_mod

module caller_mod
  use callee_mod
  real(r8) :: s, arr(3), elem_result
contains
  subroutine go()
    s = 10.0_r8
    call double_it(s)
    arr(1) = 3.0_r8
    call double_it(arr(1))
    s = s + plus(1.0_r8, 2.0_r8)
    elem_result = square(plus(s, arr(1)))
  end subroutine go
end module caller_mod
|}

let calls_by_reference () =
  let m = machine_of call_src in
  ignore (Machine.invoke m ~module_:"caller_mod" ~sub:"go" ~args:[]);
  (* s: 10 -> 20 -> 23; arr(1): 3 -> 6 (copy-back); square(23+6) = 841 *)
  check_float "scalar byref + function" 23.0 (getf m ~module_:"caller_mod" ~name:"s");
  check_float "array element copy-back" 841.0
    (getf m ~module_:"caller_mod" ~name:"elem_result")

let use_rename_src =
  {|
module shr_kind_mod
  integer, parameter :: shr_kind_r8 = 8
  real(r8), parameter :: pi_full = 3.14159_r8
end module shr_kind_mod

module consumer
  use shr_kind_mod, only: pi => pi_full
  real(r8) :: out
contains
  subroutine go()
    out = pi * 2.0_r8
  end subroutine go
end module consumer
|}

let use_renames () =
  let m = machine_of use_rename_src in
  ignore (Machine.invoke m ~module_:"consumer" ~sub:"go" ~args:[]);
  check_float "renamed import" 6.28318 (getf m ~module_:"consumer" ~name:"out")

let interface_src =
  {|
module generic_mod
  real(r8) :: out1, out2
  interface svp
    module procedure svp_one, svp_two
  end interface
contains
  function svp_one(t) result(e)
    real(r8), intent(in) :: t
    real(r8) :: e
    e = t * 2.0_r8
  end function svp_one

  function svp_two(t, p) result(e)
    real(r8), intent(in) :: t, p
    real(r8) :: e
    e = t + p
  end function svp_two

  subroutine go()
    out1 = svp(3.0_r8)
    out2 = svp(3.0_r8, 4.0_r8)
  end subroutine go
end module generic_mod
|}

let interface_dispatch () =
  let m = machine_of interface_src in
  ignore (Machine.invoke m ~module_:"generic_mod" ~sub:"go" ~args:[]);
  check_float "1-arg candidate" 6.0 (getf m ~module_:"generic_mod" ~name:"out1");
  check_float "2-arg candidate" 7.0 (getf m ~module_:"generic_mod" ~name:"out2")

(* --- FMA semantics ------------------------------------------------------------- *)

let fma_src =
  {|
module mg
  real(r8) :: r1, r2
contains
  subroutine go(a, b, c)
    real(r8), intent(in) :: a, b, c
    r1 = a * b + c
    r2 = a * b - c
  end subroutine go
end module mg
|}

let fma_changes_rounding () =
  let prog = parse fma_src in
  (* a*b = 1 - eps^2: the unfused product rounds to exactly 1, the fused
     path keeps the -eps^2 term through the cancellation with c = -1 *)
  let a = 1.0 +. epsilon_float and b = 1.0 -. epsilon_float in
  let c = -1.0 in
  let run fma =
    let m = Machine.create prog in
    Machine.set_fma m ~enabled:fma ~disabled:[];
    ignore
      (Machine.invoke m ~module_:"mg" ~sub:"go"
         ~args:[ Machine.Vreal a; Machine.Vreal b; Machine.Vreal c ]);
    getf m ~module_:"mg" ~name:"r1"
  in
  let off = run false and on = run true in
  (* catastrophic cancellation: a*b rounds to 1 + 2eps, so off = 2eps while
     the fused result keeps the eps^2 term *)
  check_bool "fma on/off differ" true (off <> on);
  check_float "fused exact" (Float.fma a b c) on;
  check_float "unfused" ((a *. b) +. c) off

let fma_respects_module_disable () =
  let prog = parse fma_src in
  let m = Machine.create prog in
  Machine.set_fma m ~enabled:true ~disabled:[ "mg" ];
  let a = 1.0 +. epsilon_float in
  ignore
    (Machine.invoke m ~module_:"mg" ~sub:"go"
       ~args:[ Machine.Vreal a; Machine.Vreal a; Machine.Vreal (-1.0) ]);
  check_float "disabled module stays unfused" ((a *. a) -. 1.0)
    (getf m ~module_:"mg" ~name:"r1")

let fma_int_pure_unaffected () =
  let src =
    "module im\n integer :: r\ncontains\n subroutine go()\n r = 3 * 4 + 5\n end subroutine\nend module im"
  in
  let m = Machine.create (parse src) in
  Machine.set_fma m ~enabled:true ~disabled:[];
  ignore (Machine.invoke m ~module_:"im" ~sub:"go" ~args:[]);
  check_float "integer arithmetic exact" 17.0 (getf m ~module_:"im" ~name:"r")

(* --- PRNG hook ------------------------------------------------------------------- *)

let rng_src =
  {|
module cloud
  real(r8) :: draws(5), total
contains
  subroutine go()
    call random_number(draws)
    total = sum(draws)
  end subroutine go
end module cloud
|}

let random_number_uses_machine_prng () =
  let prog = parse rng_src in
  let run prng =
    let m = Machine.create ~prng prog in
    ignore (Machine.invoke m ~module_:"cloud" ~sub:"go" ~args:[]);
    getf m ~module_:"cloud" ~name:"total"
  in
  let kiss1 = run (Rca_rng.Kiss.create 7) in
  let kiss2 = run (Rca_rng.Kiss.create 7) in
  let mt = run (Rca_rng.Mersenne.create 7) in
  check_float "same prng reproduces" kiss1 kiss2;
  check_bool "kiss vs mt differ" true (kiss1 <> mt);
  check_bool "draws in range" true (kiss1 > 0.0 && kiss1 < 5.0)

(* --- outfld history ----------------------------------------------------------------- *)

let outfld_src =
  {|
module hist
  real(r8) :: flwds
contains
  subroutine go()
    flwds = 350.5_r8
    call outfld('flds', flwds)
    call outfld('flds', flwds + 1.0_r8)
  end subroutine go
end module hist
|}

let outfld_records_history () =
  let m = machine_of outfld_src in
  ignore (Machine.invoke m ~module_:"hist" ~sub:"go" ~args:[]);
  match Machine.history_value m "flds" with
  | Some v -> check_float "last write wins" 351.5 v
  | None -> Alcotest.fail "history missing"

(* --- hooks ---------------------------------------------------------------------------- *)

let hooks_fire () =
  let m = machine_of arith_src in
  let stmts = ref 0 and assigns = ref [] in
  m.Machine.hooks.Machine.on_stmt <- Some (fun _ _ _ -> incr stmts);
  m.Machine.hooks.Machine.on_assign <-
    Some (fun ~module_:_ ~sub:_ ~line:_ ~var ~canonical:_ v -> assigns := (var, v) :: !assigns);
  ignore (Machine.invoke m ~module_:"arith" ~sub:"go" ~args:[]);
  check_int "five statements" 5 !stmts;
  check_int "five assignments" 5 (List.length !assigns);
  check_bool "out1 seen" true (List.mem_assoc "out1" !assigns)

let coverage_hook_sees_lines () =
  let m = machine_of control_flow_src in
  let lines = Hashtbl.create 16 in
  m.Machine.hooks.Machine.on_stmt <-
    Some (fun md sb line -> Hashtbl.replace lines (md, sb, line) ());
  ignore (Machine.invoke m ~module_:"flow" ~sub:"go" ~args:[ Machine.Vint 5 ]);
  check_bool "several distinct lines" true (Hashtbl.length lines > 5)

(* --- errors ----------------------------------------------------------------------------- *)

let unknown_variable_error () =
  let src = "module bad\ncontains\nsubroutine go()\nx = y + 1\nend subroutine\nend module bad" in
  let m = machine_of src in
  match Machine.invoke m ~module_:"bad" ~sub:"go" ~args:[] with
  | exception Machine.Runtime_error msg ->
      check_bool "mentions y" true (contains_sub ~sub:"y" msg)
  | _ -> Alcotest.fail "expected runtime error"

let out_of_bounds_error () =
  let src =
    "module bad\nreal(r8) :: a(3)\ncontains\nsubroutine go()\na(4) = 1.0\nend subroutine\nend module bad"
  in
  let m = machine_of src in
  (match Machine.invoke m ~module_:"bad" ~sub:"go" ~args:[] with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected bounds error")

let runaway_loop_guard () =
  let src =
    "module bad\nreal(r8) :: x\ncontains\nsubroutine go()\ndo while (x < 1.0)\nx = 0.0\nend do\nend subroutine\nend module bad"
  in
  let m = Machine.create ~max_steps:10_000 (parse src) in
  match Machine.invoke m ~module_:"bad" ~sub:"go" ~args:[] with
  | exception Machine.Runtime_error msg ->
      check_bool "budget message" true (contains_sub ~sub:"budget" msg)
  | _ -> Alcotest.fail "expected budget error"

let stop_is_error () =
  let src = "module s\ncontains\nsubroutine go()\nstop\nend subroutine\nend module s" in
  let m = machine_of src in
  match Machine.invoke m ~module_:"s" ~sub:"go" ~args:[] with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected stop error"

(* The interpreter resolves module names through Rca_fortran.Visibility,
   like the metagraph builder: an import hides a same-named declaration,
   and a derived type is never reached through chained use. *)
let visibility_rules () =
  let src =
    "module src\nreal(r8), parameter :: v = 2.0\nend module src\n\
     module user\nuse src\nreal(r8), parameter :: v = 5.0\nreal(r8) :: got\ncontains\n\
     subroutine go()\ngot = v\nend subroutine go\nend module user"
  in
  let m = machine_of src in
  ignore (Machine.invoke m ~module_:"user" ~sub:"go" ~args:[]);
  check_float "the import wins" 2.0 (getf m ~module_:"user" ~name:"got");
  let chained =
    "module types_a\ntype blob\nreal(r8) :: q\nend type blob\nend module types_a\n\
     module types_b\nuse types_a\nend module types_b\n\
     module holder\nuse types_b\ntype(blob) :: b\nend module holder"
  in
  match machine_of chained with
  | exception Machine.Runtime_error msg ->
      check_bool "unknown derived type" true (contains_sub ~sub:"unknown derived type" msg)
  | _ -> Alcotest.fail "a type reachable only through chained use must be unknown"

(* --- kernel capture / replay -------------------------------------------------------------- *)

let kernel_src =
  {|
module state_mod
  real(r8) :: base
end module state_mod

module mg_kernel
  use state_mod
  real(r8) :: out_total
contains
  subroutine micro_tend(q, n)
    integer, intent(in) :: n
    real(r8), intent(inout) :: q(n)
    real(r8) :: dum, ratio, t1, resid
    integer :: i
    ratio = 0.0_r8
    do i = 1, n
      dum = q(i) * base + 1.0e-16_r8
      t1 = q(i) * base
      resid = q(i) * base - t1
      ratio = ratio + dum * dum + resid
      q(i) = q(i) + dum
    end do
    out_total = ratio
  end subroutine micro_tend
end module mg_kernel

module kdriver
  use mg_kernel
  use state_mod
  real(r8) :: q(8)
contains
  subroutine run_model()
    integer :: t, i
    base = 1.0_r8 + 1.0e-14_r8
    do i = 1, 8
      q(i) = 0.1_r8 * i
    end do
    do t = 1, 3
      call micro_tend(q, 8)
    end do
  end subroutine run_model
end module kdriver
|}

let kernel_capture_and_replay () =
  let prog = parse kernel_src in
  let drive m = ignore (Machine.invoke m ~module_:"kdriver" ~sub:"run_model" ~args:[]) in
  let cap =
    Kernel.capture ~program:prog
      ~configure:(fun _ -> ())
      ~drive ~module_:"mg_kernel" ~sub:"micro_tend"
  in
  check_bool "captured formals" true (List.mem_assoc "q" cap.Kernel.formals);
  check_bool "captured globals include base" true
    (List.exists
       (fun (m, vars) -> m = "state_mod" && List.mem_assoc "base" vars)
       cap.Kernel.globals);
  (* replay twice with identical config: bitwise identical locals *)
  let l1 = Kernel.replay ~program:prog ~configure:(fun _ -> ()) cap in
  let l2 = Kernel.replay ~program:prog ~configure:(fun _ -> ()) cap in
  check_bool "deterministic replay" true (Kernel.divergent ~threshold:0.0 l1 l2 = []);
  check_bool "locals include dum" true (List.mem_assoc "dum" l1)

let kernel_flags_fma_divergence () =
  let prog = parse kernel_src in
  let drive m = ignore (Machine.invoke m ~module_:"kdriver" ~sub:"run_model" ~args:[]) in
  let cap =
    Kernel.capture ~program:prog ~configure:(fun _ -> ()) ~drive ~module_:"mg_kernel"
      ~sub:"micro_tend"
  in
  let with_fma flag m = Machine.set_fma m ~enabled:flag ~disabled:[] in
  let l_off = Kernel.replay ~program:prog ~configure:(with_fma false) cap in
  let l_on = Kernel.replay ~program:prog ~configure:(with_fma true) cap in
  let div = Kernel.divergent ~threshold:1e-30 l_off l_on in
  check_bool "fma replay diverges in some variable" true (div <> []);
  (* resid is exactly 0 unfused and the true product residual fused *)
  check_bool "resid or ratio among divergent" true
    (List.exists (fun d -> d.Kernel.var = "resid" || d.Kernel.var = "ratio") div)

let normalized_rms_values () =
  let a = Machine.Varr { Machine.dims = [| 2 |]; data = [| 3.0; 4.0 |] } in
  let b = Machine.Varr { Machine.dims = [| 2 |]; data = [| 3.0; 4.0 |] } in
  (match Kernel.normalized_rms a b with
  | Some r -> check_float "identical arrays" 0.0 r
  | None -> Alcotest.fail "expected rms");
  let c = Machine.Varr { Machine.dims = [| 2 |]; data = [| 3.0; 4.5 |] } in
  match Kernel.normalized_rms a c with
  | Some r -> check_float "relative diff" 0.1 r
  | None -> Alcotest.fail "expected rms"

(* --- qcheck: interpreter vs OCaml reference on random expressions ------------------------- *)

let rec gen_arith depth =
  let open QCheck2.Gen in
  if depth = 0 then
    oneof
      [ map (fun f -> Printf.sprintf "%.6f" (Float.abs f +. 0.1)) (float_bound_inclusive 9.0);
        return "x"; return "y" ]
  else
    let sub = gen_arith (depth - 1) in
    oneof
      [
        map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
        map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
        map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
        map (fun a -> Printf.sprintf "abs(%s)" a) sub;
        map2 (fun a b -> Printf.sprintf "max(%s, %s)" a b) sub sub;
      ]

(* reference evaluator over the parsed AST *)
let rec ref_eval env (e : Ast.expr) : float =
  match e with
  | Ast.Enum f -> f
  | Ast.Eint i -> float_of_int i
  | Ast.Ebin (Ast.Add, a, b) -> ref_eval env a +. ref_eval env b
  | Ast.Ebin (Ast.Sub, a, b) -> ref_eval env a -. ref_eval env b
  | Ast.Ebin (Ast.Mul, a, b) -> ref_eval env a *. ref_eval env b
  | Ast.Edesig (Ast.Dname n) -> List.assoc n env
  | Ast.Edesig (Ast.Dindex (Ast.Dname "abs", [ a ])) -> abs_float (ref_eval env a)
  | Ast.Edesig (Ast.Dindex (Ast.Dname "max", [ a; b ])) ->
      Float.max (ref_eval env a) (ref_eval env b)
  | _ -> Alcotest.fail "unexpected expr shape"

let prop_interp_matches_reference =
  QCheck2.Test.make ~name:"interpreter matches reference evaluator (no FMA)" ~count:150
    (gen_arith 3) (fun text ->
      let src =
        Printf.sprintf
          "module t\nreal(r8) :: out, x, y\ncontains\nsubroutine go()\nx = 1.25\ny = -0.75\nout = %s\nend subroutine\nend module t"
          text
      in
      let m = Machine.create (Parser.parse_file ~strict:true ~file:"t.F90" src) in
      ignore (Machine.invoke m ~module_:"t" ~sub:"go" ~args:[]);
      let got = getf m ~module_:"t" ~name:"out" in
      let want = ref_eval [ ("x", 1.25); ("y", -0.75) ] (Parser.parse_expression text) in
      got = want)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_interp_matches_reference ]

let () =
  Alcotest.run "rca_interp"
    [
      ( "execution",
        [
          Alcotest.test_case "arithmetic" `Quick basic_arithmetic;
          Alcotest.test_case "control flow" `Quick control_flow;
          Alcotest.test_case "arrays" `Quick arrays;
          Alcotest.test_case "derived types" `Quick derived_types;
          Alcotest.test_case "calls by reference" `Quick calls_by_reference;
          Alcotest.test_case "use renames" `Quick use_renames;
          Alcotest.test_case "interface dispatch" `Quick interface_dispatch;
        ] );
      ( "fma",
        [
          Alcotest.test_case "rounding differs" `Quick fma_changes_rounding;
          Alcotest.test_case "per-module disable" `Quick fma_respects_module_disable;
          Alcotest.test_case "integers unaffected" `Quick fma_int_pure_unaffected;
        ] );
      ( "prng",
        [ Alcotest.test_case "machine prng drives random_number" `Quick random_number_uses_machine_prng ] );
      ( "history",
        [ Alcotest.test_case "outfld" `Quick outfld_records_history ] );
      ( "hooks",
        [
          Alcotest.test_case "stmt and assign hooks" `Quick hooks_fire;
          Alcotest.test_case "coverage lines" `Quick coverage_hook_sees_lines;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unknown variable" `Quick unknown_variable_error;
          Alcotest.test_case "out of bounds" `Quick out_of_bounds_error;
          Alcotest.test_case "runaway guard" `Quick runaway_loop_guard;
          Alcotest.test_case "stop" `Quick stop_is_error;
          Alcotest.test_case "visibility rules" `Quick visibility_rules;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "capture and replay" `Quick kernel_capture_and_replay;
          Alcotest.test_case "fma divergence" `Quick kernel_flags_fma_divergence;
          Alcotest.test_case "normalized rms" `Quick normalized_rms_values;
        ] );
      ("properties", qcheck_cases);
    ]
