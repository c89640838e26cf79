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

(* --- differential: the translating machine vs the tree-walking oracle ------------------------ *)

module Tree = Rca_oracle.Tree_interp

(* Everything a run can show, floats as their bits: the entry's result or
   the class of exception it raised, every module's own variables, the
   history, the printed log, the hook event stream and the statement
   count. *)
type outcome = {
  result : string;
  globals : string list;
  hist : string list;
  printed : string;
  events : string list;
  steps : int;
}

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let rec show = function
  | Machine.Vreal f -> "r" ^ bits f
  | Machine.Vint i -> "i" ^ string_of_int i
  | Machine.Vlog b -> if b then "T" else "F"
  | Machine.Vstr s -> Printf.sprintf "%S" s
  | Machine.Varr a ->
      Printf.sprintf "[%s|%s]"
        (String.concat "x" (Array.to_list (Array.map string_of_int a.Machine.dims)))
        (String.concat "," (Array.to_list (Array.map bits a.Machine.data)))
  | Machine.Vderived tbl -> "{" ^ String.concat ";" (table tbl) ^ "}"

and table tbl = List.sort compare (Hashtbl.fold (fun k c acc -> (k ^ "=" ^ show !c) :: acc) tbl [])

let exn_class = function
  | Machine.Runtime_error _ -> "Runtime_error"
  | e ->
      let name = Printexc.exn_slot_name e in
      String.sub name (String.rindex name '.' + 1) (String.length name - String.rindex name '.' - 1)

(* Record on_stmt, on_assign, on_outfld and the locals tables on_call and
   on_return see. *)
let record (h : Machine.hooks) =
  let events = ref [] in
  let add e = events := e :: !events in
  h.Machine.on_stmt <- Some (fun md sb line -> add (Printf.sprintf "stmt %s.%s:%d" md sb line));
  h.Machine.on_assign <-
    Some
      (fun ~module_ ~sub ~line ~var ~canonical v ->
        add (Printf.sprintf "assign %s.%s:%d %s/%s=%s" module_ sub line var canonical (bits v)));
  h.Machine.on_outfld <- Some (fun fld v -> add (Printf.sprintf "outfld %s=%s" fld (bits v)));
  h.Machine.on_call <-
    Some (fun md sb tbl -> add (Printf.sprintf "call %s.%s %s" md sb (String.concat " " (table tbl))));
  h.Machine.on_return <-
    Some (fun md sb tbl -> add (Printf.sprintf "return %s.%s %s" md sb (String.concat " " (table tbl))));
  events

let sorted_history h = List.sort compare (List.map (fun (k, v) -> k ^ "=" ^ bits v) h)

let own_globals modules own =
  Hashtbl.fold (fun md mrt acc -> List.map (fun kv -> md ^ "." ^ kv) (table (own mrt)) @ acc) modules []
  |> List.sort compare

let machine_outcome ?max_steps ?(configure = fun _ -> ()) prog ~module_ ~sub ~args =
  let m = Machine.create ?max_steps prog in
  configure m;
  let events = record m.Machine.hooks in
  let result =
    match Machine.invoke m ~module_ ~sub ~args with v -> show v | exception e -> exn_class e
  in
  {
    result;
    globals = own_globals m.Machine.modules (fun mrt -> mrt.Machine.own_vars);
    hist = sorted_history (Machine.history m);
    printed = Machine.printed m;
    events = List.rev !events;
    steps = m.Machine.steps;
  }

let oracle_outcome ?max_steps ?(configure = fun _ -> ()) prog ~module_ ~sub ~args =
  let m = Tree.create ?max_steps prog in
  configure m;
  let events = record m.Tree.hooks in
  let result = match Tree.invoke m ~module_ ~sub ~args with v -> show v | exception e -> exn_class e in
  {
    result;
    globals = own_globals m.Tree.modules (fun mrt -> mrt.Tree.own_vars);
    hist = sorted_history (Tree.history m);
    printed = Tree.printed m;
    events = List.rev !events;
    steps = m.Tree.steps;
  }

let check_outcome label (want : outcome) (got : outcome) =
  let strings = Alcotest.(check (list string)) in
  Alcotest.(check string) (label ^ ": result") want.result got.result;
  strings (label ^ ": module variables") want.globals got.globals;
  strings (label ^ ": history") want.hist got.hist;
  Alcotest.(check string) (label ^ ": printed") want.printed got.printed;
  strings (label ^ ": hook events") want.events got.events;
  check_int (label ^ ": statements") want.steps got.steps

(* Run one entry point through both engines; [fma] configures both. *)
let same ?max_steps ?fma ?prng label src ~module_ ~sub ~args =
  let prog = parse src in
  let prng () = Option.map (fun mk -> mk ()) prng in
  let machine =
    machine_outcome ?max_steps prog ~module_ ~sub ~args ~configure:(fun m ->
        Option.iter (fun p -> m.Machine.prng <- p) (prng ());
        Option.iter (fun on -> Machine.set_fma m ~enabled:on ~disabled:[]) fma)
  in
  let oracle =
    oracle_outcome ?max_steps prog ~module_ ~sub ~args ~configure:(fun m ->
        Option.iter (fun p -> m.Tree.prng <- p) (prng ());
        Option.iter (fun on -> Tree.set_fma m ~enabled:on ~disabled:[]) fma)
  in
  check_outcome label oracle machine;
  machine

let existing_programs_agree () =
  let go = [] in
  List.iter
    (fun (label, src, module_, sub, args) ->
      List.iter
        (fun fma -> ignore (same ~fma (Printf.sprintf "%s fma=%b" label fma) src ~module_ ~sub ~args))
        [ false; true ])
    [
      ("arith", arith_src, "arith", "go", go);
      ("control flow", control_flow_src, "flow", "go", [ Machine.Vint 5 ]);
      ("arrays", array_src, "arrays", "go", go);
      ("derived", derived_src, "driver", "go", go);
      ("calls", call_src, "caller_mod", "go", go);
      ("use renames", use_rename_src, "consumer", "go", go);
      ("interface", interface_src, "generic_mod", "go", go);
      ( "fma",
        fma_src,
        "mg",
        "go",
        [ Machine.Vreal (1.0 +. epsilon_float); Machine.Vreal (1.0 -. epsilon_float); Machine.Vreal (-1.0) ] );
      ("outfld", outfld_src, "hist", "go", go);
      ("kernel", kernel_src, "kdriver", "run_model", go);
      ("unknown variable", "module bad\ncontains\nsubroutine go()\nx = y + 1\nend subroutine\nend module bad", "bad", "go", go);
      ("out of bounds", "module bad\nreal(r8) :: a(3)\ncontains\nsubroutine go()\na(4) = 1.0\nend subroutine\nend module bad", "bad", "go", go);
      ("stop", "module s\ncontains\nsubroutine go()\nstop\nend subroutine\nend module s", "s", "go", go);
      ( "visibility",
        "module src\nreal(r8), parameter :: v = 2.0\nend module src\nmodule user\nuse src\n\
         real(r8), parameter :: v = 5.0\nreal(r8) :: got\ncontains\nsubroutine go()\ngot = v\n\
         end subroutine go\nend module user",
        "user",
        "go",
        go );
      ("unknown entry", arith_src, "arith", "nope", go);
    ];
  List.iter
    (fun (label, prng) -> ignore (same ~prng label rng_src ~module_:"cloud" ~sub:"go" ~args:[]))
    [ ("kiss", fun () -> Rca_rng.Kiss.create 7); ("mt", fun () -> Rca_rng.Mersenne.create 7) ];
  ignore
    (same ~max_steps:10_000 "runaway guard"
       "module bad\nreal(r8) :: x\ncontains\nsubroutine go()\ndo while (x < 1.0)\nx = 0.0\nend do\nend subroutine\nend module bad"
       ~module_:"bad" ~sub:"go" ~args:[])

(* An undeclared do-variable is a local only once its loop first runs:
   before that its name is unknown, or a function call. *)
let undeclared_do_variable () =
  let src =
    {|
module dv
  real(r8) :: got, seen
contains
  function twice(a) result(r)
    real(r8), intent(in) :: a
    real(r8) :: r
    r = 2.0_r8 * a
  end function twice
  subroutine go()
    seen = twice(3.0_r8)
    do twice = 1, 2
      seen = seen + twice
    end do
    got = twice * 10.0_r8
    do j = 1, 3
      seen = seen + j
    end do
    do k = 1, 0
    end do
    seen = seen + 7 / (k + 2)
  end subroutine go
  subroutine early()
    got = j
    do j = 1, 2
    end do
  end subroutine early
end module dv
|}
  in
  let ok = same "do-variable" src ~module_:"dv" ~sub:"go" ~args:[] in
  check_bool "the loop variable keeps its last value" true
    (List.mem ("dv.got=r" ^ bits 20.0) ok.globals && List.mem ("dv.seen=r" ^ bits 18.0) ok.globals);
  check_bool "on_return lists the do-variables" true
    (List.exists (fun e -> contains_sub ~sub:"j=i3" e && contains_sub ~sub:"twice=i2" e) ok.events);
  let early = same "do-variable before its loop" src ~module_:"dv" ~sub:"early" ~args:[] in
  Alcotest.(check string) "unknown before the loop" "Runtime_error" early.result

(* A store takes the type of the cell it lands in: an integer truncates
   a real, a real widens an integer, and a logical replaces a real. *)
let store_coercions () =
  let src =
    {|
module co
  integer :: n
  real(r8) :: x, y, z
contains
  subroutine go()
    n = 2.7_r8
    x = 7
    y = .true.
    z = y + 1.0_r8
  end subroutine go
end module co
|}
  in
  let o = same "coercions" src ~module_:"co" ~sub:"go" ~args:[] in
  List.iter
    (fun g -> check_bool g true (List.mem g o.globals))
    [ "co.n=i2"; "co.x=r" ^ bits 7.0; "co.y=T"; "co.z=r" ^ bits 2.0 ]

(* Plain actuals alias the caller's cell; element and section actuals are
   copied in and back, the last-bound one first. *)
let actual_aliasing () =
  let src =
    {|
module al
  real(r8) :: s, a(3), b(3, 2)
contains
  subroutine bump(x)
    real(r8), intent(inout) :: x
    x = x + 1.0_r8
  end subroutine bump
  subroutine twice(p, q)
    real(r8), intent(inout) :: p, q
    p = p + 1.0_r8
    q = q * 3.0_r8
  end subroutine twice
  subroutine fill(v)
    real(r8), intent(inout) :: v(3)
    v = 9.0_r8
  end subroutine fill
  subroutine go()
    s = 1.0_r8
    a = 1.0_r8
    call bump(s)
    call bump(a(2))
    call twice(s, s)
    call twice(a(1), a(1))
    call fill(b(:, 2))
  end subroutine go
end module al
|}
  in
  let o = same "aliasing" src ~module_:"al" ~sub:"go" ~args:[] in
  check_bool "aliased twice: (2+1)*3" true (List.mem ("al.s=r" ^ bits 9.0) o.globals);
  check_bool "element copy-backs: the first-bound wins" true
    (List.mem
       (Printf.sprintf "al.a=[3|%s,%s,%s]" (bits 2.0) (bits 2.0) (bits 1.0))
       o.globals);
  check_bool "section copied back" true
    (List.mem
       (Printf.sprintf "al.b=[3x2|%s]"
          (String.concat "," (List.map bits [ 0.; 0.; 0.; 9.; 9.; 9. ])))
       o.globals)

(* The four contraction shapes, their evaluation order (x and y before c)
   and the all-integer case, FMA on and off. *)
let fma_shapes () =
  let src =
    {|
module sh
  real(r8) :: r1, r2, r3, r4, r5, r6
  integer :: i1, i2, i3, i4
contains
  function say(v) result(r)
    real(r8), intent(in) :: v
    real(r8) :: r
    print *, v
    r = v
  end function say
  subroutine go(a, b, c)
    real(r8), intent(in) :: a, b, c
    integer :: i, j, k
    i = 3
    j = -4
    k = 5
    r1 = a * b + c
    r2 = c + a * b
    r3 = a * b - c
    r4 = c - a * b
    r5 = say(c) + say(a) * say(b)
    r6 = say(c) - say(b) * 2.0_r8
    i1 = i * j + k
    i2 = k + i * j
    i3 = i * j - k
    i4 = k - i * j
  end subroutine go
end module sh
|}
  in
  let a = 1.0 +. epsilon_float and b = 1.0 -. epsilon_float in
  let args = [ Machine.Vreal a; Machine.Vreal b; Machine.Vreal (-1.0) ] in
  let on = same ~fma:true "fma on" src ~module_:"sh" ~sub:"go" ~args in
  let off = same ~fma:false "fma off" src ~module_:"sh" ~sub:"go" ~args in
  check_bool "c + a*b contracts" true (List.mem ("sh.r2=r" ^ bits (Float.fma a b (-1.0))) on.globals);
  check_bool "c - a*b contracts" true
    (List.mem ("sh.r4=r" ^ bits (Float.fma (-.a) b (-1.0))) on.globals);
  check_bool "integers stay exact" true (List.mem "sh.i4=i17" on.globals && List.mem "sh.i1=i-7" on.globals);
  Alcotest.(check string) "contracted operands run before the addend" "1\n1\n-1\n1\n-1\n" on.printed;
  Alcotest.(check string) "plain order" "-1\n1\n1\n-1\n1\n" off.printed

(* set_fma between two runs on one machine applies from the next call on. *)
let fma_switched_between_runs () =
  let prog = parse fma_src in
  let a = 1.0 +. epsilon_float and b = 1.0 -. epsilon_float in
  let args = [ Machine.Vreal a; Machine.Vreal b; Machine.Vreal (-1.0) ] in
  let runs invoke set get =
    List.map
      (fun on ->
        set on;
        ignore (invoke args);
        get ())
      [ false; true; false ]
  in
  let m = Machine.create prog and t = Tree.create prog in
  let machine =
    runs (fun args -> Machine.invoke m ~module_:"mg" ~sub:"go" ~args)
      (fun on -> Machine.set_fma m ~enabled:on ~disabled:[])
      (fun () -> getf m ~module_:"mg" ~name:"r1")
  and oracle =
    runs (fun args -> Tree.invoke t ~module_:"mg" ~sub:"go" ~args)
      (fun on -> Tree.set_fma t ~enabled:on ~disabled:[])
      (fun () -> match Tree.get_module_var t ~module_:"mg" ~name:"r1" with Machine.Vreal f -> f | _ -> nan)
  in
  Alcotest.(check (list string)) "each run under its flags" (List.map bits oracle) (List.map bits machine);
  check_bool "the flags changed the result" true (List.nth machine 0 <> List.nth machine 1)

(* set_fma from a hook in the middle of a run: a call in progress keeps
   its flags, the next call takes the new ones. *)
let fma_switched_mid_run () =
  let src =
    {|
module sw
  real(r8) :: a, b, r(2)
contains
  subroutine inner(k)
    integer, intent(in) :: k
    r(k) = a * b - 1.0_r8
  end subroutine inner
  subroutine go()
    integer :: k
    a = 1.0_r8 + epsilon(a)
    b = 1.0_r8 - epsilon(b)
    do k = 1, 2
      call inner(k)
    end do
  end subroutine go
end module sw
|}
  in
  let prog = parse src in
  (* turn FMA on just before the call statement runs a second time *)
  let hook set =
    let seen = ref 0 in
    Some (fun _ _ line -> if line = 14 then (incr seen; if !seen = 2 then set ()))
  in
  let m = Machine.create prog and t = Tree.create prog in
  m.Machine.hooks.Machine.on_stmt <- hook (fun () -> Machine.set_fma m ~enabled:true ~disabled:[]);
  t.Tree.hooks.Machine.on_stmt <- hook (fun () -> Tree.set_fma t ~enabled:true ~disabled:[]);
  ignore (Machine.invoke m ~module_:"sw" ~sub:"go" ~args:[]);
  ignore (Tree.invoke t ~module_:"sw" ~sub:"go" ~args:[]);
  let r get = match get ~module_:"sw" ~name:"r" with Machine.Varr a -> Array.to_list (Array.map bits a.Machine.data) | _ -> [] in
  Alcotest.(check (list string)) "same results" (r (Tree.get_module_var t)) (r (Machine.get_module_var m));
  match r (Machine.get_module_var m) with
  | [ r1; r2 ] -> check_bool "the second call contracted" true (r1 <> r2)
  | _ -> Alcotest.fail "r has two elements"

(* One component site reading two derived values: a derived-type formal
   bound to two different actuals. *)
let component_site_two_values () =
  let src =
    {|
module dt
  type pt
    real(r8) :: v
  end type pt
  type(pt) :: a, b
  real(r8) :: s1, s2
contains
  function getv(p) result(r)
    type(pt), intent(in) :: p
    real(r8) :: r
    r = p%v
  end function getv
  subroutine go()
    a%v = 1.0_r8
    b%v = 2.0_r8
    s1 = getv(a)
    s2 = getv(b)
  end subroutine go
end module dt
|}
  in
  let o = same "component site" src ~module_:"dt" ~sub:"go" ~args:[] in
  check_bool "each call reads its own value" true (List.mem ("dt.s2=r" ^ bits 2.0) o.globals)

(* A declaration's initializer sees the formals and earlier declarations
   only: a module variable that a later local declaration shadows. *)
let declaration_scope () =
  let src =
    {|
module ds
  real(r8) :: b = 5.0_r8
  real(r8) :: got
contains
  subroutine go()
    real(r8) :: a = b
    real(r8) :: b
    b = 1.0_r8
    got = a + b
  end subroutine go
end module ds
|}
  in
  let o = same "declaration scope" src ~module_:"ds" ~sub:"go" ~args:[] in
  check_bool "a saw the module's b, the body its own" true (List.mem ("ds.got=r" ^ bits 6.0) o.globals)

(* .and., .or. and merge evaluate no more operands than the tree-walker. *)
let short_circuits () =
  let src =
    {|
module sc
  integer :: touched
  real(r8) :: m1, m2
  logical :: l1, l2
contains
  function touch() result(r)
    logical :: r
    touched = touched + 1
    r = .true.
  end function touch
  function val(x) result(r)
    real(r8), intent(in) :: x
    real(r8) :: r
    touched = touched + 10
    r = x
  end function val
  subroutine go()
    touched = 0
    l1 = .false. .and. touch()
    l2 = .true. .or. touch()
    if (touch() .and. .false.) l1 = .true.
    m1 = merge(val(1.0_r8), val(2.0_r8), .true.)
    m2 = merge(val(1.0_r8), val(2.0_r8), touch())
  end subroutine go
end module sc
|}
  in
  let o = same "short circuits" src ~module_:"sc" ~sub:"go" ~args:[] in
  check_bool "two touches and two merge operands" true (List.mem "sc.touched=i22" o.globals)

(* Operands run in the tree-walker's order, which the printed log shows:
   left to right for arithmetic, comparisons, //, intrinsic and call
   arguments, indices, loop bounds and outfld's (name, value). *)
let operand_order () =
  let src =
    {|
module oo
  real(r8) :: r(8), grid(3, 3)
  logical :: l
  character :: c
contains
  function say(v) result(r)
    real(r8), intent(in) :: v
    real(r8) :: r
    print *, v
    r = v
  end function say
  function tag(s) result(r)
    character, intent(in) :: s
    character :: r
    print *, s
    r = s
  end function tag
  function pair(a, b) result(r)
    real(r8), intent(in) :: a, b
    real(r8) :: r
    r = a - b
  end function pair
  subroutine go()
    integer :: i
    r(1) = say(1.0_r8) + say(2.0_r8)
    r(2) = say(3.0_r8) / say(4.0_r8) - say(5.0_r8) ** say(6.0_r8)
    l = say(7.0_r8) < say(8.0_r8)
    l = say(9.0_r8) == say(10.0_r8) .or. say(11.0_r8) >= say(12.0_r8)
    r(3) = mod(say(13.0_r8), say(14.0_r8)) + sign(say(15.0_r8), say(16.0_r8))
    r(4) = max(say(17.0_r8), say(18.0_r8), say(19.0_r8)) + min(say(20.0_r8), say(21.0_r8))
    r(5) = pair(say(22.0_r8), say(23.0_r8))
    grid(int(say(1.0_r8)), int(say(2.0_r8))) = say(24.0_r8)
    do i = int(say(1.0_r8)), int(say(2.0_r8))
      r(6) = r(6) + i
    end do
    c = tag('a') // tag('b')
    call outfld(tag('n'), say(25.0_r8))
    print *, say(26.0_r8), say(27.0_r8)
  end subroutine go
end module oo
|}
  in
  List.iter
    (fun fma ->
      let o = same ~fma (Printf.sprintf "operand order fma=%b" fma) src ~module_:"oo" ~sub:"go" ~args:[] in
      check_bool "values printed" true (String.length o.printed > 40))
    [ false; true ]

(* The statement budget trips on the same statement in both engines. *)
let budget_trips_alike () =
  let src =
    "module bad\nreal(r8) :: x\ncontains\nsubroutine go()\ndo while (x < 1.0)\nx = x + 1.0e-9\ncall inner()\nend do\nend subroutine\nsubroutine inner()\nx = x * 1.0\nend subroutine\nend module bad"
  in
  List.iter
    (fun max_steps ->
      let o = same ~max_steps (Printf.sprintf "budget %d" max_steps) src ~module_:"bad" ~sub:"go" ~args:[] in
      Alcotest.(check string) "budget error" "Runtime_error" o.result;
      check_int "steps stop one past the budget" (max_steps + 1) o.steps)
    [ 1; 2; 999; 1_000; 1_001 ]

(* Random arithmetic with FMA on: every contraction shape the generator
   builds comes out bitwise equal. *)
let prop_engines_agree_with_fma =
  QCheck2.Test.make ~name:"translated machine matches the tree-walker (FMA on)" ~count:150
    (gen_arith 3) (fun text ->
      let src =
        Printf.sprintf
          "module t\nreal(r8) :: out, x, y\ncontains\nsubroutine go()\nx = 1.25\ny = -0.75\nout = %s\nend subroutine\nend module t"
          text
      in
      let prog = Parser.parse_file ~strict:true ~file:"t.F90" src in
      let fma m = Machine.set_fma m ~enabled:true ~disabled:[] in
      let machine = machine_outcome prog ~module_:"t" ~sub:"go" ~args:[] ~configure:fma in
      let oracle =
        oracle_outcome prog ~module_:"t" ~sub:"go" ~args:[] ~configure:(fun m ->
            Tree.set_fma m ~enabled:true ~disabled:[])
      in
      machine = oracle)

(* The first difference between two long event streams. *)
let check_stream label want got =
  let rec go k = function
    | w :: ws, g :: gs ->
        if w <> g then Alcotest.failf "%s: event %d differs: %s vs %s" label k w g else go (k + 1) (ws, gs)
    | [], [] -> ()
    | _ -> Alcotest.failf "%s: %d events vs %d" label (List.length want) (List.length got)
  in
  go 0 (want, got)

(* Every experiment at tiny scale: control, experimental, FMA On_except
   and RAND-MT runs give bitwise-equal outputs and identical on_stmt,
   on_assign and on_outfld streams on both engines. *)
let experiments_agree () =
  let module H = Rca_experiments.Harness in
  let module F = Rca_experiments.Fixture in
  let module Model = Rca_synth.Model in
  let config = Rca_synth.Config.tiny in
  let streams (h : Machine.hooks) =
    let events = record h in
    h.Machine.on_call <- None;
    h.Machine.on_return <- None;
    events
  in
  List.iter
    (fun (spec : H.spec) ->
      let fixture = F.make ~inject:spec.H.inject config in
      let base member = Model.default_opts ~member config in
      List.iter
        (fun (kind, program, opts) ->
          let label = spec.H.name ^ " " ^ kind in
          let got = ref (ref []) and want = ref (ref []) in
          let m = Model.run_machine program opts ~machine_hooks:(fun m -> got := streams m.Machine.hooks) in
          let t = Tree.run_model program opts ~machine_hooks:(fun t -> want := streams t.Tree.hooks) in
          let outputs value = List.map (fun n -> bits (Option.get (value n))) (Array.to_list Model.output_names) in
          Alcotest.(check (list string)) (label ^ ": outputs")
            (outputs (Tree.history_value t)) (outputs (Machine.history_value m));
          check_bool (label ^ ": events recorded") true (List.length !(!got) > 1_000);
          check_stream label (List.rev !(!want)) (List.rev !(!got)))
        [
          ("control", fixture.F.clean_program, base 0);
          ("experimental", fixture.F.exp_program, spec.H.opts (base 1000));
          ( "fma on_except",
            fixture.F.exp_program,
            { (base 1001) with Model.fma = `On_except [ "micro_mg"; "wv_saturation" ] } );
          ("rand-mt", fixture.F.clean_program, { (base 2) with Model.prng = Rca_rng.Mersenne.create 8191 });
        ])
    Rca_experiments.Experiments.all

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_interp_matches_reference; prop_engines_agree_with_fma ]

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
      ( "oracle",
        [
          Alcotest.test_case "existing programs" `Quick existing_programs_agree;
          Alcotest.test_case "undeclared do variable" `Quick undeclared_do_variable;
          Alcotest.test_case "store coercions" `Quick store_coercions;
          Alcotest.test_case "actual aliasing and copy-back" `Quick actual_aliasing;
          Alcotest.test_case "fma shapes" `Quick fma_shapes;
          Alcotest.test_case "fma switched between runs" `Quick fma_switched_between_runs;
          Alcotest.test_case "declaration scope" `Quick declaration_scope;
          Alcotest.test_case "fma switched mid-run" `Quick fma_switched_mid_run;
          Alcotest.test_case "component site, two values" `Quick component_site_two_values;
          Alcotest.test_case "short circuits" `Quick short_circuits;
          Alcotest.test_case "operand order" `Quick operand_order;
          Alcotest.test_case "budget trips alike" `Quick budget_trips_alike;
          Alcotest.test_case "tiny experiments" `Quick experiments_agree;
        ] );
      ("properties", qcheck_cases);
    ]
