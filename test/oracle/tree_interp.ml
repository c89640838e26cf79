(* The tree-walking interpreter the translating [Rca_interp.Machine]
   replaced, kept as its differential reference.  It evaluates the AST
   directly and resolves every name through string tables at run time;
   the machine must reproduce its outputs bitwise and its hook events
   exactly.  Values, hooks and [Runtime_error] are the machine's own, so
   the two engines' results and observers can be compared directly. *)

open Rca_fortran

exception Runtime_error = Rca_interp.Machine.Runtime_error

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* --- values ---------------------------------------------------------------- *)

type arr = Rca_interp.Machine.arr = { dims : int array; data : float array }

type value = Rca_interp.Machine.value =
  | Vreal of float
  | Vint of int
  | Vlog of bool
  | Vstr of string
  | Varr of arr
  | Vderived of (string, value ref) Hashtbl.t

let rec copy_value = function
  | (Vreal _ | Vint _ | Vlog _ | Vstr _) as v -> v
  | Varr a -> Varr { dims = Array.copy a.dims; data = Array.copy a.data }
  | Vderived tbl ->
      let tbl' = Hashtbl.create (Hashtbl.length tbl) in
      Hashtbl.iter (fun k cell -> Hashtbl.replace tbl' k (ref (copy_value !cell))) tbl;
      Vderived tbl'

let as_float = function
  | Vreal f -> f
  | Vint i -> float_of_int i
  | Vlog b -> if b then 1.0 else 0.0
  | Varr _ -> err "array used where a scalar is required"
  | Vstr _ -> err "string used where a number is required"
  | Vderived _ -> err "derived type used where a number is required"

let as_int = function
  | Vint i -> i
  | Vreal f -> int_of_float f
  | v -> err "expected integer, got %s" (match v with Vlog _ -> "logical" | _ -> "non-numeric")

let as_bool = function
  | Vlog b -> b
  | Vint i -> i <> 0
  | _ -> err "expected logical value"

let as_arr = function Varr a -> a | _ -> err "expected an array"

(* L2 norm; the scalar a whole-array assignment reports to the sampling
   hook. *)
let arr_norm a =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 a.data)

(* --- runtime structures ------------------------------------------------------ *)

type module_rt = {
  unit_ : Ast.module_unit;
  vars : (string, value ref) Hashtbl.t;  (* visible cells: own + imported *)
  own_vars : (string, value ref) Hashtbl.t;  (* cells of the module's own declarations *)
  visible_subs : (string, Visibility.callable list) Hashtbl.t;  (* incl. interface candidates *)
  visible_types : (string, Ast.derived_type_def) Hashtbl.t;
}

type hooks = Rca_interp.Machine.hooks = {
  mutable on_stmt : (string -> string -> int -> unit) option;
  mutable on_assign :
    (module_:string -> sub:string -> line:int -> var:string -> canonical:string ->
     float -> unit)
    option;
  mutable on_call : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
  mutable on_return : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
  mutable on_outfld : (string -> float -> unit) option;
}

type t = {
  program : Ast.program;
  modules : (string, module_rt) Hashtbl.t;
  mutable prng : Rca_rng.Prng.t;
  mutable fma_for : string -> bool;
  hooks : hooks;
  history : (string, float) Hashtbl.t;  (* outfld name -> last value *)
  print_log : Buffer.t;
  mutable steps : int;
  mutable max_steps : int;
}

type ctx = {
  machine : t;
  mrt : module_rt;
  sub_name : string;
  locals : (string, value ref) Hashtbl.t;
  mutable fma : bool;  (* cached per-module flag *)
}

exception Return_exc
exception Exit_exc
exception Cycle_exc

(* --- name resolution ----------------------------------------------------------- *)

let lookup_cell ctx name =
  match Hashtbl.find_opt ctx.locals name with
  | Some c -> Some c
  | None -> Hashtbl.find_opt ctx.mrt.vars name

(* --- array indexing ------------------------------------------------------------- *)

let flat_index a idx =
  let nd = Array.length a.dims in
  if Array.length idx <> nd then
    err "rank mismatch: %d indices for rank-%d array" (Array.length idx) nd;
  let flat = ref 0 and stride = ref 1 in
  for d = 0 to nd - 1 do
    let i = idx.(d) in
    if i < 1 || i > a.dims.(d) then
      err "index %d out of bounds 1..%d in dimension %d" i a.dims.(d) (d + 1);
    flat := !flat + ((i - 1) * !stride);
    stride := !stride * a.dims.(d)
  done;
  !flat

(* Flat indices selected by a (index | full-range) vector, column-major. *)
let slice_indices a spec =
  let nd = Array.length a.dims in
  if Array.length spec <> nd then err "rank mismatch in array section";
  let rec build d acc_flat stride =
    if d = nd then [ acc_flat ]
    else
      match spec.(d) with
      | `At i ->
          if i < 1 || i > a.dims.(d) then err "section index out of bounds";
          build (d + 1) (acc_flat + ((i - 1) * stride)) (stride * a.dims.(d))
      | `All ->
          List.concat_map
            (fun i -> build (d + 1) (acc_flat + ((i - 1) * stride)) (stride * a.dims.(d)))
            (List.init a.dims.(d) (fun k -> k + 1))
  in
  build 0 0 1

(* --- lvalues --------------------------------------------------------------------- *)

type lvalue =
  | Lcell of value ref
  | Lelem of arr * int  (* flat index *)
  | Lslice of arr * int list

(* --- expression evaluation --------------------------------------------------------- *)

let rec eval_expr ctx (e : Ast.expr) : value =
  match e with
  | Ast.Enum f -> Vreal f
  | Ast.Eint i -> Vint i
  | Ast.Elogical b -> Vlog b
  | Ast.Estring s -> Vstr s
  | Ast.Erange _ -> err "array section used as a value"
  | Ast.Eun (Ast.Neg, e) -> (
      match eval_expr ctx e with
      | Vint i -> Vint (-i)
      | v -> Vreal (-.as_float v))
  | Ast.Eun (Ast.Not, e) -> Vlog (not (as_bool (eval_expr ctx e)))
  | Ast.Ebin (op, a, b) -> eval_binop ctx op a b
  | Ast.Edesig d -> eval_designator ctx d

and eval_binop ctx op a b =
  let open Ast in
  match op with
  | And -> Vlog (as_bool (eval_expr ctx a) && as_bool (eval_expr ctx b))
  | Or -> Vlog (as_bool (eval_expr ctx a) || as_bool (eval_expr ctx b))
  | Concat -> (
      match (eval_expr ctx a, eval_expr ctx b) with
      | Vstr x, Vstr y -> Vstr (x ^ y)
      | _ -> err "// requires strings")
  | Eq | Ne | Lt | Le | Gt | Ge -> (
      let va = eval_expr ctx a and vb = eval_expr ctx b in
      match (va, vb) with
      | Vstr x, Vstr y ->
          let c = compare x y in
          Vlog
            (match op with
            | Eq -> c = 0
            | Ne -> c <> 0
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0
            | _ -> assert false)
      | _ ->
          let x = as_float va and y = as_float vb in
          Vlog
            (match op with
            | Eq -> x = y
            | Ne -> x <> y
            | Lt -> x < y
            | Le -> x <= y
            | Gt -> x > y
            | Ge -> x >= y
            | _ -> assert false))
  | Add | Sub -> eval_addsub ctx op a b
  | Mul -> arith ctx ( * ) ( *. ) a b
  | Div ->
      let va = eval_expr ctx a and vb = eval_expr ctx b in
      (match (va, vb) with
      | Vint x, Vint y ->
          if y = 0 then err "integer division by zero";
          (* Fortran integer division truncates toward zero *)
          Vint (if (x < 0) <> (y < 0) then -(abs x / abs y) else abs x / abs y)
      | _ -> Vreal (as_float va /. as_float vb))
  | Pow -> (
      let va = eval_expr ctx a and vb = eval_expr ctx b in
      match (va, vb) with
      | Vint x, Vint y when y >= 0 ->
          let rec ipow acc b e = if e = 0 then acc else ipow (acc * b) b (e - 1) in
          Vint (ipow 1 x y)
      | _ -> Vreal (Float.pow (as_float va) (as_float vb)))

(* a*b+c patterns contract to a fused multiply-add when the current module
   has FMA enabled — the mechanism behind the AVX2 experiments. *)
and eval_addsub ctx op a b =
  let open Ast in
  let plain () =
    match op with
    | Add -> arith ctx ( + ) ( +. ) a b
    | Sub -> arith ctx ( - ) ( -. ) a b
    | _ -> assert false
  in
  if not ctx.fma then plain ()
  else
    match (op, a, b) with
    | Add, Ebin (Mul, x, y), c | Add, c, Ebin (Mul, x, y) -> fused ctx x y c 1.0
    | Sub, Ebin (Mul, x, y), c -> fused_negc ctx x y c
    | Sub, c, Ebin (Mul, x, y) -> fused ctx x y c (-1.0)
    | _ -> plain ()

and fused ctx x y c sign_xy =
  let vx = eval_expr ctx x and vy = eval_expr ctx y and vc = eval_expr ctx c in
  match (vx, vy, vc) with
  | Vint a, Vint b, Vint cc -> Vint ((int_of_float sign_xy * a * b) + cc)
  | _ -> Vreal (Float.fma (sign_xy *. as_float vx) (as_float vy) (as_float vc))

and fused_negc ctx x y c =
  let vx = eval_expr ctx x and vy = eval_expr ctx y and vc = eval_expr ctx c in
  match (vx, vy, vc) with
  | Vint a, Vint b, Vint cc -> Vint ((a * b) - cc)
  | _ -> Vreal (Float.fma (as_float vx) (as_float vy) (-.as_float vc))

and arith ctx iop fop a b =
  let va = eval_expr ctx a and vb = eval_expr ctx b in
  match (va, vb) with
  | Vint x, Vint y -> Vint (iop x y)
  | _ -> Vreal (fop (as_float va) (as_float vb))

and eval_designator ctx (d : Ast.designator) : value =
  match d with
  | Ast.Dname n -> (
      match lookup_cell ctx n with
      | Some cell -> !cell
      | None -> err "unknown variable %s in %s.%s" n ctx.mrt.unit_.Ast.m_name ctx.sub_name)
  | Ast.Dmember _ -> (
      match resolve_lvalue ctx d with
      | Lcell cell -> !cell
      | Lelem (a, i) -> Vreal a.data.(i)
      | Lslice (a, idx) ->
          Varr { dims = [| List.length idx |]; data = Array.of_list (List.map (fun i -> a.data.(i)) idx) })
  | Ast.Dindex (base, args) -> (
      (* array reference or function call — the Fortran ambiguity *)
      match base with
      | Ast.Dname n when lookup_cell ctx n <> None -> (
          match resolve_lvalue ctx d with
          | Lcell cell -> !cell
          | Lelem (a, i) -> Vreal a.data.(i)
          | Lslice (a, idx) ->
              Varr
                { dims = [| List.length idx |];
                  data = Array.of_list (List.map (fun i -> a.data.(i)) idx) })
      | Ast.Dname n -> eval_function_call ctx n args
      | _ -> (
          match resolve_lvalue ctx d with
          | Lcell cell -> !cell
          | Lelem (a, i) -> Vreal a.data.(i)
          | Lslice (a, idx) ->
              Varr
                { dims = [| List.length idx |];
                  data = Array.of_list (List.map (fun i -> a.data.(i)) idx) }))

and eval_function_call ctx name args =
  if Visibility.is_intrinsic name then eval_intrinsic ctx name args
  else
    match Hashtbl.find_opt ctx.mrt.visible_subs name with
    | Some candidates -> (
        let arity = List.length args in
        match
          List.find_opt
            (fun (c : Visibility.callable) ->
              List.length c.c_sub.Ast.s_args = arity && c.c_sub.Ast.s_kind = Ast.Function)
            candidates
        with
        | Some c -> call_subprogram ctx.machine c (bind_actuals ctx c args)
        | None -> err "no matching function %s/%d" name arity)
    | None -> err "unknown function or array %s in %s" name ctx.mrt.unit_.Ast.m_name

and eval_intrinsic ctx name args =
  let one () = match args with [ a ] -> eval_expr ctx a | _ -> err "%s expects 1 argument" name in
  let fl f = Vreal (f (as_float (one ()))) in
  match name with
  | "abs" -> (
      match one () with Vint i -> Vint (abs i) | v -> Vreal (abs_float (as_float v)))
  | "sqrt" -> fl sqrt
  | "exp" -> fl exp
  | "log" -> fl log
  | "log10" -> fl log10
  | "sin" -> fl sin
  | "cos" -> fl cos
  | "tan" -> fl tan
  | "tanh" -> fl tanh
  | "real" | "dble" -> Vreal (as_float (one ()))
  | "int" -> Vint (int_of_float (as_float (one ())))
  | "nint" -> Vint (int_of_float (Float.round (as_float (one ()))))
  | "floor" -> Vint (int_of_float (Float.floor (as_float (one ()))))
  | "epsilon" ->
      ignore (one ());
      Vreal epsilon_float
  | "tiny" ->
      ignore (one ());
      Vreal 2.2250738585072014e-308
  | "huge" ->
      ignore (one ());
      Vreal 1.7976931348623157e308
  | "min" | "max" -> (
      let vs = List.map (fun a -> eval_expr ctx a) args in
      match vs with
      | [] -> err "%s needs arguments" name
      | v0 :: rest ->
          if List.for_all (function Vint _ -> true | _ -> false) vs then
            let f = if name = "min" then min else max in
            Vint (List.fold_left (fun acc v -> f acc (as_int v)) (as_int v0) rest)
          else
            let f = if name = "min" then Float.min else Float.max in
            Vreal (List.fold_left (fun acc v -> f acc (as_float v)) (as_float v0) rest))
  | "mod" -> (
      match List.map (fun a -> eval_expr ctx a) args with
      | [ Vint a; Vint b ] ->
          if b = 0 then err "mod by zero";
          Vint (a - (b * (a / b)))
      | [ a; b ] -> Vreal (Float.rem (as_float a) (as_float b))
      | _ -> err "mod expects 2 arguments")
  | "sign" -> (
      match List.map (fun a -> eval_expr ctx a) args with
      | [ a; b ] ->
          let x = as_float a in
          Vreal (if as_float b >= 0.0 then abs_float x else -.abs_float x)
      | _ -> err "sign expects 2 arguments")
  | "sum" -> Vreal (Array.fold_left ( +. ) 0.0 (as_arr (one ())).data)
  | "maxval" -> Vreal (Array.fold_left Float.max neg_infinity (as_arr (one ())).data)
  | "minval" -> Vreal (Array.fold_left Float.min infinity (as_arr (one ())).data)
  | "size" -> Vint (Array.length (as_arr (one ())).data)
  | "merge" -> (
      match args with
      | [ t; f; mask ] -> if as_bool (eval_expr ctx mask) then eval_expr ctx t else eval_expr ctx f
      | _ -> err "merge expects 3 arguments")
  | _ -> err "unimplemented intrinsic %s" name

(* Resolve a designator to an assignable location. *)
and resolve_lvalue ctx (d : Ast.designator) : lvalue =
  match d with
  | Ast.Dname n -> (
      match lookup_cell ctx n with
      | Some cell -> Lcell cell
      | None -> err "unknown variable %s in %s.%s" n ctx.mrt.unit_.Ast.m_name ctx.sub_name)
  | Ast.Dmember (base, field) -> (
      let base_cell =
        match resolve_lvalue ctx base with
        | Lcell c -> c
        | Lelem _ | Lslice _ -> err "indexing into derived-type arrays is not supported"
      in
      match !base_cell with
      | Vderived tbl -> (
          match Hashtbl.find_opt tbl field with
          | Some c -> Lcell c
          | None -> err "derived type has no component %s" field)
      | _ -> err "%%%s applied to a non-derived value" field)
  | Ast.Dindex (base, args) -> (
      let cell =
        match resolve_lvalue ctx base with
        | Lcell c -> c
        | _ -> err "cannot index a section"
      in
      match !cell with
      | Varr a ->
          let spec =
            Array.of_list
              (List.map
                 (function
                   | Ast.Erange (None, None) -> `All
                   | Ast.Erange _ -> err "bounded array sections are not supported at runtime"
                   | e -> `At (as_int (eval_expr ctx e)))
                 args)
          in
          if Array.for_all (function `At _ -> true | `All -> false) spec then
            Lelem (a, flat_index a (Array.map (function `At i -> i | `All -> 0) spec))
          else Lslice (a, slice_indices a spec)
      | _ -> err "%s is not an array" (Ast.designator_base base))

(* Bind actual arguments to a callee's formals.  Plain-variable actuals
   alias the caller's cell (Fortran by-reference); element/section actuals
   get copy-in/copy-out temporaries; expression actuals are passed by
   value.  Returns the prepared locals table and the copy-back thunk. *)
and bind_actuals ctx (callee : Visibility.callable) args =
  let formals = callee.c_sub.Ast.s_args in
  if List.length formals <> List.length args then
    err "%s called with %d arguments, expected %d" callee.c_sub.Ast.s_name
      (List.length args) (List.length formals);
  let locals = Hashtbl.create 16 in
  let copy_backs = ref [] in
  (* An [Edesig] actual is only an lvalue when its base names a variable;
     otherwise it is a function call and is passed by value. *)
  let is_variable d = lookup_cell ctx (Ast.designator_base d) <> None in
  List.iter2
    (fun formal actual ->
      match actual with
      | Ast.Edesig d when is_variable d -> (
          match resolve_lvalue ctx d with
          | Lcell cell -> Hashtbl.replace locals formal cell
          | Lelem (a, i) ->
              let tmp = ref (Vreal a.data.(i)) in
              Hashtbl.replace locals formal tmp;
              copy_backs := (fun () -> a.data.(i) <- as_float !tmp) :: !copy_backs
          | Lslice (a, idx) ->
              let data = Array.of_list (List.map (fun i -> a.data.(i)) idx) in
              let tmp = ref (Varr { dims = [| Array.length data |]; data }) in
              Hashtbl.replace locals formal tmp;
              copy_backs :=
                (fun () ->
                  match !tmp with
                  | Varr a' -> List.iteri (fun k i -> a.data.(i) <- a'.data.(k)) idx
                  | v -> List.iter (fun i -> a.data.(i) <- as_float v) idx)
                :: !copy_backs)
      | e -> Hashtbl.replace locals formal (ref (eval_expr ctx e)))
    formals args;
  (locals, fun () -> List.iter (fun f -> f ()) !copy_backs)

(* --- declarations ------------------------------------------------------------------ *)

and default_value ctx_opt machine mrt locals (d : Ast.decl) : value =
  let eval_dim e =
    let ctx =
      match ctx_opt with
      | Some c -> c
      | None -> { machine; mrt; sub_name = "<decl>"; locals; fma = false }
    in
    as_int (eval_expr ctx e)
  in
  match d.Ast.d_dims with
  | [] -> (
      match d.Ast.d_type with
      | Ast.Treal -> Vreal 0.0
      | Ast.Tinteger -> Vint 0
      | Ast.Tlogical -> Vlog false
      | Ast.Tcharacter -> Vstr ""
      | Ast.Ttype tname -> (
          match Hashtbl.find_opt mrt.visible_types tname with
          | None -> err "unknown derived type %s" tname
          | Some td ->
              let tbl = Hashtbl.create 8 in
              List.iter
                (fun f ->
                  Hashtbl.replace tbl f.Ast.d_name
                    (ref (default_value ctx_opt machine mrt locals f)))
                td.Ast.t_fields;
              Vderived tbl))
  | dims ->
      let extents = List.map eval_dim dims in
      let total = List.fold_left ( * ) 1 extents in
      if total < 0 || total > 50_000_000 then err "unreasonable array size %d" total;
      Varr { dims = Array.of_list extents; data = Array.make total 0.0 }

(* --- statement execution -------------------------------------------------------------- *)

and store ctx line (d : Ast.designator) (v : value) =
  let lv = resolve_lvalue ctx d in
  let reported =
    match lv with
    | Lcell cell ->
        (match (!cell, v) with
        | Vint _, Vreal f -> cell := Vint (int_of_float f)
        | Vreal _, Vint i -> cell := Vreal (float_of_int i)
        | Varr a, (Vreal _ | Vint _) ->
            let x = as_float v in
            Array.fill a.data 0 (Array.length a.data) x
        | Varr a, Varr b ->
            if Array.length a.data <> Array.length b.data then
              err "array assignment length mismatch";
            Array.blit b.data 0 a.data 0 (Array.length a.data)
        | _ -> cell := v);
        (match !cell with
        | Vreal f -> Some f
        | Vint i -> Some (float_of_int i)
        | Varr a -> Some (arr_norm a)
        | _ -> None)
    | Lelem (a, i) ->
        let f = as_float v in
        a.data.(i) <- f;
        Some f
    | Lslice (a, idx) ->
        (match v with
        | Varr b ->
            if List.length idx <> Array.length b.data then
              err "section assignment length mismatch";
            List.iteri (fun k i -> a.data.(i) <- b.data.(k)) idx
        | _ ->
            let f = as_float v in
            List.iter (fun i -> a.data.(i) <- f) idx);
        Some (arr_norm a)
  in
  match (ctx.machine.hooks.on_assign, reported) with
  | Some hook, Some f ->
      hook ~module_:ctx.mrt.unit_.Ast.m_name ~sub:ctx.sub_name ~line
        ~var:(Ast.designator_base d) ~canonical:(Ast.designator_canonical d) f
  | _ -> ()

and exec_stmt ctx (st : Ast.stmt) =
  let m = ctx.machine in
  m.steps <- m.steps + 1;
  if m.steps > m.max_steps then err "statement budget exceeded (possible runaway loop)";
  (match m.hooks.on_stmt with
  | Some hook -> hook ctx.mrt.unit_.Ast.m_name ctx.sub_name st.Ast.line
  | None -> ());
  match st.Ast.node with
  | Ast.Assign (d, e) -> store ctx st.Ast.line d (eval_expr ctx e)
  | Ast.Call (name, args) -> exec_call ctx name args
  | Ast.Return -> raise Return_exc
  | Ast.Exit_loop -> raise Exit_exc
  | Ast.Cycle -> raise Cycle_exc
  | Ast.Stop -> err "STOP reached in %s.%s" ctx.mrt.unit_.Ast.m_name ctx.sub_name
  | Ast.Print args ->
      let parts =
        List.map
          (fun e ->
            match eval_expr ctx e with
            | Vstr s -> s
            | Vreal f -> Printf.sprintf "%g" f
            | Vint i -> string_of_int i
            | Vlog b -> if b then "T" else "F"
            | Varr _ -> "<array>"
            | Vderived _ -> "<derived>")
          args
      in
      Buffer.add_string m.print_log (String.concat " " parts);
      Buffer.add_char m.print_log '\n'
  | Ast.Unparsed raw -> err "executed unparsed statement: %s" raw
  | Ast.If (branches, els) -> (
      let rec pick = function
        | [] -> exec_body ctx els
        | (cond, body) :: rest ->
            if as_bool (eval_expr ctx cond) then exec_body ctx body else pick rest
      in
      pick branches)
  | Ast.Do { var; lo; hi; step; body } ->
      let cell =
        match lookup_cell ctx var with
        | Some c -> c
        | None ->
            let c = ref (Vint 0) in
            Hashtbl.replace ctx.locals var c;
            c
      in
      let lo = as_int (eval_expr ctx lo) and hi = as_int (eval_expr ctx hi) in
      let step = match step with None -> 1 | Some s -> as_int (eval_expr ctx s) in
      if step = 0 then err "do loop with zero step";
      (try
         let i = ref lo in
         while (step > 0 && !i <= hi) || (step < 0 && !i >= hi) do
           cell := Vint !i;
           (try exec_body ctx body with Cycle_exc -> ());
           i := !i + step
         done
       with Exit_exc -> ())
  | Ast.Do_while (cond, body) -> (
      try
        while as_bool (eval_expr ctx cond) do
          try exec_body ctx body with Cycle_exc -> ()
        done
      with Exit_exc -> ())
  | Ast.Select (selector, cases, default) ->
      let sel = eval_expr ctx selector in
      let matches v =
        match (sel, eval_expr ctx v) with
        | Vint a, Vint b -> a = b
        | Vstr a, Vstr b -> a = b
        | a, b -> as_float a = as_float b
      in
      let rec pick = function
        | [] -> exec_body ctx default
        | (vs, body) :: rest ->
            if List.exists matches vs then exec_body ctx body else pick rest
      in
      pick cases

and exec_body ctx body = List.iter (exec_stmt ctx) body

and exec_call ctx name args =
  match name with
  | "random_number" -> (
      match args with
      | [ Ast.Edesig d ] -> (
          match resolve_lvalue ctx d with
          | Lcell cell -> (
              match !cell with
              | Varr a ->
                  for i = 0 to Array.length a.data - 1 do
                    a.data.(i) <- Rca_rng.Prng.float01 ctx.machine.prng
                  done
              | _ -> cell := Vreal (Rca_rng.Prng.float01 ctx.machine.prng))
          | Lelem (a, i) -> a.data.(i) <- Rca_rng.Prng.float01 ctx.machine.prng
          | Lslice (a, idx) ->
              List.iter (fun i -> a.data.(i) <- Rca_rng.Prng.float01 ctx.machine.prng) idx)
      | _ -> err "random_number expects one variable argument")
  | "outfld" -> (
      (* history output: the interpreter plays the role of CAM's I/O layer *)
      match args with
      | [ name_e; val_e ] -> (
          match (eval_expr ctx name_e, eval_expr ctx val_e) with
          | Vstr fld, v ->
              let f = match v with Varr a -> arr_norm a | v -> as_float v in
              Hashtbl.replace ctx.machine.history fld f;
              (match ctx.machine.hooks.on_outfld with Some h -> h fld f | None -> ())
          | _ -> err "outfld expects (string, value)")
      | _ -> err "outfld expects 2 arguments")
  | _ -> (
      match Hashtbl.find_opt ctx.mrt.visible_subs name with
      | Some candidates -> (
          let arity = List.length args in
          match
            List.find_opt
              (fun (c : Visibility.callable) -> List.length c.c_sub.Ast.s_args = arity)
              candidates
          with
          | Some callee -> ignore (call_subprogram ctx.machine callee (bind_actuals ctx callee args))
          | None -> err "no matching subprogram %s/%d" name arity)
      | None -> err "unknown subroutine %s called from %s" name ctx.mrt.unit_.Ast.m_name)

(* Run one subprogram with pre-bound locals; returns the function result
   value (unit-like Vlog false for subroutines). *)
and call_subprogram machine (callee : Visibility.callable) (locals, copy_back) : value =
  let mrt =
    match Hashtbl.find_opt machine.modules callee.c_module with
    | Some m -> m
    | None -> err "module %s not elaborated" callee.c_module
  in
  let sub = callee.c_sub in
  let ctx =
    {
      machine;
      mrt;
      sub_name = sub.Ast.s_name;
      locals;
      fma = machine.fma_for callee.c_module;
    }
  in
  (match machine.hooks.on_call with
  | Some hook -> hook callee.c_module sub.Ast.s_name locals
  | None -> ());
  (* Binding a formal argument delivers a value to it: report it to the
     assignment hook so instrumentation can sample formals the same way a
     source-level sampler would. *)
  (match machine.hooks.on_assign with
  | Some hook ->
      List.iter
        (fun formal ->
          match Hashtbl.find_opt locals formal with
          | Some cell ->
              let value =
                match !cell with
                | Vreal f -> Some f
                | Vint i -> Some (float_of_int i)
                | Varr a -> Some (arr_norm a)
                | Vlog _ | Vstr _ | Vderived _ -> None
              in
              Option.iter
                (fun f ->
                  hook ~module_:callee.c_module ~sub:sub.Ast.s_name ~line:sub.Ast.s_line
                    ~var:formal ~canonical:formal f)
                value
          | None -> ())
        sub.Ast.s_args
  | None -> ());
  (* allocate locals that are not already bound (formals are) *)
  List.iter
    (fun (d : Ast.decl) ->
      if not (Hashtbl.mem locals d.Ast.d_name) then begin
        let v =
          match d.Ast.d_init with
          | Some e when d.Ast.d_dims = [] -> eval_expr ctx e
          | _ -> default_value (Some ctx) machine mrt locals d
        in
        Hashtbl.replace locals d.Ast.d_name (ref v)
      end)
    sub.Ast.s_decls;
  (* function result cell *)
  let result_name = Ast.function_result_name sub in
  if sub.Ast.s_kind = Ast.Function && not (Hashtbl.mem locals result_name) then
    Hashtbl.replace locals result_name (ref (Vreal 0.0));
  (try exec_body ctx sub.Ast.s_body with Return_exc -> ());
  (match machine.hooks.on_return with
  | Some hook -> hook callee.c_module sub.Ast.s_name locals
  | None -> ());
  copy_back ();
  if sub.Ast.s_kind = Ast.Function then
    match Hashtbl.find_opt locals result_name with
    | Some cell -> !cell
    | None ->
        (* copy_back removed it: the result name collided with an
           argument local that was copied out and dropped *)
        invalid_arg
          (Printf.sprintf "function %s: result variable %S vanished during copy-back"
             sub.Ast.s_name result_name)
  else Vlog false

(* --- elaboration ------------------------------------------------------------------------ *)

(* Topological order of modules by use-dependency (Kahn); unresolvable
   cycles keep source order for the remainder. *)
let module_order (prog : Ast.program) =
  let by_name = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace by_name m.Ast.m_name m) prog;
  let indeg = Hashtbl.create 64 in
  let dependents = Hashtbl.create 64 in
  List.iter
    (fun m ->
      let deps =
        List.filter (fun u -> Hashtbl.mem by_name u.Ast.u_module) m.Ast.m_uses
      in
      Hashtbl.replace indeg m.Ast.m_name (List.length deps);
      List.iter
        (fun u ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt dependents u.Ast.u_module) in
          Hashtbl.replace dependents u.Ast.u_module (m.Ast.m_name :: cur))
        deps)
    prog;
  let q = Queue.create () in
  List.iter
    (fun m ->
      (* every module got an indeg entry in the pass above; a missing
         one would mean [prog] changed under us *)
      match Hashtbl.find_opt indeg m.Ast.m_name with
      | Some 0 -> Queue.add m.Ast.m_name q
      | Some _ -> ()
      | None ->
          invalid_arg
            (Printf.sprintf "module_order: module %S has no in-degree entry" m.Ast.m_name))
    prog;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let name = Queue.pop q in
    order := name :: !order;
    List.iter
      (fun dep ->
        match Hashtbl.find_opt indeg dep with
        | None ->
            invalid_arg
              (Printf.sprintf "module_order: dependent module %S has no in-degree entry" dep)
        | Some n ->
            let d = n - 1 in
            Hashtbl.replace indeg dep d;
            if d = 0 then Queue.add dep q)
      (Option.value ~default:[] (Hashtbl.find_opt dependents name))
  done;
  let ordered = List.rev !order in
  let remaining =
    List.filter (fun m -> not (List.mem m.Ast.m_name ordered)) prog
    |> List.map (fun m -> m.Ast.m_name)
  in
  List.filter_map (Hashtbl.find_opt by_name) (ordered @ remaining)

let create ?(prng = Rca_rng.Kiss.create 1) ?(max_steps = 200_000_000) (prog : Ast.program) : t =
  let machine =
    {
      program = prog;
      modules = Hashtbl.create 64;
      prng;
      fma_for = (fun _ -> false);
      hooks =
        { on_stmt = None; on_assign = None; on_call = None; on_return = None; on_outfld = None };
      history = Hashtbl.create 64;
      print_log = Buffer.create 256;
      steps = 0;
      max_steps;
    }
  in
  let vis = Visibility.of_program prog in
  (* runtime shells first, so that an initializer may call into any module *)
  let shells =
    List.map
      (fun (mu : Ast.module_unit) ->
        let sc = Visibility.scope vis mu.Ast.m_name in
        let mrt =
          {
            unit_ = mu;
            vars = Hashtbl.create 16;
            own_vars = Hashtbl.create 16;
            visible_subs = sc.Visibility.subs;
            visible_types = sc.Visibility.types;
          }
        in
        Hashtbl.replace machine.modules mu.Ast.m_name mrt;
        (mu, sc, mrt))
      (module_order prog)
  in
  (* in dependency order: alias the imported cells of modules elaborated
     before, then elaborate the module's own variables and parameters in
     declaration order *)
  List.iter
    (fun ((mu : Ast.module_unit), sc, mrt) ->
      Hashtbl.iter
        (fun local (owner, name) ->
          Option.iter
            (fun src ->
              Option.iter (Hashtbl.replace mrt.vars local) (Hashtbl.find_opt src.own_vars name))
            (Hashtbl.find_opt machine.modules owner))
        sc.Visibility.vars;
      let decl_ctx = { machine; mrt; sub_name = "<module>"; locals = Hashtbl.create 1; fma = false } in
      List.iter
        (fun (d : Ast.decl) ->
          let v =
            match d.Ast.d_init with
            | Some e when d.Ast.d_dims = [] -> eval_expr decl_ctx e
            | _ -> default_value (Some decl_ctx) machine mrt decl_ctx.locals d
          in
          let cell = ref v in
          Hashtbl.replace mrt.own_vars d.Ast.d_name cell;
          (* an import of the same name hides the declaration *)
          if Visibility.var sc d.Ast.d_name = Some (mu.Ast.m_name, d.Ast.d_name) then
            Hashtbl.replace mrt.vars d.Ast.d_name cell)
        mu.Ast.m_decls)
    shells;
  machine

(* --- public entry points ------------------------------------------------------------------ *)

let find_callable machine ~module_ ~sub =
  match Hashtbl.find_opt machine.modules module_ with
  | None -> err "unknown module %s" module_
  | Some mrt -> (
      match Hashtbl.find_opt mrt.visible_subs sub with
      | Some (c :: _) -> c
      | _ -> err "unknown subprogram %s.%s" module_ sub)

(* Invoke a subroutine with interpreter-level values.  Scalar arguments
   are passed by value; to pass state use module variables. *)
let invoke machine ~module_ ~sub ~args =
  let callee = find_callable machine ~module_ ~sub in
  let formals = callee.c_sub.Ast.s_args in
  if List.length formals <> List.length args then
    err "%s.%s expects %d arguments" module_ sub (List.length formals);
  let locals = Hashtbl.create 16 in
  List.iter2 (fun f v -> Hashtbl.replace locals f (ref v)) formals args;
  call_subprogram machine callee (locals, fun () -> ())

let get_module_var machine ~module_ ~name =
  match Hashtbl.find_opt machine.modules module_ with
  | None -> err "unknown module %s" module_
  | Some mrt -> (
      match Hashtbl.find_opt mrt.vars name with
      | Some cell -> !cell
      | None -> err "unknown variable %s.%s" module_ name)

let set_module_var machine ~module_ ~name v =
  match Hashtbl.find_opt machine.modules module_ with
  | None -> err "unknown module %s" module_
  | Some mrt -> (
      match Hashtbl.find_opt mrt.vars name with
      | Some cell -> cell := v
      | None -> err "unknown variable %s.%s" module_ name)

let history machine = Hashtbl.fold (fun k v acc -> (k, v) :: acc) machine.history []

let history_value machine fld = Hashtbl.find_opt machine.history fld

let printed machine = Buffer.contents machine.print_log

(* Enable FMA everywhere except the modules in [disabled]. *)
let set_fma machine ~enabled ~disabled =
  let dis = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace dis m ()) disabled;
  machine.fma_for <- (fun m -> enabled && not (Hashtbl.mem dis m))

(* --- the model driver ------------------------------------------------------------------------ *)

(* [Rca_synth.Model.run_machine] on this engine. *)
let run_model ?(machine_hooks = fun (_ : t) -> ()) program (opts : Rca_synth.Model.run_opts) =
  Rca_rng.Prng.reseed opts.prng opts.prng_seed;
  let m = create ~prng:opts.prng program in
  (match opts.fma with
  | `Off -> set_fma m ~enabled:false ~disabled:[]
  | `On -> set_fma m ~enabled:true ~disabled:[]
  | `On_except mods -> set_fma m ~enabled:true ~disabled:mods);
  set_module_var m ~module_:"state_mod" ~name:"ic_amp" (Vreal opts.perturb_amp);
  set_module_var m ~module_:"state_mod" ~name:"ic_phase" (Vreal opts.perturb_phase);
  machine_hooks m;
  ignore (invoke m ~module_:"cam_driver" ~sub:"cam_run" ~args:[ Vint opts.nsteps ]);
  m

(* [Rca_synth.Model.run] on this engine: the output vector. *)
let run program opts =
  let m = run_model program opts in
  Array.map
    (fun name ->
      match history_value m name with
      | Some v -> v
      | None -> failwith (Printf.sprintf "Tree_interp.run: output %s never written" name))
    Rca_synth.Model.output_names
