(* Interpreter for the Fortran subset: the stand-in for "running CESM on
   the supercomputer", executing the source the metagraph is compiled
   from.  Module-level names resolve through {!Rca_fortran.Visibility},
   as in the metagraph builder.  Each subprogram is translated, on its
   first call, into closures over resolved slots: a local is an index
   into the call's frame, a module variable is its cell, a call site holds
   its callee and an intrinsic its implementation, and hook arguments are
   constants.  The translation keeps the evaluation order, the float
   operations and every run-time rule of the tree-walker it replaced
   (test/oracle/tree_interp.ml), so outputs are bitwise equal and hooks
   see the same events (DESIGN.md §16). *)

open Rca_fortran

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* --- values ---------------------------------------------------------------- *)

type arr = { dims : int array; data : float array }

type value =
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

let as_bool = function Vlog b -> b | Vint i -> i <> 0 | _ -> err "expected logical value"
let as_arr = function Varr a -> a | _ -> err "expected an array"

(* L2 norm; the scalar a whole-array assignment reports to the sampling
   hook. *)
let arr_norm a = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 a.data)

let vtrue = Vlog true
let vfalse = Vlog false

(* The number a store or a formal binding reports to the assignment hook. *)
let reported = function
  | Vreal f -> Some f
  | Vint i -> Some (float_of_int i)
  | Varr a -> Some (arr_norm a)
  | Vlog _ | Vstr _ | Vderived _ -> None

(* --- runtime structures ------------------------------------------------------ *)

type module_rt = {
  unit_ : Ast.module_unit;
  vars : (string, value ref) Hashtbl.t;  (* visible cells: own + imported *)
  own_vars : (string, value ref) Hashtbl.t;  (* cells of the module's own declarations *)
  visible_subs : (string, Visibility.callable list) Hashtbl.t;  (* incl. interface candidates *)
  visible_types : (string, Ast.derived_type_def) Hashtbl.t;
  mutable fma : bool;  (* contract a*b+c in this module's subprograms *)
}

type hooks = {
  mutable on_stmt : (string -> string -> int -> unit) option;  (* module sub line *)
  mutable on_assign :
    (module_:string -> sub:string -> line:int -> var:string -> canonical:string ->
     float -> unit)
    option;
  mutable on_call : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
  mutable on_return : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
  mutable on_outfld : (string -> float -> unit) option;
}

(* One call's variables: slot [s] holds the cell of local [names.(s)]. *)
type frame = value ref array

(* A subprogram translated for one machine.  Slots: the distinct formals,
   the declared locals, the function result, then the undeclared
   do-variables, which become locals when their loop first runs. *)
type code = {
  k_module : string;
  k_sub : Ast.subprogram;
  names : string array;
  formals : int array;  (* slot of each entry of [s_args] *)
  prologue : frame -> unit;  (* allocates the declared locals and the result *)
  body : frame -> unit;
  result : int;  (* slot of the function result; -1 for a subroutine *)
  gen : int;  (* the machine's generation it was translated in *)
}

type t = {
  modules : (string, module_rt) Hashtbl.t;
  mutable prng : Rca_rng.Prng.t;
  hooks : hooks;
  history : (string, float) Hashtbl.t;  (* outfld name -> last value *)
  print_log : Buffer.t;
  mutable steps : int;  (* statements executed, bounded by [max_steps] *)
  mutable max_steps : int;
  codes : (string * string, (Ast.subprogram * code) list) Hashtbl.t;
  mutable generation : int;  (* bumped by [set_fma]: older code is stale *)
  mutable elaborating : bool;  (* module initializers are running *)
}

exception Return_exc
exception Exit_exc
exception Cycle_exc

(* The slot of a do-variable before its loop first runs. *)
let unset : value ref = ref (Vstr "<unset>")

(* What a component cache holds before its first lookup. *)
let no_components : (string, value ref) Hashtbl.t = Hashtbl.create 1

(* --- array indexing and stores ------------------------------------------------- *)

let rank_error a n = err "rank mismatch: %d indices for rank-%d array" n (Array.length a.dims)
let bound_error a i d = err "index %d out of bounds 1..%d in dimension %d" i a.dims.(d) (d + 1)

let flat_index a idx =
  let nd = Array.length a.dims in
  if Array.length idx <> nd then rank_error a (Array.length idx);
  let flat = ref 0 and stride = ref 1 in
  for d = 0 to nd - 1 do
    let i = idx.(d) in
    if i < 1 || i > a.dims.(d) then bound_error a i d;
    flat := !flat + ((i - 1) * !stride);
    stride := !stride * a.dims.(d)
  done;
  !flat

(* Flat indices selected by an (index | full range = None) vector,
   column-major. *)
let slice_indices a spec =
  let nd = Array.length a.dims in
  if Array.length spec <> nd then err "rank mismatch in array section";
  let rec build d acc_flat stride =
    if d = nd then [ acc_flat ]
    else
      let at i = build (d + 1) (acc_flat + ((i - 1) * stride)) (stride * a.dims.(d)) in
      match spec.(d) with
      | Some i ->
          if i < 1 || i > a.dims.(d) then err "section index out of bounds";
          at i
      | None -> List.concat_map at (List.init a.dims.(d) (fun k -> k + 1))
  in
  build 0 0 1

let section a idx =
  Varr { dims = [| List.length idx |]; data = Array.of_list (List.map (fun i -> a.data.(i)) idx) }

(* The checked flat index of an element access, computed without
   allocating for ranks 1 and 2. *)
let index_fn (ixs : (frame -> int) array) : frame -> arr -> int =
  match ixs with
  | [| i0 |] ->
      fun fr a ->
        let i = i0 fr in
        if Array.length a.dims <> 1 then rank_error a 1;
        if i < 1 || i > a.dims.(0) then bound_error a i 0;
        i - 1
  | [| i0; i1 |] ->
      fun fr a ->
        let i = i0 fr in
        let j = i1 fr in
        if Array.length a.dims <> 2 then rank_error a 2;
        if i < 1 || i > a.dims.(0) then bound_error a i 0;
        if j < 1 || j > a.dims.(1) then bound_error a j 1;
        i - 1 + ((j - 1) * a.dims.(0))
  | _ -> fun fr a -> flat_index a (Array.map (fun f -> f fr) ixs)

(* Assignment to a whole variable: the cell's current value decides the
   coercion (int <-> real, scalar broadcast into an array). *)
let store_cell cell v =
  match (!cell, v) with
  | Vint _, Vreal f -> cell := Vint (int_of_float f)
  | Vreal _, Vint i -> cell := Vreal (float_of_int i)
  | Varr a, (Vreal _ | Vint _) -> Array.fill a.data 0 (Array.length a.data) (as_float v)
  | Varr a, Varr b ->
      if Array.length a.data <> Array.length b.data then err "array assignment length mismatch";
      Array.blit b.data 0 a.data 0 (Array.length a.data)
  | _ -> cell := v

let store_section a idx = function
  | Varr b ->
      if List.length idx <> Array.length b.data then err "section assignment length mismatch";
      List.iteri (fun k i -> a.data.(i) <- b.data.(k)) idx
  | v ->
      let f = as_float v in
      List.iter (fun i -> a.data.(i) <- f) idx

(* --- translation --------------------------------------------------------------------- *)

(* A translated expression, by what it always yields: [R] a [Vreal], [B] a
   [Vlog], [V] any value.  [R] and [B] skip the boxing and the dispatch
   whenever the consumer only needs the number or the truth value. *)
type cx = R of (frame -> float) | B of (frame -> bool) | V of (frame -> value)

let value_of = function
  | R f -> fun fr -> Vreal (f fr) | B f -> fun fr -> if f fr then vtrue else vfalse | V f -> f

let float_of = function
  | R f -> f | B f -> fun fr -> if f fr then 1.0 else 0.0 | V f -> fun fr -> as_float (f fr)

let bool_of = function
  | B f -> f | R f -> fun fr -> as_bool (Vreal (f fr)) | V f -> fun fr -> as_bool (f fr)

let int_of = function
  | V f -> fun fr -> as_int (f fr) | R f -> fun fr -> int_of_float (f fr) | B f -> fun fr -> as_int (Vlog (f fr))

let is_v = function V _ -> true | R _ | B _ -> false

(* A translated designator as a location. *)
type lv =
  | Lcell of (frame -> value ref)
  | Lelem of (frame -> arr) * (frame -> arr -> int)  (* the array, then its checked index *)
  | Lslice of (frame -> arr) * (frame -> arr -> int list)

(* What translated code needs when it runs, besides its frame; the
   translation tables below die with the translation. *)
type ctx = { m : t; mname : string; sname : string }

type env = {
  ctx : ctx;
  mrt : module_rt;
  slots : (string, int) Hashtbl.t;  (* formals and declared locals, visible below [visible] *)
  visible : int;
  dyn : (string, int) Hashtbl.t;  (* undeclared do-variables *)
  contract : bool;  (* module initializers never contract *)
  memo : (int * Ast.expr, cx) Hashtbl.t;  (* by (visible, tree): equal trees share code *)
  floats : (int * Ast.expr, frame -> float) Hashtbl.t;
  ints : (int * Ast.expr, frame -> int) Hashtbl.t;
  places : (int * Ast.designator, lv) Hashtbl.t;
}

let new_env ctx mrt contract =
  { ctx; mrt; slots = Hashtbl.create 16; visible = 0; dyn = Hashtbl.create 4; contract; memo = Hashtbl.create 64;
    floats = Hashtbl.create 64; ints = Hashtbl.create 16; places = Hashtbl.create 32 }

let memo tbl env key make =
  match Hashtbl.find_opt tbl (env.visible, key) with
  | Some c -> c
  | None -> let c = make () in Hashtbl.replace tbl (env.visible, key) c; c

type place = Local of int | Global of value ref | Dyn of int | Unknown

(* A name resolves as it would when the code runs: locals first, then the
   module's visible variables.  A module's table is final once [create]
   returns, and code translated before that is not kept. *)
let place env n =
  match Hashtbl.find_opt env.slots n with
  | Some s when s < env.visible -> Local s
  | _ -> (
      match Hashtbl.find_opt env.mrt.vars n with
      | Some c -> Global c
      | None -> ( match Hashtbl.find_opt env.dyn n with Some s -> Dyn s | None -> Unknown))

let unknown ctx n = err "unknown variable %s in %s.%s" n ctx.mname ctx.sname

(* Every statement starts here: count it against the budget, then report
   it to the statement hook. *)
let tick ctx line =
  let m = ctx.m in
  m.steps <- m.steps + 1;
  if m.steps > m.max_steps then err "statement budget exceeded (possible runaway loop)";
  match m.hooks.on_stmt with Some hook -> hook ctx.mname ctx.sname line | None -> ()

let report ctx line var canonical f =
  match ctx.m.hooks.on_assign with
  | Some hook -> hook ~module_:ctx.mname ~sub:ctx.sname ~line ~var ~canonical f
  | None -> ()

(* After a store into a whole variable: the hook sees the cell's number. *)
let stored ctx line var canonical cell =
  if ctx.m.hooks.on_assign != None then Option.iter (report ctx line var canonical) (reported !cell)

(* (formal, slot) for each distinct formal of [sub]. *)
let formal_slots (sub : Ast.subprogram) =
  List.fold_left
    (fun acc f -> if List.mem_assoc f acc then acc else (f, List.length acc) :: acc)
    [] sub.Ast.s_args

(* The locals table the call hooks see: every allocated slot. *)
let locals_table code (frame : frame) =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun s c -> if c != unset then Hashtbl.replace tbl code.names.(s) c) frame;
  tbl

(* Run a translated subprogram on a frame whose formals are bound;
   returns the function result ([Vlog false] for subroutines). *)
let enter m code (frame : frame) =
  let h = m.hooks and sub = code.k_sub in
  let name = sub.Ast.s_name in
  (match h.on_call with Some f -> f code.k_module name (locals_table code frame) | None -> ());
  (* Binding a formal argument delivers a value to it: report it to the
     assignment hook so instrumentation can sample formals the same way a
     source-level sampler would. *)
  (match h.on_assign with
  | Some hook ->
      let line = sub.Ast.s_line in
      List.iteri (fun k var ->
          Option.iter (hook ~module_:code.k_module ~sub:name ~line ~var ~canonical:var)
            (reported !(frame.(code.formals.(k))))) sub.Ast.s_args
  | None -> ());
  code.prologue frame;
  (try code.body frame with Return_exc -> ());
  (match h.on_return with Some f -> f code.k_module name (locals_table code frame) | None -> ());
  if code.result >= 0 then !(frame.(code.result)) else vfalse

let rec code_of m (c : Visibility.callable) =
  let key = (c.c_module, c.c_sub.Ast.s_name) in
  let known = Option.value ~default:[] (Hashtbl.find_opt m.codes key) in
  match List.assq_opt c.c_sub known with
  | Some code -> code
  | None ->
      let code = Rca_obs.Obs.span "interp.translate" (fun () -> translate m c) in
      if not m.elaborating then Hashtbl.replace m.codes key ((c.c_sub, code) :: known);
      code

and translate m (callee : Visibility.callable) =
  let mrt = try Hashtbl.find m.modules callee.c_module with Not_found -> err "module %s not elaborated" callee.c_module in
  let sub = callee.c_sub in
  let env = new_env { m; mname = callee.c_module; sname = sub.Ast.s_name } mrt true in
  let slots = env.slots in
  List.iter (fun (f, s) -> Hashtbl.replace slots f s) (formal_slots sub);
  let fresh name = Hashtbl.replace slots name (Hashtbl.length slots); Hashtbl.length slots - 1 in
  (* a declaration's initializer sees the formals and the locals
     declared before it *)
  let allocs =
    List.filter_map
      (fun (d : Ast.decl) ->
        if Hashtbl.mem slots d.Ast.d_name then None
        else
          let init = default_of { env with visible = Hashtbl.length slots } d in
          Some (fresh d.Ast.d_name, init))
      sub.Ast.s_decls
  in
  let result_name = Ast.function_result_name sub in
  let result, allocs =
    match (sub.Ast.s_kind, Hashtbl.find_opt slots result_name) with
    | Ast.Subroutine, _ -> (-1, allocs)
    | Ast.Function, Some s -> (s, allocs)
    | Ast.Function, None ->
        let s = fresh result_name in
        (s, allocs @ [ (s, fun _ -> Vreal 0.0) ])
  in
  let env = { env with visible = Hashtbl.length slots } in
  Ast.iter_stmts (fun st ->
      match st.Ast.node with
      | Ast.Do { var; _ } when place env var == Unknown ->
          Hashtbl.replace env.dyn var (Hashtbl.length slots + Hashtbl.length env.dyn)
      | _ -> ()) sub.Ast.s_body;
  let names = Array.make (Hashtbl.length slots + Hashtbl.length env.dyn) "" in
  Hashtbl.iter (fun n s -> names.(s) <- n) slots;
  Hashtbl.iter (fun n s -> names.(s) <- n) env.dyn;
  let targets = Array.of_list (List.map fst allocs) and inits = Array.of_list (List.map snd allocs) in
  {
    k_module = callee.c_module;
    k_sub = sub;
    names;
    formals = Array.of_list (List.map (Hashtbl.find slots) sub.Ast.s_args);
    prologue = (fun fr -> Array.iteri (fun k s -> fr.(s) <- ref (inits.(k) fr)) targets);
    body = block env sub.Ast.s_body;
    result;
    gen = m.generation;
  }

(* --- expressions --------------------------------------------------------------------- *)

and expr env e = memo env.memo env e (fun () -> expr_node env e)
and fexpr env e = memo env.floats env e (fun () -> float_of (expr env e))
and iexpr env e = memo env.ints env e (fun () -> int_of (expr env e))

and expr_node env (e : Ast.expr) : cx =
  match e with
  | Ast.Enum f -> R (fun _ -> f)
  | Ast.Eint i -> const (Vint i)
  | Ast.Elogical b -> B (fun _ -> b)
  | Ast.Estring s -> const (Vstr s)
  | Ast.Erange _ -> V (fun _ -> err "array section used as a value")
  | Ast.Eun (Ast.Neg, e) -> (
      match expr env e with
      | R f -> R (fun fr -> -.f fr)
      | c -> let f = value_of c in V (fun fr -> match f fr with Vint i -> Vint (-i) | v -> Vreal (-.as_float v)))
  | Ast.Eun (Ast.Not, e) -> let f = bool_of (expr env e) in B (fun fr -> not (f fr))
  | Ast.Ebin (op, a, b) -> binop env op a b
  | Ast.Edesig d -> desig env d

and const v = V (fun _ -> v)

and binop env op a b =
  let open Ast in
  match op with
  | And | Or ->
      let fa = bool_of (expr env a) and fb = bool_of (expr env b) in
      if op = And then B (fun fr -> fa fr && fb fr) else B (fun fr -> fa fr || fb fr)
  | Concat ->
      let fa = value_of (expr env a) and fb = value_of (expr env b) in
      V (fun fr ->
          let va = fa fr in
          match (va, fb fr) with Vstr x, Vstr y -> Vstr (x ^ y) | _ -> err "// requires strings")
  | Eq | Ne | Lt | Le | Gt | Ge -> (
      let holds c =
        match op with Eq -> c = 0 | Ne -> c <> 0 | Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | _ -> c >= 0
      in
      let fcmp : float -> float -> bool =
        match op with Eq -> ( = ) | Ne -> ( <> ) | Lt -> ( < ) | Le -> ( <= ) | Gt -> ( > ) | _ -> ( >= )
      in
      match (expr env a, expr env b) with
      | V fa, V fb ->
          B (fun fr ->
              let va = fa fr in
              match (va, fb fr) with
              | Vstr x, Vstr y -> holds (compare x y)
              | va, vb -> fcmp (as_float va) (as_float vb))
      | _ ->
          let fa = fexpr env a and fb = fexpr env b in
          B (fun fr -> let x = fa fr in fcmp x (fb fr)))
  | Add | Sub -> (
      (* a*b+c patterns contract to a fused multiply-add when the module
         has FMA enabled; code is translated under the flags of its call's
         entry, as the tree-walker read them *)
      match (op, a, b) with
      | _ when not (env.contract && env.mrt.fma) -> arith env op a b
      | Add, Ebin (Mul, x, y), c | Add, c, Ebin (Mul, x, y) -> fused env x y c 1.0 false
      | Sub, Ebin (Mul, x, y), c -> fused env x y c 1.0 true
      | Sub, c, Ebin (Mul, x, y) -> fused env x y c (-1.0) false
      | _ -> arith env op a b)
  | Mul | Div | Pow -> arith env op a b

(* x and y run before c: [sign]*x*y + c, or x*y - c when [negc]. *)
and fused env x y c sign_xy negc =
  match (expr env x, expr env y, expr env c) with
  | V fx, V fy, V fc ->
      V (fun fr ->
          let vx = fx fr in
          let vy = fy fr in
          match (vx, vy, fc fr) with
          | Vint a, Vint b, Vint cc ->
              Vint (if negc then (a * b) - cc else (int_of_float sign_xy * a * b) + cc)
          | _, _, vc when negc -> Vreal (Float.fma (as_float vx) (as_float vy) (-.as_float vc))
          | _, _, vc -> Vreal (Float.fma (sign_xy *. as_float vx) (as_float vy) (as_float vc)))
  | _ ->
      let fx = fexpr env x and fy = fexpr env y and fc = fexpr env c in
      if negc then R (fun fr -> let x = fx fr in let y = fy fr in Float.fma x y (-.fc fr))
      else R (fun fr -> let x = fx fr in let y = fy fr in Float.fma (sign_xy *. x) y (fc fr))

(* Two numeric operands: integers stay integers, anything else is real. *)
and arith env op a b =
  let open Ast in
  match (expr env a, expr env b) with
  | V fa, V fb ->
      V (fun fr ->
          let va = fa fr in
          match (op, va, fb fr) with
          | (Add | Sub | Mul), Vint x, Vint y -> Vint (if op = Add then x + y else if op = Sub then x - y else x * y)
          | Div, Vint x, Vint y ->
              if y = 0 then err "integer division by zero";
              (* Fortran integer division truncates toward zero *)
              Vint (if x < 0 <> (y < 0) then -(abs x / abs y) else abs x / abs y)
          | Pow, Vint x, Vint y when y >= 0 ->
              let rec ipow acc b e = if e = 0 then acc else ipow (acc * b) b (e - 1) in
              Vint (ipow 1 x y)
          | Add, va, vb -> Vreal (as_float va +. as_float vb)
          | Sub, va, vb -> Vreal (as_float va -. as_float vb)
          | Mul, va, vb -> Vreal (as_float va *. as_float vb)
          | Div, va, vb -> Vreal (as_float va /. as_float vb)
          | _, va, vb -> Vreal (Float.pow (as_float va) (as_float vb)))
  | _ -> (
      (* an operand that is never an integer makes the result real *)
      let fa = fexpr env a and fb = fexpr env b in
      match op with
      | Add -> R (fun fr -> let x = fa fr in x +. fb fr)
      | Sub -> R (fun fr -> let x = fa fr in x -. fb fr)
      | Mul -> R (fun fr -> let x = fa fr in x *. fb fr)
      | Div -> R (fun fr -> let x = fa fr in x /. fb fr)
      | _ -> R (fun fr -> let x = fa fr in Float.pow x (fb fr)))

and desig env (d : Ast.designator) : cx =
  match d with
  | Ast.Dindex (Ast.Dname n, args) -> (
      (* array reference or function call — the Fortran ambiguity *)
      match place env n with
      | Local _ | Global _ -> read env d
      | Unknown -> call_fn env n args
      | Dyn s ->
          let el = value_of (read env d) and fn = value_of (call_fn env n args) in
          V (fun fr -> if fr.(s) != unset then el fr else fn fr))
  | _ -> read env d

and read env d : cx =
  match (match d with Ast.Dname n -> place env n | _ -> Unknown) with
  | Local s -> V (fun fr -> !(fr.(s)))
  | Global c -> V (fun _ -> !c)
  | Dyn _ | Unknown -> (
      match lvalue env d with
      | Lcell c -> V (fun fr -> !(c fr))
      | Lelem (get, ix) -> R (fun fr -> let a = get fr in a.data.(ix fr a))
      | Lslice (get, sl) -> V (fun fr -> let a = get fr in section a (sl fr a)))

(* Resolve a designator to an assignable location. *)
and lvalue env d = memo env.places env d (fun () -> location env d)

and location env (d : Ast.designator) : lv =
  match d with
  | Ast.Dname n -> (
      match place env n with
      | Local s -> Lcell (fun fr -> fr.(s))
      | Global c -> Lcell (fun _ -> c)
      | Dyn s ->
          let ctx = env.ctx in
          Lcell (fun fr -> if fr.(s) == unset then unknown ctx n else fr.(s))
      | Unknown -> let ctx = env.ctx in Lcell (fun _ -> unknown ctx n))
  | Ast.Dmember (base, field) ->
      let base =
        match lvalue env base with
        | Lcell c -> c
        | Lelem _ | Lslice _ -> fun _ -> err "indexing into derived-type arrays is not supported"
      in
      (* a component table never changes once its value is built, so the
         site keeps the last one it looked into *)
      let last_tbl = ref no_components and last = ref unset in
      Lcell (fun fr ->
          match !(base fr) with
          | Vderived tbl when tbl == !last_tbl -> !last
          | Vderived tbl -> (
              match Hashtbl.find_opt tbl field with
              | Some c ->
                  last_tbl := tbl;
                  last := c;
                  c
              | None -> err "derived type has no component %s" field)
          | _ -> err "%%%s applied to a non-derived value" field)
  | Ast.Dindex (base, args) ->
      let cell =
        match lvalue env base with Lcell c -> c | _ -> fun _ -> err "cannot index a section"
      in
      let what = Ast.designator_base base in
      let get fr = match !(cell fr) with Varr a -> a | _ -> err "%s is not an array" what in
      (* None: a full range *)
      let spec =
        List.map
          (function
            | Ast.Erange (None, None) -> None
            | Ast.Erange _ -> Some (fun _ -> err "bounded array sections are not supported at runtime")
            | e -> Some (iexpr env e))
          args
      in
      if List.for_all Option.is_some spec then
        Lelem (get, index_fn (Array.of_list (List.map Option.get spec)))
      else
        let spec = Array.of_list spec in
        Lslice (get, fun fr a -> slice_indices a (Array.map (Option.map (fun f -> f fr)) spec))

and call_fn env name args : cx =
  if Visibility.is_intrinsic name then intrinsic env name args
  else
    match Hashtbl.find_opt env.mrt.visible_subs name with
    | Some candidates -> (
        let arity = List.length args in
        let fits (c : Visibility.callable) =
          List.length c.c_sub.Ast.s_args = arity && c.c_sub.Ast.s_kind = Ast.Function
        in
        match List.find_opt fits candidates with
        | Some c -> V (call_to env c args)
        | None -> V (fun _ -> err "no matching function %s/%d" name arity))
    | None -> let mname = env.ctx.mname in V (fun _ -> err "unknown function or array %s in %s" name mname)

and intrinsic env name args : cx =
  let one () = match args with [ a ] -> expr env a | _ -> V (fun _ -> err "%s expects 1 argument" name) in
  let two k =
    match args with [ a; b ] -> k (expr env a) (expr env b) | _ -> V (fun _ -> err "%s expects 2 arguments" name)
  in
  let fl f = let a = float_of (one ()) in R (fun fr -> f (a fr)) in
  let to_int f = let a = float_of (one ()) in V (fun fr -> Vint (int_of_float (f (a fr)))) in
  let constant x = let a = value_of (one ()) in R (fun fr -> ignore (a fr); x) in
  let whole f = let a = value_of (one ()) in fun fr -> f (as_arr (a fr)).data in
  match name with
  | "abs" -> (
      match one () with
      | R a -> R (fun fr -> abs_float (a fr))
      | c -> let a = value_of c in V (fun fr -> match a fr with Vint i -> Vint (abs i) | v -> Vreal (abs_float (as_float v))))
  | "sqrt" | "exp" | "log" | "log10" | "sin" | "cos" | "tan" | "tanh" ->
      fl (List.assoc name [ ("sqrt", sqrt); ("exp", exp); ("log", log); ("log10", log10);
                            ("sin", sin); ("cos", cos); ("tan", tan); ("tanh", tanh) ])
  | "real" | "dble" -> R (float_of (one ()))
  | "int" -> to_int Fun.id
  | "nint" -> to_int Float.round
  | "floor" -> to_int Float.floor
  | "epsilon" -> constant epsilon_float
  | "tiny" -> constant 2.2250738585072014e-308
  | "huge" -> constant 1.7976931348623157e308
  | "min" | "max" -> (
      let is_min = name = "min" in
      match List.map (expr env) args with
      | [] -> V (fun _ -> err "%s needs arguments" name)
      | [ a; b ] when not (is_v a && is_v b) ->
          let fa = float_of a and fb = float_of b in
          R (fun fr -> let x = fa fr in let y = fb fr in if is_min then Float.min x y else Float.max x y)
      | c0 :: cs ->
          let f0 = value_of c0 and fs = List.map value_of cs in
          V (fun fr ->
              let v0 = f0 fr in
              let rest = List.map (fun f -> f fr) fs in
              if List.for_all (function Vint _ -> true | _ -> false) (v0 :: rest) then
                let f = if is_min then min else max in
                Vint (List.fold_left (fun acc v -> f acc (as_int v)) (as_int v0) rest)
              else
                let f = if is_min then Float.min else Float.max in
                Vreal (List.fold_left (fun acc v -> f acc (as_float v)) (as_float v0) rest)))
  | "mod" ->
      two (fun a b ->
          match (a, b) with
          | V fa, V fb ->
              V (fun fr ->
                  let va = fa fr in
                  match (va, fb fr) with
                  | Vint a, Vint b ->
                      if b = 0 then err "mod by zero";
                      Vint (a - (b * (a / b)))
                  | a, b -> Vreal (Float.rem (as_float a) (as_float b)))
          | a, b ->
              let fa = float_of a and fb = float_of b in
              R (fun fr -> let x = fa fr in Float.rem x (fb fr)))
  | "sign" ->
      two (fun a b ->
          let fa = float_of a and fb = float_of b in
          R (fun fr -> let x = fa fr in if fb fr >= 0.0 then abs_float x else -.abs_float x))
  | "sum" -> R (whole (Array.fold_left ( +. ) 0.0))
  | "maxval" -> R (whole (Array.fold_left Float.max neg_infinity))
  | "minval" -> R (whole (Array.fold_left Float.min infinity))
  | "size" -> let n = whole Array.length in V (fun fr -> Vint (n fr))
  | "merge" -> (
      match args with
      | [ t; f; mask ] -> (
          let mask = bool_of (expr env mask) in
          match (expr env t, expr env f) with
          | R a, R b -> R (fun fr -> if mask fr then a fr else b fr)
          | a, b ->
              let a = value_of a and b = value_of b in
              V (fun fr -> if mask fr then a fr else b fr))
      | _ -> V (fun _ -> err "merge expects 3 arguments"))
  | _ -> V (fun _ -> err "unimplemented intrinsic %s" name)

(* A call binds the actuals into a fresh frame of the callee, whose code
   the site looks up when it first runs.  Plain-variable actuals alias the
   caller's cell (Fortran by-reference); element/section actuals get
   copy-in/copy-out temporaries, copied back last-bound first; expression
   actuals are passed by value. *)
and call_to env (callee : Visibility.callable) args : frame -> value =
  let m = env.ctx.m and slots = formal_slots callee.c_sub in
  let binds =
    Array.of_list
      (List.map2 (fun f a -> (List.assoc f slots, actual env a)) callee.c_sub.Ast.s_args args)
  in
  let site = ref None in
  fun fr ->
    let code =
      match !site with
      | Some c when c.gen = m.generation -> c
      | _ -> let c = code_of m callee in if not m.elaborating then site := Some c; c
    in
    let frame = Array.make (Array.length code.names) unset and backs = ref [] in
    for k = 0 to Array.length binds - 1 do
      let s, bind = binds.(k) in
      frame.(s) <- bind fr backs
    done;
    let r = enter m code frame in
    List.iter (fun f -> f ()) !backs;
    r

and actual env (e : Ast.expr) : frame -> (unit -> unit) list ref -> value ref =
  let by_value () = let f = value_of (expr env e) in fun fr _ -> ref (f fr) in
  let by_ref d =
    match lvalue env d with
    | Lcell c -> fun fr _ -> c fr
    | Lelem (get, ix) ->
        fun fr backs ->
          let a = get fr in
          let i = ix fr a in
          let tmp = ref (Vreal a.data.(i)) in
          backs := (fun () -> a.data.(i) <- as_float !tmp) :: !backs;
          tmp
    | Lslice (get, sl) ->
        fun fr backs ->
          let a = get fr in
          let idx = sl fr a in
          let tmp = ref (section a idx) in
          let back () =
            match !tmp with
            | Varr a' -> List.iteri (fun k i -> a.data.(i) <- a'.data.(k)) idx
            | v -> List.iter (fun i -> a.data.(i) <- as_float v) idx
          in
          backs := back :: !backs;
          tmp
  in
  match e with
  | Ast.Edesig d -> (
      (* an lvalue only when its base names a variable; otherwise a
         function call, passed by value *)
      match place env (Ast.designator_base d) with
      | Local _ | Global _ -> by_ref d
      | Unknown -> by_value ()
      | Dyn s ->
          let r = by_ref d and v = by_value () in
          fun fr backs -> if fr.(s) != unset then r fr backs else v fr backs)
  | _ -> by_value ()

(* --- declarations ------------------------------------------------------------------ *)

and default_of env (d : Ast.decl) : frame -> value =
  match d.Ast.d_init with
  | Some e when d.Ast.d_dims = [] -> value_of (expr env e)
  | _ -> default_value env d

and default_value env (d : Ast.decl) : frame -> value =
  match (d.Ast.d_dims, d.Ast.d_type) with
  | [], Ast.Treal -> fun _ -> Vreal 0.0
  | [], Ast.Tinteger -> fun _ -> Vint 0
  | [], Ast.Tlogical -> fun _ -> vfalse
  | [], Ast.Tcharacter -> fun _ -> Vstr ""
  | [], Ast.Ttype tname -> (
      match Hashtbl.find_opt env.mrt.visible_types tname with
      | None -> fun _ -> err "unknown derived type %s" tname
      | Some td ->
          (* the fields are translated as a value is built, so a recursive
             type fails as it runs, not as it is translated *)
          fun fr ->
            let tbl = Hashtbl.create 8 in
            List.iter
              (fun f -> Hashtbl.replace tbl f.Ast.d_name (ref (default_value env f fr)))
              td.Ast.t_fields;
            Vderived tbl)
  | dims, _ ->
      let dims = List.map (fun e -> int_of (expr env e)) dims in
      fun fr ->
        let extents = List.map (fun f -> f fr) dims in
        let total = List.fold_left ( * ) 1 extents in
        if total < 0 || total > 50_000_000 then err "unreasonable array size %d" total;
        Varr { dims = Array.of_list extents; data = Array.make total 0.0 }

(* --- statements -------------------------------------------------------------------- *)

and block env body : frame -> unit =
  match Array.of_list (List.map (stmt env) body) with
  | [||] -> fun _ -> ()
  | [| s |] -> s
  | ss ->
      fun fr ->
        for i = 0 to Array.length ss - 1 do
          ss.(i) fr
        done

and stmt env (st : Ast.stmt) : frame -> unit =
  let run = action env st and line = st.Ast.line and ctx = env.ctx in
  match st.Ast.node with
  | Ast.Assign _ -> run (* counts itself: one closure less per assignment *)
  | _ ->
      fun fr ->
        tick ctx line;
        run fr

and action env (st : Ast.stmt) : frame -> unit =
  let ctx = env.ctx in
  let m = ctx.m in
  match st.Ast.node with
  | Ast.Assign (d, e) -> assign env st.Ast.line d e
  | Ast.Call (name, args) -> call_stmt env name args
  | Ast.Return -> fun _ -> raise Return_exc
  | Ast.Exit_loop -> fun _ -> raise Exit_exc
  | Ast.Cycle -> fun _ -> raise Cycle_exc
  | Ast.Stop -> fun _ -> err "STOP reached in %s.%s" ctx.mname ctx.sname
  | Ast.Unparsed raw -> fun _ -> err "executed unparsed statement: %s" raw
  | Ast.Print args ->
      let fs = List.map (fun e -> value_of (expr env e)) args in
      let show = function
        | Vstr s -> s | Vreal f -> Printf.sprintf "%g" f | Vint i -> string_of_int i
        | Vlog b -> if b then "T" else "F" | Varr _ -> "<array>" | Vderived _ -> "<derived>"
      in
      fun fr ->
        Buffer.add_string m.print_log (String.concat " " (List.map (fun f -> show (f fr)) fs));
        Buffer.add_char m.print_log '\n'
  | Ast.If (branches, els) ->
      let branches = List.map (fun (c, b) -> (bool_of (expr env c), block env b)) branches in
      let els = block env els in
      let rec pick fr = function [] -> els fr | (c, b) :: rest -> if c fr then b fr else pick fr rest in
      fun fr -> pick fr branches
  | Ast.Do { var; lo; hi; step; body } ->
      let cell =
        match place env var with
        | Local s -> fun fr -> fr.(s)
        | Global c -> fun _ -> c
        | Dyn s ->
            fun fr ->
              if fr.(s) == unset then fr.(s) <- ref (Vint 0);
              fr.(s)
        | Unknown -> fun _ -> unknown ctx var
      in
      let lo = iexpr env lo and hi = iexpr env hi in
      let step = match step with None -> fun _ -> 1 | Some s -> iexpr env s in
      let body = block env body in
      fun fr ->
        let cell = cell fr in
        let lo = lo fr in let hi = hi fr in let step = step fr in
        if step = 0 then err "do loop with zero step";
        (try
           let i = ref lo in
           while (step > 0 && !i <= hi) || (step < 0 && !i >= hi) do
             cell := Vint !i;
             (try body fr with Cycle_exc -> ());
             i := !i + step
           done
         with Exit_exc -> ())
  | Ast.Do_while (cond, body) ->
      let cond = bool_of (expr env cond) and body = block env body in
      fun fr -> ( try while cond fr do try body fr with Cycle_exc -> () done with Exit_exc -> ())
  | Ast.Select (selector, cases, default) ->
      let sel = value_of (expr env selector) and default = block env default in
      let cases =
        List.map (fun (vs, b) -> (List.map (fun v -> value_of (expr env v)) vs, block env b)) cases
      in
      fun fr ->
        let sel = sel fr in
        let matches f =
          match (sel, f fr) with Vint a, Vint b -> a = b | Vstr a, Vstr b -> a = b | a, b -> as_float a = as_float b
        in
        let rec pick = function [] -> default fr | (vs, body) :: rest -> if List.exists matches vs then body fr else pick rest in
        pick cases

(* The value is computed before the location is resolved; the hook sees
   the stored number (an array's L2 norm). *)
and assign env line d e : frame -> unit =
  let var = Ast.designator_base d and canonical = Ast.designator_canonical d and ctx = env.ctx in
  let rhs = expr env e in
  match (lvalue env d, rhs) with
  | Lcell c, R rhs ->
      fun fr ->
        tick ctx line;
        let x = rhs fr in
        let cell = c fr in
        store_cell cell (Vreal x);
        stored ctx line var canonical cell
  | Lcell c, _ ->
      let rhs = value_of rhs in
      fun fr ->
        tick ctx line;
        let v = rhs fr in
        let cell = c fr in
        store_cell cell v;
        stored ctx line var canonical cell
  | Lelem (get, ix), _ ->
      let rhs = float_of rhs in
      fun fr ->
        tick ctx line;
        let f = rhs fr in
        let a = get fr in
        a.data.(ix fr a) <- f;
        report ctx line var canonical f
  | Lslice (get, sl), _ ->
      let rhs = value_of rhs in
      fun fr ->
        tick ctx line;
        let v = rhs fr in
        let a = get fr in
        store_section a (sl fr a) v;
        if ctx.m.hooks.on_assign != None then report ctx line var canonical (arr_norm a)

and call_stmt env name args : frame -> unit =
  let m = env.ctx.m and mname = env.ctx.mname in
  match (name, args) with
  | "random_number", [ Ast.Edesig d ] -> (
      let draw () = Rca_rng.Prng.float01 m.prng in
      match lvalue env d with
      | Lcell c -> (
          fun fr ->
            let cell = c fr in
            match !cell with
            | Varr a -> Array.iteri (fun i _ -> a.data.(i) <- draw ()) a.data
            | _ -> cell := Vreal (draw ()))
      | Lelem (get, ix) -> fun fr -> let a = get fr in let i = ix fr a in a.data.(i) <- draw ()
      | Lslice (get, sl) -> fun fr -> let a = get fr in List.iter (fun i -> a.data.(i) <- draw ()) (sl fr a))
  | "random_number", _ -> fun _ -> err "random_number expects one variable argument"
  | "outfld", [ name_e; val_e ] -> (
      (* history output: the interpreter plays the role of CAM's I/O layer *)
      let fname = value_of (expr env name_e) and fv = value_of (expr env val_e) in
      fun fr ->
        let name = fname fr in
        match (name, fv fr) with
        | Vstr fld, v ->
            let f = match v with Varr a -> arr_norm a | v -> as_float v in
            Hashtbl.replace m.history fld f;
            Option.iter (fun h -> h fld f) m.hooks.on_outfld
        | _ -> err "outfld expects (string, value)")
  | "outfld", _ -> fun _ -> err "outfld expects 2 arguments"
  | _ -> (
      match Hashtbl.find_opt env.mrt.visible_subs name with
      | Some candidates -> (
          let arity = List.length args in
          let fits (c : Visibility.callable) = List.length c.c_sub.Ast.s_args = arity in
          match List.find_opt fits candidates with
          | Some callee ->
              let call = call_to env callee args in
              fun fr -> ignore (call fr)
          | None -> fun _ -> err "no matching subprogram %s/%d" name arity)
      | None -> fun _ -> err "unknown subroutine %s called from %s" name mname)

(* --- elaboration ------------------------------------------------------------------------ *)

(* Topological order of modules by use-dependency (Kahn); unresolvable
   cycles keep source order for the remainder. *)
let module_order (prog : Ast.program) =
  let by_name = Hashtbl.create 64 and indeg = Hashtbl.create 64 and dependents = Hashtbl.create 64 in
  let users name = Option.value ~default:[] (Hashtbl.find_opt dependents name) in
  List.iter (fun m -> Hashtbl.replace by_name m.Ast.m_name m) prog;
  List.iter
    (fun m ->
      let deps = List.filter (fun u -> Hashtbl.mem by_name u.Ast.u_module) m.Ast.m_uses in
      Hashtbl.replace indeg m.Ast.m_name (List.length deps);
      List.iter (fun u -> Hashtbl.replace dependents u.Ast.u_module (m.Ast.m_name :: users u.Ast.u_module)) deps)
    prog;
  let q = Queue.create () and order = ref [] in
  List.iter (fun m -> if Hashtbl.find indeg m.Ast.m_name = 0 then Queue.add m.Ast.m_name q) prog;
  while not (Queue.is_empty q) do
    let name = Queue.pop q in
    order := name :: !order;
    List.iter
      (fun dep ->
        let d = Hashtbl.find indeg dep - 1 in
        Hashtbl.replace indeg dep d;
        if d = 0 then Queue.add dep q)
      (users name)
  done;
  let ordered = List.rev !order in
  let remaining = List.filter (fun m -> not (List.mem m.Ast.m_name ordered)) prog in
  List.filter_map (Hashtbl.find_opt by_name) (ordered @ List.map (fun m -> m.Ast.m_name) remaining)

let create ?(prng = Rca_rng.Kiss.create 1) ?(max_steps = 200_000_000) (prog : Ast.program) : t =
  let machine =
    {
      modules = Hashtbl.create 64;
      prng;
      hooks = { on_stmt = None; on_assign = None; on_call = None; on_return = None; on_outfld = None };
      history = Hashtbl.create 64;
      print_log = Buffer.create 256;
      steps = 0;
      max_steps;
      codes = Hashtbl.create 64;
      generation = 0;
      elaborating = true;
    }
  in
  let vis = Visibility.of_program prog in
  (* runtime shells first, so that an initializer may call into any module *)
  let shells =
    List.map
      (fun (mu : Ast.module_unit) ->
        let sc = Visibility.scope vis mu.Ast.m_name in
        let mrt =
          { unit_ = mu; vars = Hashtbl.create 16; own_vars = Hashtbl.create 16;
            visible_subs = sc.Visibility.subs; visible_types = sc.Visibility.types; fma = false }
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
            (fun src -> Option.iter (Hashtbl.replace mrt.vars local) (Hashtbl.find_opt src.own_vars name))
            (Hashtbl.find_opt machine.modules owner))
        sc.Visibility.vars;
      let env = new_env { m = machine; mname = mu.Ast.m_name; sname = "<module>" } mrt false in
      List.iter
        (fun (d : Ast.decl) ->
          let cell = ref (default_of env d [||]) in
          Hashtbl.replace mrt.own_vars d.Ast.d_name cell;
          (* an import of the same name hides the declaration *)
          if Visibility.var sc d.Ast.d_name = Some (mu.Ast.m_name, d.Ast.d_name) then
            Hashtbl.replace mrt.vars d.Ast.d_name cell)
        mu.Ast.m_decls)
    shells;
  machine.elaborating <- false;
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
  let code = code_of machine callee in
  let frame = Array.make (Array.length code.names) unset in
  List.iteri (fun k v -> frame.(code.formals.(k)) <- ref v) args;
  enter machine code frame

let module_cell machine ~module_ ~name =
  match Hashtbl.find_opt machine.modules module_ with
  | None -> err "unknown module %s" module_
  | Some mrt -> (
      match Hashtbl.find_opt mrt.vars name with Some cell -> cell | None -> err "unknown variable %s.%s" module_ name)

let get_module_var machine ~module_ ~name = !(module_cell machine ~module_ ~name)
let set_module_var machine ~module_ ~name v = module_cell machine ~module_ ~name := v
let history machine = Hashtbl.fold (fun k v acc -> (k, v) :: acc) machine.history []
let history_value machine fld = Hashtbl.find_opt machine.history fld
let printed machine = Buffer.contents machine.print_log

(* Enable FMA everywhere except the modules in [disabled].  Code
   translated before is stale: the next call of each subprogram
   translates it again under the new flags. *)
let set_fma machine ~enabled ~disabled =
  Hashtbl.iter (fun name mrt -> mrt.fma <- enabled && not (List.mem name disabled)) machine.modules;
  machine.generation <- machine.generation + 1;
  Hashtbl.reset machine.codes
