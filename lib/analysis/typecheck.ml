(* Type and kind inference over the resolved AST.

   Every expression gets a best-effort {!Resolve.ty} (base type + array
   rank); the checker flags assignments and operands whose types cannot
   agree under any reading of F90's conversion rules.  The analysis is
   deliberately conservative: [None] means "unknown" and unknown never
   produces a diagnostic — intrinsic results, elemental function
   references (whose rank follows the actuals) and anything the parser
   kept as [Unparsed] stay unknown, so only contradictions between two
   *declared* types are reported.

   Compatibility rules adopted (deviations from full F90 noted in
   DESIGN.md): integer and real interconvert freely (numeric category);
   logical, character and each named derived type are their own rigid
   categories; a scalar right-hand side broadcasts into an array
   left-hand side but an array can never collapse into a scalar; equal
   nonzero ranks combine elementwise, differing nonzero ranks conflict.

   The checker also reports [Undeclared_implicit] for every name that
   resolved only through the implicit-typing fallback — the front door
   for real Fortran, where a typo'd identifier silently becomes a fresh
   implicit local. *)

open Rca_fortran

type category = Cnum | Clogical | Cchar | Cderived of string

let category_of (t : Resolve.ty) =
  match t.Resolve.elem with
  | Ast.Treal | Ast.Tinteger -> Cnum
  | Ast.Tlogical -> Clogical
  | Ast.Tcharacter -> Cchar
  | Ast.Ttype n -> Cderived n

let category_str = function
  | Cnum -> "numeric"
  | Clogical -> "logical"
  | Cchar -> "character"
  | Cderived n -> "type(" ^ n ^ ")"

let compatible a b =
  match (category_of a, category_of b) with
  | Cnum, Cnum -> true
  | Clogical, Clogical -> true
  | Cchar, Cchar -> true
  | Cderived x, Cderived y -> x = y
  | _ -> false

(* Assignment / elementwise rank agreement: scalars broadcast. *)
let ranks_combine a b = a.Resolve.rank = 0 || b.Resolve.rank = 0 || a.Resolve.rank = b.Resolve.rank

let combined_rank a b = max a.Resolve.rank b.Resolve.rank

let ty_of_var res (v : Scope.var) = (Resolve.symbol res v.Scope.v_sym).Resolve.sym_ty

(* ---- inference ----------------------------------------------------------------- *)

(* [emit] receives (line, concerned var option, message) for each
   mismatch found while inferring; {!expr_ty} passes a no-op. *)
type emitter = int -> Scope.var option -> string -> unit

(* First variable mentioned by an expression, for diagnostic attribution. *)
let rec first_var ss (e : Ast.expr) : Scope.var option =
  match e with
  | Ast.Enum _ | Ast.Eint _ | Ast.Elogical _ | Ast.Estring _ -> None
  | Ast.Eun (_, e) -> first_var ss e
  | Ast.Ebin (_, a, b) -> (
      match first_var ss a with Some v -> Some v | None -> first_var ss b)
  | Ast.Erange (a, b) -> (
      match Option.map (first_var ss) a with
      | Some (Some v) -> Some v
      | _ -> Option.join (Option.map (first_var ss) b))
  | Ast.Edesig d -> desig_first_var ss d

and desig_first_var ss (d : Ast.designator) : Scope.var option =
  match d with
  | Ast.Dname n -> Scope.find_var ss n
  | Ast.Dindex (Ast.Dname n, _) -> Scope.find_var ss n
  | Ast.Dindex (base, _) -> desig_first_var ss base
  | Ast.Dmember (base, field) ->
      Scope.find_var ss (Ast.designator_base base ^ "%" ^ field)

let rec infer ss (emit : emitter) ~line (e : Ast.expr) : Resolve.ty option =
  match e with
  | Ast.Enum _ -> Some (Resolve.ty_scalar Ast.Treal)
  | Ast.Eint _ -> Some (Resolve.ty_scalar Ast.Tinteger)
  | Ast.Elogical _ -> Some (Resolve.ty_scalar Ast.Tlogical)
  | Ast.Estring _ -> Some (Resolve.ty_scalar Ast.Tcharacter)
  | Ast.Erange _ -> None  (* bare section bound: no value of its own *)
  | Ast.Eun (Ast.Neg, e) -> (
      match infer ss emit ~line e with
      | Some t when category_of t <> Cnum ->
          emit line (first_var ss e)
            (Printf.sprintf "operand of unary '-' is %s, expected numeric"
               (category_str (category_of t)));
          None
      | r -> r)
  | Ast.Eun (Ast.Not, e) -> (
      match infer ss emit ~line e with
      | Some t when category_of t <> Clogical ->
          emit line (first_var ss e)
            (Printf.sprintf "operand of .not. is %s, expected logical"
               (category_str (category_of t)));
          None
      | Some t -> Some { t with Resolve.elem = Ast.Tlogical }
      | None -> None)
  | Ast.Ebin (op, a, b) -> binop_ty ss emit ~line op a b
  | Ast.Edesig d -> desig_ty ss emit ~line d

and binop_ty ss emit ~line (op : Ast.binop) a b : Resolve.ty option =
  let ta = infer ss emit ~line a and tb = infer ss emit ~line b in
  let operands_must cat opname =
    let check side t =
      match t with
      | Some t when category_of t <> cat ->
          emit line (first_var ss side)
            (Printf.sprintf "operand of %s is %s, expected %s" opname
               (category_str (category_of t)) (category_str cat));
          None
      | other -> other
    in
    (check a ta, check b tb)
  in
  let elementwise elem ta tb =
    match (ta, tb) with
    | Some x, Some y ->
        if ranks_combine x y then
          Some { Resolve.elem; rank = combined_rank x y }
        else begin
          emit line
            (match first_var ss a with Some v -> Some v | None -> first_var ss b)
            (Printf.sprintf "array operands of rank %d and %d cannot combine"
               x.Resolve.rank y.Resolve.rank);
          None
        end
    | _ -> None
  in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow ->
      let ta, tb = operands_must Cnum "arithmetic operator" in
      let elem =
        match (ta, tb) with
        | Some { Resolve.elem = Ast.Tinteger; _ }, Some { Resolve.elem = Ast.Tinteger; _ } ->
            Ast.Tinteger
        | _ -> Ast.Treal
      in
      elementwise elem ta tb
  | Ast.Concat ->
      let ta, tb = operands_must Cchar "'//'" in
      elementwise Ast.Tcharacter ta tb
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      (match (ta, tb) with
      | Some x, Some y when category_of x <> category_of y ->
          emit line
            (match first_var ss a with Some v -> Some v | None -> first_var ss b)
            (Printf.sprintf "comparison between %s and %s"
               (category_str (category_of x))
               (category_str (category_of y)))
      | _ -> ());
      elementwise Ast.Tlogical ta tb
  | Ast.And | Ast.Or ->
      let ta, tb = operands_must Clogical "logical operator" in
      elementwise Ast.Tlogical ta tb

and desig_ty ss emit ~line (d : Ast.designator) : Resolve.ty option =
  let res = Scope.resolution ss.Scope.ss_ps in
  match d with
  | Ast.Dname n ->
      if Scope.is_declared_var ss n || Scope.find_var ss n <> None then
        Option.join (Option.map (ty_of_var res) (Scope.find_var ss n))
        |> fun t -> (
          match t with
          | Some _ -> t
          | None ->
              Option.join
                (Option.map
                   (fun s -> s.Resolve.sym_ty)
                   (Resolve.lookup_var res ~module_:ss.Scope.ss_module
                      ~sub:ss.Scope.ss_sub.Ast.s_name n)))
      else if Scope.callables ss n <> [] || Visibility.is_intrinsic n then None
      else Some (Resolve.implicit_ty n)
  | Ast.Dmember (base, field) -> (
      let bname = Ast.designator_base base in
      match Scope.find_var ss (bname ^ "%" ^ field) with
      | Some v -> ty_of_var res v
      | None -> (
          match
            Resolve.lookup_var res ~module_:ss.Scope.ss_module
              ~sub:ss.Scope.ss_sub.Ast.s_name bname
          with
          | Some { Resolve.sym_ty = Some { Resolve.elem = Ast.Ttype tname; _ }; _ } -> (
              match Resolve.field_symbol res ~type_name:tname field with
              | Some fs -> fs.Resolve.sym_ty
              | None -> None)
          | _ -> None))
  | Ast.Dindex (Ast.Dname n, args) ->
      let subscript_rank () =
        (* a(i,j) on rank-2 is a scalar; any i:j section keeps a dimension *)
        let ranges =
          List.length (List.filter (function Ast.Erange _ -> true | _ -> false) args)
        in
        List.iter
          (fun a ->
            match infer ss emit ~line a with
            | Some t when category_of t <> Cnum && (match a with Ast.Erange _ -> false | _ -> true) ->
                emit line (first_var ss a)
                  (Printf.sprintf "array subscript is %s, expected integer"
                     (category_str (category_of t)))
            | _ -> ())
          args;
        ranges
      in
      if Scope.is_metagraph_variable ss n then begin
        let ranges = subscript_rank () in
        match desig_ty ss emit ~line (Ast.Dname n) with
        | Some t when t.Resolve.rank > 0 ->
            Some { t with Resolve.rank = (if ranges > 0 then ranges else 0) }
        | _ -> None  (* indexing something not known to be an array *)
      end
      else if Scope.callables ss n <> [] then begin
        List.iter (fun a -> ignore (infer ss emit ~line a)) args;
        function_result_ty ss n
      end
      else if Visibility.is_intrinsic n then begin
        List.iter (fun a -> ignore (infer ss emit ~line a)) args;
        None
      end
      else begin
        let _ = subscript_rank () in
        Some (Resolve.implicit_ty n)
      end
  | Ast.Dindex (base, args) -> (
      let ranges =
        List.length (List.filter (function Ast.Erange _ -> true | _ -> false) args)
      in
      List.iter (fun a -> ignore (infer ss emit ~line a)) args;
      match desig_ty ss emit ~line base with
      | Some t when t.Resolve.rank > 0 ->
          Some { t with Resolve.rank = (if ranges > 0 then ranges else 0) }
      | _ -> None)

(* Result type of a function reference: only when every candidate agrees
   and none is elemental (an elemental result's rank follows the
   actuals). *)
and function_result_ty ss name : Resolve.ty option =
  let res = Scope.resolution ss.Scope.ss_ps in
  let tys =
    List.map
      (fun (c : Visibility.callable) ->
        if c.Visibility.c_sub.Ast.s_elemental then None
        else
          match c.Visibility.c_sub.Ast.s_kind with
          | Ast.Subroutine -> None
          | Ast.Function ->
              Option.join
                (Option.map
                   (fun s -> s.Resolve.sym_ty)
                   (Resolve.lookup_local res ~module_:c.Visibility.c_module
                      ~sub:c.Visibility.c_sub.Ast.s_name
                      (Ast.function_result_name c.Visibility.c_sub))))
      (Scope.callables ss name)
  in
  match tys with
  | [] -> None
  | t :: rest -> if List.for_all (fun u -> u = t) rest then t else None

(* Inference without diagnostics, for {!Callcheck} and tests. *)
let expr_ty ss ~line e = infer ss (fun _ _ _ -> ()) ~line e

(* ---- the pass ------------------------------------------------------------------- *)

let ty_str_cat (t : Resolve.ty) = Resolve.ty_str t

let of_sub (ss : Scope.sub_scope) : Diagnostics.diag list =
  let res = Scope.resolution ss.Scope.ss_ps in
  let dmodule = ss.Scope.ss_module and dsub = ss.Scope.ss_sub.Ast.s_name in
  let out = ref [] in
  let mk kind severity line var message =
    let sym, def_file, def_line =
      match var with
      | Some v -> Diagnostics.var_provenance res v
      | None -> Diagnostics.sub_provenance res ~module_:dmodule ~sub:dsub
    in
    {
      Diagnostics.kind;
      severity;
      dmodule;
      dsub;
      line;
      var = (match var with Some v -> v.Scope.v_name | None -> "");
      sym;
      def_file;
      def_line;
      message;
    }
  in
  let add d = out := d :: !out in
  let emit line var message =
    add (mk Diagnostics.Type_mismatch Diagnostics.Error line var message)
  in
  let expect_logical line e what =
    match infer ss emit ~line e with
    | Some t when category_of t <> Clogical ->
        emit line (first_var ss e)
          (Printf.sprintf "%s is %s, expected logical" what
             (category_str (category_of t)))
    | _ -> ()
  in
  let expect_num line e what =
    match infer ss emit ~line e with
    | Some t when category_of t <> Cnum ->
        emit line (first_var ss e)
          (Printf.sprintf "%s is %s, expected numeric" what
             (category_str (category_of t)))
    | _ -> ()
  in
  Ast.iter_stmts
    (fun st ->
      let line = st.Ast.line in
      match st.Ast.node with
      | Ast.Assign (d, rhs) -> (
          let tl = desig_ty ss emit ~line d in
          let tr = infer ss emit ~line rhs in
          match (tl, tr) with
          | Some l, Some r ->
              if not (compatible l r) then
                emit line (desig_first_var ss d)
                  (Printf.sprintf "cannot assign %s to %s '%s'" (ty_str_cat r)
                     (ty_str_cat l)
                     (Ast.designator_base d))
              else if r.Resolve.rank <> 0 && l.Resolve.rank <> r.Resolve.rank then
                emit line (desig_first_var ss d)
                  (Printf.sprintf "cannot assign rank-%d value to rank-%d '%s'"
                     r.Resolve.rank l.Resolve.rank (Ast.designator_base d))
          | _ -> ())
      | Ast.Call (_, args) ->
          List.iter (fun a -> ignore (infer ss emit ~line a)) args
      | Ast.If (branches, _) ->
          List.iter (fun (c, _) -> expect_logical line c "if condition") branches
      | Ast.Do { lo; hi; step; _ } ->
          expect_num line lo "do bound";
          expect_num line hi "do bound";
          Option.iter (fun e -> expect_num line e "do step") step
      | Ast.Do_while (c, _) -> expect_logical line c "do while condition"
      | Ast.Select (sel, cases, _) ->
          ignore (infer ss emit ~line sel);
          List.iter
            (fun (vs, _) -> List.iter (fun v -> ignore (infer ss emit ~line v)) vs)
            cases
      | Ast.Print args -> List.iter (fun a -> ignore (infer ss emit ~line a)) args
      | Ast.Unparsed _ | Ast.Return | Ast.Exit_loop | Ast.Cycle | Ast.Stop -> ())
    ss.Scope.ss_sub.Ast.s_body;
  (* names that only implicit typing could resolve *)
  List.iter
    (fun (v : Scope.var) ->
      match v.Scope.v_kind with
      | Scope.Implicit
        when v.Scope.v_name <> Ast.function_result_name ss.Scope.ss_sub
             && not (String.contains v.Scope.v_name '%') ->
          let ty =
            match ty_of_var res v with
            | Some t -> Resolve.ty_str t
            | None -> Resolve.ty_str (Resolve.implicit_ty v.Scope.v_name)
          in
          add
            (mk Diagnostics.Undeclared_implicit Diagnostics.Warning v.Scope.v_line (Some v)
               (Printf.sprintf "'%s' has no declaration; implicitly typed as %s"
                  v.Scope.v_name ty))
      | _ -> ())
    (Scope.vars ss);
  List.rev !out
