(* Pretty-printer: AST back to free-form Fortran.  Used to materialize
   AST-level bug injections as source text and to round-trip the parser in
   tests. *)

open Ast

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "**"
  | Concat -> "//"
  | Eq -> "=="
  | Ne -> "/="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> ".and."
  | Or -> ".or."

let prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub | Concat -> 4
  | Mul | Div -> 5
  | Pow -> 6

let rec expr_str ?(ctx = 0) e =
  match e with
  | Enum f ->
      let s = Printf.sprintf "%.17g" f in
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
      else s ^ ".0"
  | Eint i -> string_of_int i
  | Elogical true -> ".true."
  | Elogical false -> ".false."
  | Estring s -> Printf.sprintf "'%s'" s
  | Edesig d -> desig_str d
  (* unary minus binds like a multiplicative prefix, .not. like a
     comparison prefix: parenthesize looser operands *)
  | Eun (Neg, e) -> "(-" ^ expr_str ~ctx:5 e ^ ")"
  | Eun (Not, e) -> "(.not. " ^ expr_str ~ctx:3 e ^ ")"
  | Ebin (op, a, b) ->
      let p = prec op in
      (* Pow is right-associative, everything else left-associative: the
         recursive side gets the operator's own precedence, the other side
         one tighter, so re-parsing rebuilds the same tree. *)
      let lctx, rctx = match op with Pow -> (p + 1, p) | _ -> (p, p + 1) in
      let s = expr_str ~ctx:lctx a ^ " " ^ binop_str op ^ " " ^ expr_str ~ctx:rctx b in
      if p < ctx then "(" ^ s ^ ")" else s
  | Erange (a, b) ->
      let part = function None -> "" | Some e -> expr_str e in
      part a ^ ":" ^ part b

and desig_str = function
  | Dname n -> n
  | Dindex (d, args) ->
      desig_str d ^ "(" ^ String.concat ", " (List.map expr_str args) ^ ")"
  | Dmember (d, f) -> desig_str d ^ "%" ^ f

let intent_str = function In -> "in" | Out -> "out" | Inout -> "inout"

let type_str = function
  | Treal -> "real(r8)"
  | Tinteger -> "integer"
  | Tlogical -> "logical"
  | Tcharacter -> "character(len=64)"
  | Ttype n -> Printf.sprintf "type(%s)" n

let decl_str d =
  let attrs =
    (if d.d_param then [ "parameter" ] else [])
    @ match d.d_intent with None -> [] | Some i -> [ Printf.sprintf "intent(%s)" (intent_str i) ]
  in
  let attrs = match attrs with [] -> "" | xs -> ", " ^ String.concat ", " xs in
  let dims =
    match d.d_dims with
    | [] -> ""
    | ds -> "(" ^ String.concat ", " (List.map expr_str ds) ^ ")"
  in
  let init = match d.d_init with None -> "" | Some e -> " = " ^ expr_str e in
  Printf.sprintf "%s%s :: %s%s%s" (type_str d.d_type) attrs d.d_name dims init

(* One string per physical output line, indented by [indent] spaces. *)
let rec stmt_lines indent st =
  let pad = String.make indent ' ' in
  match st.node with
  | Assign (d, e) -> [ pad ^ desig_str d ^ " = " ^ expr_str e ]
  | Call (name, args) ->
      [ pad ^ "call " ^ name ^ "(" ^ String.concat ", " (List.map expr_str args) ^ ")" ]
  | Return -> [ pad ^ "return" ]
  | Exit_loop -> [ pad ^ "exit" ]
  | Cycle -> [ pad ^ "cycle" ]
  | Stop -> [ pad ^ "stop" ]
  | Print args -> [ pad ^ "print *" ^ String.concat "" (List.map (fun e -> ", " ^ expr_str e) args) ]
  | Unparsed raw -> [ pad ^ raw ]
  | Do { var; lo; hi; step; body } ->
      let steps = match step with None -> "" | Some s -> ", " ^ expr_str s in
      (pad ^ Printf.sprintf "do %s = %s, %s%s" var (expr_str lo) (expr_str hi) steps)
      :: body_lines (indent + 2) body
      @ [ pad ^ "end do" ]
  | Do_while (cond, body) ->
      (pad ^ Printf.sprintf "do while (%s)" (expr_str cond))
      :: body_lines (indent + 2) body
      @ [ pad ^ "end do" ]
  | Select (selector, cases, default) ->
      (pad ^ Printf.sprintf "select case (%s)" (expr_str selector))
      :: List.concat_map
           (fun (vs, body) ->
             (pad ^ "case (" ^ String.concat ", " (List.map expr_str vs) ^ ")")
             :: body_lines (indent + 2) body)
           cases
      @ (if default = [] then []
         else (pad ^ "case default") :: body_lines (indent + 2) default)
      @ [ pad ^ "end select" ]
  | If (branches, els) -> (
      match branches with
      | [] -> []
      | (c0, b0) :: rest ->
          let first = pad ^ Printf.sprintf "if (%s) then" (expr_str c0) in
          let mid =
            List.concat_map
              (fun (c, b) ->
                (pad ^ Printf.sprintf "else if (%s) then" (expr_str c))
                :: body_lines (indent + 2) b)
              rest
          in
          let tail =
            if els = [] then [] else (pad ^ "else") :: body_lines (indent + 2) els
          in
          (first :: body_lines (indent + 2) b0) @ mid @ tail @ [ pad ^ "end if" ])

and body_lines indent body = List.concat_map (stmt_lines indent) body

let subprogram_lines indent s =
  let pad = String.make indent ' ' in
  let kind = match s.s_kind with Subroutine -> "subroutine" | Function -> "function" in
  let prefix = if s.s_elemental then "elemental " else "" in
  let args = "(" ^ String.concat ", " s.s_args ^ ")" in
  let result = match s.s_result with None -> "" | Some r -> Printf.sprintf " result(%s)" r in
  [ pad ^ prefix ^ kind ^ " " ^ s.s_name ^ args ^ result ]
  @ List.map (fun d -> pad ^ "  " ^ decl_str d) s.s_decls
  @ body_lines (indent + 2) s.s_body
  @ [ pad ^ "end " ^ kind ^ " " ^ s.s_name ]

let use_line u =
  match u.u_only with
  | None -> "use " ^ u.u_module
  | Some pairs ->
      let item (local, remote) = if local = remote then local else local ^ " => " ^ remote in
      Printf.sprintf "use %s, only: %s" u.u_module (String.concat ", " (List.map item pairs))

let module_lines m =
  [ "module " ^ m.m_name ]
  @ List.map (fun u -> "  " ^ use_line u) m.m_uses
  @ [ "  implicit none" ]
  @ List.concat_map
      (fun t ->
        ("  type " ^ t.t_name)
        :: List.map (fun d -> "    " ^ decl_str d) t.t_fields
        @ [ "  end type " ^ t.t_name ])
      m.m_types
  @ List.map (fun d -> "  " ^ decl_str d) m.m_decls
  @ List.concat_map
      (fun (i : interface_def) ->
        [
          "  interface " ^ i.i_name;
          "    module procedure " ^ String.concat ", " i.i_procedures;
          "  end interface";
        ])
      m.m_interfaces
  @ [ "contains" ]
  @ List.concat_map (fun s -> subprogram_lines 2 s) m.m_subprograms
  @ [ "end module " ^ m.m_name ]

let module_to_string m = String.concat "\n" (module_lines m) ^ "\n"

let program_to_string prog = String.concat "\n" (List.map module_to_string prog)
