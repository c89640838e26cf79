(* Recursive-descent parser for the Fortran subset of [Ast].

   The paper's pipeline runs three parsers in sequence over each
   assignment (fparser, KGen helpers, a string-based fallback); here the
   structured parser is the primary one, [Relaxed] provides the fallback
   stages, and in tolerant mode any statement the primary parser rejects
   is preserved verbatim as [Ast.Unparsed] so the pipeline can hand it to
   the fallbacks instead of failing. *)

open Ast

exception Parse_error of string * int (* message, physical line *)

let fail line msg = raise (Parse_error (msg, line))

(* ---- token cursor over one logical line ---------------------------------- *)

type cursor = { mutable toks : Lexer.token list; cline : int }

(* A line the lexer rejects fails like any other malformed line, so
   [Parse_error] is the one exception parsing raises. *)
let cursor_of_line (l : Source.logical_line) =
  match Lexer.tokenize l.text with
  | toks -> { toks; cline = l.line }
  | exception Lexer.Lex_error msg -> fail l.line msg

let peek c = match c.toks with [] -> None | t :: _ -> Some t

let advance c =
  match c.toks with
  | [] -> fail c.cline "unexpected end of statement"
  | t :: rest ->
      c.toks <- rest;
      t

let at_end c = c.toks = []

let accept_op c s =
  match c.toks with
  | Lexer.Op o :: rest when o = s ->
      c.toks <- rest;
      true
  | _ -> false

let expect_op c s =
  if not (accept_op c s) then
    fail c.cline (Printf.sprintf "expected %S" s)

let accept_kw c kw =
  match c.toks with
  | Lexer.Ident id :: rest when id = kw ->
      c.toks <- rest;
      true
  | _ -> false

let expect_ident c =
  match advance c with
  | Lexer.Ident id -> id
  | t -> fail c.cline (Printf.sprintf "expected identifier, got %s" (Lexer.token_to_string t))

(* ---- expressions ----------------------------------------------------------- *)

let rec parse_expr c = parse_or c

and parse_or c =
  let lhs = ref (parse_and c) in
  let continue_ = ref true in
  while !continue_ do
    match peek c with
    | Some (Lexer.Dotop "or") ->
        ignore (advance c);
        lhs := Ebin (Or, !lhs, parse_and c)
    | _ -> continue_ := false
  done;
  !lhs

and parse_and c =
  let lhs = ref (parse_not c) in
  let continue_ = ref true in
  while !continue_ do
    match peek c with
    | Some (Lexer.Dotop "and") ->
        ignore (advance c);
        lhs := Ebin (And, !lhs, parse_not c)
    | _ -> continue_ := false
  done;
  !lhs

and parse_not c =
  match peek c with
  | Some (Lexer.Dotop "not") ->
      ignore (advance c);
      Eun (Not, parse_not c)
  | _ -> parse_cmp c

and cmp_of_token = function
  | Lexer.Op "==" | Lexer.Dotop "eq" -> Some Eq
  | Lexer.Op "/=" | Lexer.Dotop "ne" -> Some Ne
  | Lexer.Op "<" | Lexer.Dotop "lt" -> Some Lt
  | Lexer.Op "<=" | Lexer.Dotop "le" -> Some Le
  | Lexer.Op ">" | Lexer.Dotop "gt" -> Some Gt
  | Lexer.Op ">=" | Lexer.Dotop "ge" -> Some Ge
  | _ -> None

and parse_cmp c =
  let lhs = parse_add c in
  match peek c with
  | Some t -> (
      match cmp_of_token t with
      | Some op ->
          ignore (advance c);
          Ebin (op, lhs, parse_add c)
      | None -> lhs)
  | None -> lhs

and parse_add c =
  let first =
    if accept_op c "-" then Eun (Neg, parse_mul c)
    else begin
      ignore (accept_op c "+");
      parse_mul c
    end
  in
  let lhs = ref first in
  let continue_ = ref true in
  while !continue_ do
    if accept_op c "+" then lhs := Ebin (Add, !lhs, parse_mul c)
    else if accept_op c "-" then lhs := Ebin (Sub, !lhs, parse_mul c)
    else if accept_op c "//" then lhs := Ebin (Concat, !lhs, parse_mul c)
    else continue_ := false
  done;
  !lhs

and parse_mul c =
  let lhs = ref (parse_pow c) in
  let continue_ = ref true in
  while !continue_ do
    if accept_op c "*" then lhs := Ebin (Mul, !lhs, parse_pow c)
    else if accept_op c "/" then lhs := Ebin (Div, !lhs, parse_pow c)
    else continue_ := false
  done;
  !lhs

and parse_pow c =
  let base = parse_primary c in
  if accept_op c "**" then
    (* right-associative; unary minus in the exponent is legal Fortran *)
    let exponent = if accept_op c "-" then Eun (Neg, parse_pow c) else parse_pow c in
    Ebin (Pow, base, exponent)
  else base

and parse_primary c =
  match advance c with
  | Lexer.Inum i -> Eint i
  | Lexer.Rnum f -> Enum f
  | Lexer.Str s -> Estring s
  | Lexer.Dotop "true" -> Elogical true
  | Lexer.Dotop "false" -> Elogical false
  | Lexer.Op "(" ->
      let e = parse_expr c in
      expect_op c ")";
      e
  | Lexer.Ident id -> Edesig (parse_designator_rest c (Dname id))
  | t -> fail c.cline (Printf.sprintf "unexpected token %s" (Lexer.token_to_string t))

(* After the base name: zero or more (args) and %field selections. *)
and parse_designator_rest c d =
  match peek c with
  | Some (Lexer.Op "(") ->
      ignore (advance c);
      let args = parse_args c in
      expect_op c ")";
      parse_designator_rest c (Dindex (d, args))
  | Some (Lexer.Op "%") ->
      ignore (advance c);
      let field = expect_ident c in
      parse_designator_rest c (Dmember (d, field))
  | _ -> d

(* One actual argument or array-section bound: expr, expr:expr, :expr,
   expr:, or a bare ':'. *)
and parse_arg c =
  let lo =
    match peek c with
    | Some (Lexer.Op ":") -> None
    | _ -> Some (parse_expr c)
  in
  if accept_op c ":" then begin
    let hi =
      match peek c with
      | Some (Lexer.Op ",") | Some (Lexer.Op ")") -> None
      | _ -> Some (parse_expr c)
    in
    Erange (lo, hi)
  end
  else
    match lo with
    | Some e -> e
    | None -> fail c.cline "empty argument"

and parse_args c =
  match peek c with
  | Some (Lexer.Op ")") -> []
  | _ ->
      let rec more acc =
        let a = parse_arg c in
        if accept_op c "," then more (a :: acc) else List.rev (a :: acc)
      in
      more []

let parse_designator c =
  let id = expect_ident c in
  parse_designator_rest c (Dname id)

(* ---- line classification --------------------------------------------------- *)

let first_ident (l : Source.logical_line) =
  match Lexer.tokenize l.text with
  | Lexer.Ident id :: rest -> Some (id, rest)
  | _ -> None
  | exception Lexer.Lex_error _ -> None

(* "end", "endif", "end if", "end do", "end subroutine foo", ... *)
let is_end_of l kind =
  match first_ident l with
  | Some ("end", []) -> true
  | Some ("end", Lexer.Ident k :: _) -> k = kind
  | Some (id, _) -> id = "end" ^ kind
  | None -> false

(* ---- parser state over logical lines ---------------------------------------- *)

type state = {
  mutable lines : Source.logical_line list;
  file : string;
  strict : bool;
}

let peek_line st = match st.lines with [] -> None | l :: _ -> Some l

let pop_line st =
  match st.lines with
  | [] -> fail 0 "unexpected end of file"
  | l :: rest ->
      st.lines <- rest;
      l

(* ---- statements -------------------------------------------------------------- *)

let rec parse_stmt st (l : Source.logical_line) : stmt =
  let wrap node = { line = l.line; node } in
  try
    let c = cursor_of_line l in
    match peek c with
    | Some (Lexer.Ident "if") -> parse_if st c l
    | Some (Lexer.Ident "do") -> parse_do st c l
    | Some (Lexer.Ident "select") -> parse_select st c l
    | Some (Lexer.Ident "call") ->
        ignore (advance c);
        let name = expect_ident c in
        let args =
          if accept_op c "(" then begin
            let a = parse_args c in
            expect_op c ")";
            a
          end
          else []
        in
        if not (at_end c) then fail l.line "trailing tokens after call";
        wrap (Call (name, args))
    | Some (Lexer.Ident "return") -> wrap Return
    | Some (Lexer.Ident "exit") -> wrap Exit_loop
    | Some (Lexer.Ident "cycle") -> wrap Cycle
    | Some (Lexer.Ident "stop") -> wrap Stop
    | Some (Lexer.Ident "print") ->
        ignore (advance c);
        expect_op c "*";
        let args = ref [] in
        while accept_op c "," do
          args := parse_expr c :: !args
        done;
        wrap (Print (List.rev !args))
    | _ ->
        (* assignment *)
        let d = parse_designator c in
        expect_op c "=";
        let rhs = parse_expr c in
        if not (at_end c) then fail l.line "trailing tokens after assignment";
        wrap (Assign (d, rhs))
  with
  | Parse_error _ as e -> if st.strict then raise e else wrap (Unparsed l.text)

(* Body statements until [stop_pred] matches a line; the matching line is
   left in the stream. *)
and parse_stmts st stop_pred =
  let acc = ref [] in
  let rec loop () =
    match peek_line st with
    | None -> fail 0 "missing block terminator"
    | Some l ->
        if stop_pred l then List.rev !acc
        else begin
          let l = pop_line st in
          acc := parse_stmt st l :: !acc;
          loop ()
        end
  in
  loop ()

and parse_if st c l =
  ignore (advance c);
  (* 'if' *)
  expect_op c "(";
  let depth = ref 1 in
  (* The condition may itself contain parens; parse via parse_expr and
     expect the closing one. *)
  ignore depth;
  let cond = parse_expr c in
  expect_op c ")";
  if accept_kw c "then" then begin
    if not (at_end c) then fail l.line "tokens after then";
    let stop l' =
      is_end_of l' "if"
      ||
      match first_ident l' with
      | Some ("else", _) | Some ("elseif", _) -> true
      | _ -> false
    in
    let first_branch = parse_stmts st stop in
    let branches = ref [ (cond, first_branch) ] in
    let else_branch = ref [] in
    let rec handle_tail () =
      match peek_line st with
      | None -> fail l.line "unterminated if"
      | Some l' ->
          if is_end_of l' "if" then ignore (pop_line st)
          else begin
            let l' = pop_line st in
            let c' = cursor_of_line l' in
            let is_elseif =
              accept_kw c' "elseif"
              || (accept_kw c' "else" && accept_kw c' "if")
            in
            if is_elseif then begin
              expect_op c' "(";
              let cond' = parse_expr c' in
              expect_op c' ")";
              if not (accept_kw c' "then") then fail l'.line "elseif without then";
              let body = parse_stmts st stop in
              branches := (cond', body) :: !branches;
              handle_tail ()
            end
            else begin
              (* plain else *)
              let body = parse_stmts st (fun l'' -> is_end_of l'' "if") in
              else_branch := body;
              handle_tail ()
            end
          end
    in
    handle_tail ();
    { line = l.line; node = If (List.rev !branches, !else_branch) }
  end
  else begin
    (* one-line if: `if (cond) stmt` *)
    let rest_text =
      (* Re-rendering the remaining tokens would be fragile; instead
         reparse the raw text after the ')' that closes the condition. *)
      let s = l.text in
      let n = String.length s in
      let i = ref 0 and depth = ref 0 and stop = ref (-1) in
      while !stop < 0 && !i < n do
        (match s.[!i] with
        | '(' -> incr depth
        | ')' ->
            decr depth;
            if !depth = 0 then stop := !i
        | _ -> ());
        incr i
      done;
      if !stop < 0 then fail l.line "malformed one-line if";
      String.sub s (!stop + 1) (n - !stop - 1)
    in
    let inner = parse_stmt st { Source.text = String.trim rest_text; line = l.line } in
    { line = l.line; node = If ([ (cond, [ inner ]) ], []) }
  end

(* select case (expr) / case (v1, v2) / case default / end select *)
and parse_select st c l =
  ignore (advance c);
  (* 'select' *)
  if not (accept_kw c "case") then fail l.line "expected 'case' after 'select'";
  expect_op c "(";
  let selector = parse_expr c in
  expect_op c ")";
  let is_case l' =
    match first_ident l' with Some ("case", _) -> true | _ -> false
  in
  let stop l' = is_end_of l' "select" || is_case l' in
  (* skip to the first case line *)
  let _preamble = parse_stmts st stop in
  let cases = ref [] and default = ref [] in
  let rec handle () =
    match peek_line st with
    | None -> fail l.line "unterminated select case"
    | Some l' ->
        if is_end_of l' "select" then ignore (pop_line st)
        else begin
          let l' = pop_line st in
          let c' = cursor_of_line l' in
          if not (accept_kw c' "case") then fail l'.line "expected case";
          if accept_kw c' "default" then begin
            default := parse_stmts st stop;
            handle ()
          end
          else begin
            expect_op c' "(";
            let rec values acc =
              let v = parse_expr c' in
              if accept_op c' "," then values (v :: acc) else List.rev (v :: acc)
            in
            let vs = values [] in
            expect_op c' ")";
            let body = parse_stmts st stop in
            cases := (vs, body) :: !cases;
            handle ()
          end
        end
  in
  handle ();
  { line = l.line; node = Select (selector, List.rev !cases, !default) }

and parse_do st c l =
  ignore (advance c);
  (* 'do' *)
  if accept_kw c "while" then begin
    expect_op c "(";
    let cond = parse_expr c in
    expect_op c ")";
    let body = parse_stmts st (fun l' -> is_end_of l' "do") in
    ignore (pop_line st);
    { line = l.line; node = Do_while (cond, body) }
  end
  else begin
    let var = expect_ident c in
    expect_op c "=";
    let lo = parse_expr c in
    expect_op c ",";
    let hi = parse_expr c in
    let step = if accept_op c "," then Some (parse_expr c) else None in
    let body = parse_stmts st (fun l' -> is_end_of l' "do") in
    ignore (pop_line st);
    { line = l.line; node = Do { var; lo; hi; step; body } }
  end

(* ---- declarations -------------------------------------------------------------- *)

let type_keywords = [ "real"; "integer"; "logical"; "character"; "type"; "double" ]

let is_decl_line l =
  match first_ident l with
  | Some (id, rest) ->
      if not (List.mem id type_keywords) then false
      else if id = "type" then (
        (* `type(foo) :: x` is a decl; `type foo` starts a definition *)
        match rest with Lexer.Op "(" :: _ -> true | _ -> false)
      else true
  | None -> false

let is_type_def_line l =
  match first_ident l with
  | Some ("type", Lexer.Ident _ :: _) -> true
  | Some ("type", [ Lexer.Op "::"; Lexer.Ident _ ]) -> true
  | _ -> false

(* `real(r8), parameter :: pi = 3.14, e = 2.71` and friends; returns one
   [decl] per declared entity. *)
let parse_decl_line (l : Source.logical_line) : decl list =
  let c = cursor_of_line l in
  let base_type =
    match advance c with
    | Lexer.Ident "real" -> Treal
    | Lexer.Ident "double" ->
        ignore (accept_kw c "precision");
        Treal
    | Lexer.Ident "integer" -> Tinteger
    | Lexer.Ident "logical" -> Tlogical
    | Lexer.Ident "character" -> Tcharacter
    | Lexer.Ident "type" ->
        expect_op c "(";
        let n = expect_ident c in
        expect_op c ")";
        Ttype n
    | t -> fail l.line (Printf.sprintf "not a declaration: %s" (Lexer.token_to_string t))
  in
  (* optional kind / len spec in parens, ignored: real(r8), character(len=16) *)
  (match base_type with
  | Treal | Tinteger | Tlogical | Tcharacter ->
      if accept_op c "(" then begin
        let depth = ref 1 in
        while !depth > 0 do
          match advance c with
          | Lexer.Op "(" -> incr depth
          | Lexer.Op ")" -> decr depth
          | _ -> ()
        done
      end
  | Ttype _ -> ());
  (* attributes up to '::' *)
  let param = ref false and intent = ref None in
  while accept_op c "," do
    match advance c with
    | Lexer.Ident "parameter" -> param := true
    | Lexer.Ident "intent" ->
        expect_op c "(";
        (match advance c with
        | Lexer.Ident "in" ->
            if accept_kw c "out" then intent := Some Inout else intent := Some In
        | Lexer.Ident "inout" -> intent := Some Inout
        | Lexer.Ident "out" -> intent := Some Out
        | t -> fail l.line (Printf.sprintf "bad intent %s" (Lexer.token_to_string t)));
        expect_op c ")"
    | Lexer.Ident ("allocatable" | "pointer" | "save" | "target" | "public" | "private" | "dimension" | "optional") ->
        (* dimension(...) and friends: skip any parenthesized payload *)
        if accept_op c "(" then begin
          let depth = ref 1 in
          while !depth > 0 do
            match advance c with
            | Lexer.Op "(" -> incr depth
            | Lexer.Op ")" -> decr depth
            | _ -> ()
          done
        end
    | t -> fail l.line (Printf.sprintf "unknown attribute %s" (Lexer.token_to_string t))
  done;
  expect_op c "::";
  let decls = ref [] in
  let rec entities () =
    let name = expect_ident c in
    let dims =
      if accept_op c "(" then begin
        let args = parse_args c in
        expect_op c ")";
        args
      end
      else []
    in
    let init = if accept_op c "=" then Some (parse_expr c) else None in
    decls :=
      {
        d_name = name;
        d_type = base_type;
        d_dims = dims;
        d_init = init;
        d_param = !param;
        d_intent = !intent;
        d_line = l.line;
      }
      :: !decls;
    if accept_op c "," then entities ()
  in
  entities ();
  if not (at_end c) then fail l.line "trailing tokens in declaration";
  List.rev !decls

(* ---- use statements --------------------------------------------------------------- *)

let parse_use_line (l : Source.logical_line) : use_stmt =
  let c = cursor_of_line l in
  if not (accept_kw c "use") then fail l.line "not a use statement";
  let m = expect_ident c in
  if accept_op c "," then begin
    if not (accept_kw c "only") then fail l.line "expected only";
    expect_op c ":";
    let pairs = ref [] in
    let rec items () =
      let a = expect_ident c in
      let pair = if accept_op c "=>" then (a, expect_ident c) else (a, a) in
      pairs := pair :: !pairs;
      if accept_op c "," then items ()
    in
    if not (at_end c) then items ();
    { u_module = m; u_only = Some (List.rev !pairs); u_line = l.line }
  end
  else { u_module = m; u_only = None; u_line = l.line }

(* ---- derived types ------------------------------------------------------------------ *)

let parse_type_def st (l : Source.logical_line) : derived_type_def =
  let c = cursor_of_line l in
  if not (accept_kw c "type") then fail l.line "not a type definition";
  ignore (accept_op c "::");
  let name = expect_ident c in
  let fields = ref [] in
  let rec loop () =
    match peek_line st with
    | None -> fail l.line "unterminated type definition"
    | Some l' ->
        if is_end_of l' "type" then ignore (pop_line st)
        else begin
          let l' = pop_line st in
          (* `sequence` and visibility markers may appear; skip them *)
          match first_ident l' with
          | Some (("sequence" | "private" | "public"), []) -> loop ()
          | _ ->
              fields := !fields @ parse_decl_line l';
              loop ()
        end
  in
  loop ();
  { t_name = name; t_fields = !fields; t_line = l.line }

(* ---- interfaces ---------------------------------------------------------------------- *)

let parse_interface st (l : Source.logical_line) : interface_def =
  let c = cursor_of_line l in
  if not (accept_kw c "interface") then fail l.line "not an interface";
  let name = match peek c with Some (Lexer.Ident id) -> id | _ -> "" in
  let procs = ref [] in
  let rec loop () =
    match peek_line st with
    | None -> fail l.line "unterminated interface"
    | Some l' ->
        if is_end_of l' "interface" then ignore (pop_line st)
        else begin
          let l' = pop_line st in
          let c' = cursor_of_line l' in
          if accept_kw c' "module" && accept_kw c' "procedure" then begin
            ignore (accept_op c' "::");
            let rec names () =
              procs := expect_ident c' :: !procs;
              if accept_op c' "," then names ()
            in
            names ()
          end;
          (* explicit interface bodies are skipped line by line *)
          loop ()
        end
  in
  loop ();
  { i_name = name; i_procedures = List.rev !procs; i_line = l.line }

(* ---- subprograms ---------------------------------------------------------------------- *)

let subprogram_intro (l : Source.logical_line) =
  (* Recognize [elemental|pure|recursive]* [type-spec] (subroutine|function). *)
  match Lexer.tokenize l.text with
  | exception Lexer.Lex_error _ -> None
  | toks ->
      let rec scan toks elemental =
        match toks with
        | Lexer.Ident ("elemental" | "pure" | "recursive") :: rest ->
            scan rest (elemental || List.hd toks = Lexer.Ident "elemental")
        | Lexer.Ident ("real" | "integer" | "logical") :: rest -> (
            (* possible `real(r8) function f(...)`: skip kind parens *)
            match rest with
            | Lexer.Op "(" :: rest' ->
                let rec skip depth = function
                  | Lexer.Op "(" :: r -> skip (depth + 1) r
                  | Lexer.Op ")" :: r -> if depth = 1 then r else skip (depth - 1) r
                  | _ :: r -> skip depth r
                  | [] -> []
                in
                scan (skip 1 rest') elemental
            | _ -> scan rest elemental)
        | Lexer.Ident "subroutine" :: _ -> Some (Subroutine, elemental)
        | Lexer.Ident "function" :: _ -> Some (Function, elemental)
        | _ -> None
      in
      scan toks false

let parse_subprogram st (l : Source.logical_line) : subprogram =
  let kind, elemental =
    match subprogram_intro l with
    | Some ke -> ke
    | None -> fail l.line "not a subprogram"
  in
  let c = cursor_of_line l in
  (* consume through the subroutine/function keyword *)
  let rec sync () =
    match advance c with
    | Lexer.Ident "subroutine" | Lexer.Ident "function" -> ()
    | _ -> sync ()
  in
  sync ();
  let name = expect_ident c in
  let args =
    if accept_op c "(" then begin
      let rec names acc =
        match peek c with
        | Some (Lexer.Op ")") ->
            ignore (advance c);
            List.rev acc
        | _ ->
            let a = expect_ident c in
            if accept_op c "," then names (a :: acc)
            else begin
              expect_op c ")";
              List.rev (a :: acc)
            end
      in
      names []
    end
    else []
  in
  let result = if accept_kw c "result" then begin
      expect_op c "(";
      let r = expect_ident c in
      expect_op c ")";
      Some r
    end
    else None
  in
  (* declaration section *)
  let decls = ref [] in
  let rec decl_loop () =
    match peek_line st with
    | None -> fail l.line "unterminated subprogram"
    | Some l' -> (
        match first_ident l' with
        | Some ("implicit", _) | Some ("use", _) | Some (("intrinsic" | "external" | "save"), _) ->
            ignore (pop_line st);
            decl_loop ()
        | _ ->
            if is_decl_line l' then begin
              ignore (pop_line st);
              decls := !decls @ parse_decl_line l';
              decl_loop ()
            end)
  in
  decl_loop ();
  let kind_name = match kind with Subroutine -> "subroutine" | Function -> "function" in
  let body = parse_stmts st (fun l' -> is_end_of l' kind_name || is_end_of l' "") in
  ignore (pop_line st);
  {
    s_name = name;
    s_kind = kind;
    s_args = args;
    s_result = result;
    s_elemental = elemental;
    s_decls = !decls;
    s_body = body;
    s_line = l.line;
  }

(* ---- modules ---------------------------------------------------------------------------- *)

let parse_module st (l : Source.logical_line) : module_unit =
  let c = cursor_of_line l in
  if not (accept_kw c "module") then fail l.line "not a module";
  let name = expect_ident c in
  let uses = ref [] and types = ref [] and decls = ref [] in
  let interfaces = ref [] and subs = ref [] in
  let in_contains = ref false in
  let rec loop () =
    match peek_line st with
    | None -> fail l.line ("unterminated module " ^ name)
    | Some l' ->
        if is_end_of l' "module" then ignore (pop_line st)
        else begin
          (match first_ident l' with
          | Some ("contains", []) ->
              ignore (pop_line st);
              in_contains := true
          | Some ("use", _) ->
              let l' = pop_line st in
              uses := parse_use_line l' :: !uses
          | Some (("implicit" | "private" | "public" | "save"), _) -> ignore (pop_line st)
          | Some ("interface", _) ->
              let l' = pop_line st in
              interfaces := parse_interface st l' :: !interfaces
          | _ ->
              if !in_contains then begin
                match subprogram_intro l' with
                | Some _ ->
                    let l' = pop_line st in
                    subs := parse_subprogram st l' :: !subs
                | None ->
                    let l' = pop_line st in
                    if st.strict then fail l'.line ("unexpected line in module: " ^ l'.text)
              end
              else if is_type_def_line l' then begin
                let l' = pop_line st in
                types := parse_type_def st l' :: !types
              end
              else if is_decl_line l' then begin
                let l' = pop_line st in
                decls := !decls @ parse_decl_line l'
              end
              else begin
                let l' = pop_line st in
                if st.strict then fail l'.line ("unexpected line in module: " ^ l'.text)
              end);
          loop ()
        end
  in
  loop ();
  {
    m_name = name;
    m_file = st.file;
    m_uses = List.rev !uses;
    m_types = List.rev !types;
    m_decls = !decls;
    m_interfaces = List.rev !interfaces;
    m_subprograms = List.rev !subs;
    m_line = l.line;
  }

(* ---- entry points -------------------------------------------------------------------------- *)

(* Parse one source file into its modules.  [strict] (default false)
   controls whether statement-level failures raise or degrade to
   [Unparsed]. *)
let parse_file ?(strict = false) ~file source : module_unit list =
  let st = { lines = Source.logical_lines source; file; strict } in
  let mods = ref [] in
  let rec loop () =
    match peek_line st with
    | None -> List.rev !mods
    | Some l -> (
        match first_ident l with
        | Some ("module", _) ->
            let l = pop_line st in
            mods := parse_module st l :: !mods;
            loop ()
        | _ ->
            ignore (pop_line st);
            loop ())
  in
  loop ()

let parse_expression text =
  let c = cursor_of_line { Source.text; line = 1 } in
  let e = parse_expr c in
  if not (at_end c) then fail 1 "trailing tokens in expression";
  e

let parse_statement ?(strict = true) text =
  let st = { lines = []; file = "<string>"; strict } in
  parse_stmt st { Source.text; line = 1 }
