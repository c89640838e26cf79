(* Fallback statement analyses — the second and third stages of the
   paper's three-parser chain (fparser -> KGen helpers -> string tools).

   When the structured parser leaves a statement as [Ast.Unparsed], the
   metagraph builder still wants the data-dependency it expresses.  Stage
   two ([split_assignment]) handles anything shaped like an assignment by
   balancing parentheses; stage three ([scrape_identifiers]) degrades to a
   bag of identifiers. *)

let keywords =
  [
    "if"; "then"; "else"; "elseif"; "end"; "endif"; "enddo"; "do"; "while";
    "call"; "return"; "exit"; "cycle"; "stop"; "print"; "use"; "only";
    "and"; "or"; "not"; "true"; "false"; "eq"; "ne"; "lt"; "le"; "gt"; "ge";
    "min"; "max"; "abs"; "sqrt"; "exp"; "log"; "mod"; "merge"; "real"; "int";
  ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

(* All identifiers in [text], lowercased, first-occurrence order, skipping
   string literals and numeric kind suffixes (the `r8` of `1.0_r8`). *)
let scrape_identifiers text =
  let n = String.length text in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go i =
    if i >= n then ()
    else
      let c = text.[i] in
      if c = '\'' || c = '"' then begin
        (* skip string literal *)
        let j = ref (i + 1) in
        while !j < n && text.[!j] <> c do
          incr j
        done;
        go (!j + 1)
      end
      else if c >= '0' && c <= '9' then begin
        (* skip number, including exponent and kind suffix *)
        let j = ref i in
        while
          !j < n
          && (is_ident_char text.[!j]
             || text.[!j] = '.'
             ||
             (* exponent sign directly after e/d *)
             ((text.[!j] = '+' || text.[!j] = '-')
             && !j > 0
             && (text.[!j - 1] = 'e' || text.[!j - 1] = 'd' || text.[!j - 1] = 'E'
                || text.[!j - 1] = 'D')))
        do
          incr j
        done;
        go !j
      end
      else if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        let id = String.lowercase_ascii (String.sub text i (!j - i)) in
        if (not (List.mem id keywords)) && not (Hashtbl.mem seen id) then begin
          Hashtbl.replace seen id ();
          acc := id :: !acc
        end;
        go !j
      end
      else go (i + 1)
  in
  go 0;
  List.rev !acc

(* Find the top-level '=' of an assignment (not ==, /=, <=, >=, =>, and not
   inside parentheses or strings).  Returns its index. *)
let assignment_split_index text =
  let n = String.length text in
  let rec go i depth quote =
    if i >= n then None
    else
      let c = text.[i] in
      match quote with
      | Some q -> go (i + 1) depth (if c = q then None else quote)
      | None -> (
          match c with
          | '\'' | '"' -> go (i + 1) depth (Some c)
          | '(' -> go (i + 1) (depth + 1) None
          | ')' -> go (i + 1) (depth - 1) None
          | '=' when depth = 0 ->
              let prev = if i > 0 then text.[i - 1] else ' ' in
              let next = if i + 1 < n then text.[i + 1] else ' ' in
              if prev = '=' || prev = '/' || prev = '<' || prev = '>' then go (i + 1) depth None
              else if next = '=' || next = '>' then go (i + 2) depth None
              else Some i
          | _ -> go (i + 1) depth None)
  in
  go 0 0 None

type relaxed_assignment = {
  lhs_base : string;  (* root variable of the left-hand side *)
  lhs_canonical : string;  (* final derived-type component, index-free *)
  rhs_identifiers : string list;
}

(* Stage two: split on the top-level '=', take the lhs designator's base
   and canonical names, and scrape the rhs for identifiers.  [None] when
   the text is not assignment-shaped. *)
let split_assignment text =
  match assignment_split_index text with
  | None -> None
  | Some i ->
      let lhs = String.trim (String.sub text 0 i) in
      let rhs = String.sub text (i + 1) (String.length text - i - 1) in
      (* canonical: after last '%', strip index parens; base: before any
         '(' or '%' *)
      let strip_indices s =
        match String.index_opt s '(' with
        | Some j -> String.trim (String.sub s 0 j)
        | None -> String.trim s
      in
      let base = strip_indices (match String.index_opt lhs '%' with
        | Some j -> String.sub lhs 0 j
        | None -> lhs)
      in
      let canonical =
        (* last '%' at paren depth 0 starts the final component *)
        let depth = ref 0 and cut = ref (-1) in
        String.iteri
          (fun k c ->
            match c with
            | '(' -> incr depth
            | ')' -> decr depth
            | '%' when !depth = 0 -> cut := k
            | _ -> ())
          lhs;
        let tail =
          if !cut >= 0 then String.sub lhs (!cut + 1) (String.length lhs - !cut - 1)
          else lhs
        in
        strip_indices tail
      in
      if base = "" || not (is_ident_start base.[0]) then None
      else
        Some
          {
            lhs_base = String.lowercase_ascii base;
            lhs_canonical = String.lowercase_ascii canonical;
            rhs_identifiers = scrape_identifiers rhs;
          }
