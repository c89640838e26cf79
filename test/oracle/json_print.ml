(* The JSON printer as it was before it wrote into the caller's buffer
   with blitted runs and integer digits, kept as the byte-identity
   oracle for [Jsonio.add] and everything it prints (every daemon reply
   among them): it escapes one character at a time and formats integral
   numbers with [Printf.sprintf "%.0f"]. *)

module J = Rca_obs.Jsonio

let escape_into buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s

let rec print_into buf (v : J.t) =
  match v with
  | J.Null -> Buffer.add_string buf "null"
  | J.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | J.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string buf "null"
  | J.Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | J.Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          print_into buf item)
        items;
      Buffer.add_char buf ']'
  | J.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          print_into buf item)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_into buf v;
  Buffer.contents buf
