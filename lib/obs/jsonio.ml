(* The one JSON codec, for the serve protocol and every JSON artifact:
   one value type, a recursive-descent parser and a compact printer
   ([add]) that writes into the caller's buffer, so the daemon streams
   each reply straight into its connection buffer.
   Hand-rolled because the serve layer must parse *untrusted* request
   lines without new dependencies: every malformed input returns
   [Error], never an exception, so the daemon can answer garbage with a
   protocol error instead of dying.

   Scope: RFC 8259 minus the frills the protocol never uses — numbers
   parse through [float_of_string] (so the usual int/float/exponent
   forms all work), strings handle the standard escapes plus \uXXXX
   (encoded back out as UTF-8; surrogate pairs are combined). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- parsing --------------------------------------------------------------- *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let error c msg = raise (Bad (Printf.sprintf "%s at byte %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

(* Code point -> UTF-8 bytes (BMP + supplementary; lone surrogates are
   encoded as-is rather than rejected — garbage in, bytes out, but never
   an exception). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> error c "bad \\u escape"
  in
  if c.pos + 4 > String.length c.s then error c "truncated \\u escape";
  let v =
    (digit c.s.[c.pos] lsl 12)
    lor (digit c.s.[c.pos + 1] lsl 8)
    lor (digit c.s.[c.pos + 2] lsl 4)
    lor digit c.s.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> error c "unterminated escape"
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let cp = hex4 c in
                let cp =
                  (* combine a high+low surrogate pair when present *)
                  if cp >= 0xd800 && cp <= 0xdbff
                     && c.pos + 6 <= String.length c.s
                     && c.s.[c.pos] = '\\'
                     && c.s.[c.pos + 1] = 'u'
                  then begin
                    let saved = c.pos in
                    c.pos <- c.pos + 2;
                    let lo = hex4 c in
                    if lo >= 0xdc00 && lo <= 0xdfff then
                      0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                    else begin
                      c.pos <- saved;
                      cp
                    end
                  end
                  else cp
                in
                add_utf8 buf cp
            | _ -> error c "bad escape");
            go ())
    | Some ch when Char.code ch < 0x20 -> error c "raw control character in string"
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let numchar ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ch when numchar ch -> advance c
    | _ -> continue := false
  done;
  let text = String.sub c.s start (c.pos - start) in
  match float_of_string_opt text with
  | Some f when Float.is_finite f -> Num f
  | _ -> error c (Printf.sprintf "bad number %S" text)

(* Protocol messages nest 3 deep; the parser recurses once per level, so
   deeper input is refused before it costs the reactor stack and time. *)
let max_depth = 64

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth ->
      error c (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ()
          | Some '}' -> advance c
          | _ -> error c "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c (depth + 1) in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements ()
          | Some ']' -> advance c
          | _ -> error c "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c (Printf.sprintf "unexpected %C" ch)

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c 0 with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing bytes after value at byte %d" c.pos)
      else Ok v
  | exception Bad msg -> Error msg

(* --- printing -------------------------------------------------------------- *)

(* Writers append straight into the caller's buffer: the daemon streams
   a reply into its connection's out buffer, and [to_string]/[to_file]
   wrap [add], so every JSON byte goes through one escaper
   ([add_string]) and one number rule ([add_num]). *)

let needs_escape ch = ch = '"' || ch = '\\' || Char.code ch < 0x20

let hex_digit = "0123456789abcdef"

let add_string buf s =
  Buffer.add_char buf '"';
  let len = String.length s in
  (* copy each run of clean bytes with one blit; a string with nothing to
     escape is one scan and one blit *)
  let run = ref 0 in
  for i = 0 to len - 1 do
    let ch = String.unsafe_get s i in
    if needs_escape ch then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      (match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digit.[Char.code ch lsr 4];
          Buffer.add_char buf hex_digit.[Char.code ch land 0xf]);
      run := i + 1
    end
  done;
  if len > !run then Buffer.add_substring buf s !run (len - !run);
  Buffer.add_char buf '"'

(* Decimal digits of a non-negative integer, most significant first. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* Integers print as integers (ids, counts, line numbers), -0.0 as [-0];
   JSON has no non-finite literals, so those clamp to null. *)
let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_digits buf (Float.to_int (Float.abs f))
  end
  else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
  else Buffer.add_string buf "null"

let rec add buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> add_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          add buf item)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let to_file path v =
  let buf = Buffer.create 4096 in
  add buf v;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf)

(* --- accessors ------------------------------------------------------------- *)

let member key v = match v with Obj fields -> List.assoc_opt key fields | _ -> None

let string_opt v = match v with Str s -> Some s | _ -> None

let int_opt v =
  match v with
  | Num f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let list_opt v = match v with Arr items -> Some items | _ -> None

let num i = Num (float_of_int i)
