(* Shared binary framing for lib/serve's on-disk artifacts (model
   snapshots, persisted query caches): little-endian primitive
   writers/readers over Buffer/string, FNV-1a 64 checksums, and the
   framed-file discipline both formats follow —

     magic        8 bytes, format-specific
     version      i64 LE, rejected unless equal to the reader's
     payload_len  i64 LE, rejected on truncation or trailing bytes
     checksum     FNV-1a 64 over the payload bytes
     payload

   Writers are atomic (temp file + rename) so a crash mid-save never
   leaves a half-written artifact at the advertised path.  Readers
   never raise: every damage mode — short file, bad magic, version
   skew, truncation, trailing bytes, checksum mismatch — comes back as
   a distinct [Error], with [kind] naming the artifact ("snapshot",
   "cache") so the message identifies what was damaged. *)

let header_len = 8 + 8 + 8 + 8

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* --- writing --------------------------------------------------------------- *)

let w_i64 buf v = Buffer.add_int64_le buf v
let w_int buf i = w_i64 buf (Int64.of_int i)
let w_byte buf b = Buffer.add_char buf (if b then '\001' else '\000')

let w_str buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_list buf f items =
  w_int buf (List.length items);
  List.iter (f buf) items

let write_framed ~magic ~version path fill =
  if String.length magic <> 8 then invalid_arg "Binio.write_framed: magic must be 8 bytes";
  let payload = Buffer.create (1 lsl 16) in
  fill payload;
  let payload = Buffer.contents payload in
  let buf = Buffer.create (String.length payload + header_len) in
  Buffer.add_string buf magic;
  w_i64 buf (Int64.of_int version);
  w_i64 buf (Int64.of_int (String.length payload));
  w_i64 buf (fnv1a64 payload);
  Buffer.add_string buf payload;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Sys.rename tmp path

(* --- reading --------------------------------------------------------------- *)

exception Corrupt of string

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }
let at_end r = r.pos = String.length r.data

let need r k =
  if r.pos + k > String.length r.data then raise (Corrupt "payload ends mid-field")

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r =
  let v = r_i64 r in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then raise (Corrupt "integer field out of range");
  i

let r_len r what =
  let i = r_int r in
  if i < 0 || i > String.length r.data then
    raise (Corrupt (Printf.sprintf "implausible %s length %d" what i));
  i

let r_byte r =
  need r 1;
  let c = r.data.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | _ -> raise (Corrupt "bad boolean byte")

let r_str r =
  let k = r_len r "string" in
  need r k;
  let s = String.sub r.data r.pos k in
  r.pos <- r.pos + k;
  s

let r_list r f =
  let k = r_len r "list" in
  let rec go i acc = if i = k then List.rev acc else go (i + 1) (f r :: acc) in
  go 0 []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_framed ~magic ~version ~kind path =
  match read_file path with
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" kind msg)
  | data ->
      if String.length data < header_len then
        Error (Printf.sprintf "truncated %s: shorter than the fixed header" kind)
      else if String.sub data 0 8 <> magic then
        Error (Printf.sprintf "not a %s file (bad magic)" kind)
      else begin
        let v = Int64.to_int (String.get_int64_le data 8) in
        if v <> version then
          Error
            (Printf.sprintf "%s version %d but this build reads version %d — recompile the model"
               kind v version)
        else begin
          let payload_len = Int64.to_int (String.get_int64_le data 16) in
          let checksum = String.get_int64_le data 24 in
          (* compared by subtraction: a length near max_int would wrap
             [header_len + payload_len] negative *)
          let available = String.length data - header_len in
          if payload_len < 0 || payload_len > available then
            Error (Printf.sprintf "truncated %s: payload shorter than the header claims" kind)
          else if payload_len < available then
            Error (Printf.sprintf "corrupt %s: trailing bytes after the payload" kind)
          else begin
            let payload = String.sub data header_len payload_len in
            if fnv1a64 payload <> checksum then
              Error (Printf.sprintf "%s checksum mismatch: the payload bytes are corrupt" kind)
            else Ok payload
          end
        end
      end
