(* Blocking line-protocol client for the query daemon — used by
   [rca_main query], the serve benchmark and the tests.  One [request]
   is one written line and one read line; [recv] keeps any bytes read
   past the newline for the next call, and reads through one 64-KiB
   chunk allocated with the connection.

   The concurrent daemon completes responses out of order, so a client
   that pipelines several requests on one connection must match replies
   by id: [recv_matching] returns the response for a given id and
   stashes every other reply it reads on the way for later matching
   calls. *)

module J = Jsonio

type t = {
  fd : Unix.file_descr;
  mutable residue : string;  (* bytes after the last returned line *)
  chunk : Bytes.t;  (* every read lands here first *)
  mutable stash : J.t list;  (* replies read past while matching by id *)
}

let connect (addr : Server.addr) =
  match addr with
  | `Unix path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      { fd; residue = ""; chunk = Bytes.create 65536; stash = [] }
  | `Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      { fd; residue = ""; chunk = Bytes.create 65536; stash = [] }

let send_line t line =
  let payload = line ^ "\n" in
  let bytes = Bytes.of_string payload in
  let len = Bytes.length bytes in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write t.fd bytes !pos (len - !pos)
  done

let send t v = send_line t (J.to_string v)

let recv_line t =
  let rec go () =
    match String.index_opt t.residue '\n' with
    | Some i ->
        let line = String.sub t.residue 0 i in
        t.residue <- String.sub t.residue (i + 1) (String.length t.residue - i - 1);
        Some line
    | None -> (
        match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
        | 0 -> None  (* server closed mid-line *)
        | k ->
            t.residue <- t.residue ^ Bytes.sub_string t.chunk 0 k;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()  (* a signal handler ran *))
  in
  go ()

let recv t =
  match recv_line t with
  | None -> Error "connection closed by server"
  | Some line -> J.of_string line

let request t v =
  send t v;
  recv t

let reply_id r = Option.bind (J.member "id" r) J.int_opt

let recv_matching t ~id =
  match List.partition (fun r -> reply_id r = Some id) t.stash with
  | hit :: _, rest ->
      t.stash <- rest;
      Ok hit
  | [], _ ->
      let rec go () =
        match recv t with
        | Error _ as e -> e
        | Ok r ->
            if reply_id r = Some id then Ok r
            else begin
              t.stash <- t.stash @ [ r ];
              go ()
            end
      in
      go ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
