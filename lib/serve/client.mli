(** Blocking client for the query daemon's line protocol. *)

type t

val connect : Server.addr -> t
(** Raises [Unix.Unix_error] when the daemon is not listening. *)

val send : t -> Jsonio.t -> unit
val send_line : t -> string -> unit

val recv : t -> (Jsonio.t, string) result
(** Next response line, parsed.  [Error] on a closed connection or
    unparseable bytes. *)

val recv_line : t -> string option
(** Next raw response line, without its newline.  [None] when the
    connection closes before a whole line arrived.  A line may arrive
    in any number of pieces. *)

val request : t -> Jsonio.t -> (Jsonio.t, string) result
(** [send] then [recv].  Only safe when at most one request is
    outstanding; pipelined requests must use {!recv_matching}. *)

val recv_matching : t -> id:int -> (Jsonio.t, string) result
(** Next response whose ["id"] field equals [id].  The concurrent
    daemon completes responses out of order; replies for other ids read
    along the way are stashed and returned by their own matching
    calls.  [Error] on a closed connection or unparseable bytes. *)

val close : t -> unit
